//! [`VersionedStore`] — the MVCC write head over a base store — and
//! [`Transaction`], the buffered structural-update API.
//!
//! Writers never mutate published state: a commit builds a *working*
//! snapshot over a clone of the current delta (cheap — per-entry
//! payloads are `Arc`-shared) and the indexes carried forward from the
//! current snapshot, applies the transaction's operations to it while
//! reading the in-progress state through the same overlay readers use,
//! makes the commit durable through the base's WAL when it has one, and
//! only then publishes the working snapshot. Readers pin whatever snapshot was
//! current when they arrived and are never blocked or torn.

use std::borrow::Cow;
use std::fmt;
use std::io;
use std::iter;
use std::sync::{Arc, Mutex};

use xmark_store::paged::LogRecord;
use xmark_store::sync::lock;
use xmark_store::{IndexManager, Node, StoreSource, XmlStore};
use xmark_xml::parse_document;

use crate::delta::{DeltaState, InsertedNode};
use crate::indexes::maintain;
use crate::snapshot::SnapshotStore;

/// Why a transaction could not commit (or an operation was rejected).
#[derive(Debug)]
pub enum TxnError {
    /// Another transaction committed after this one began
    /// (first-committer-wins snapshot isolation).
    Conflict,
    /// The operation referenced a node that does not exist (or was
    /// deleted) in the transaction's view.
    NodeMissing(u32),
    /// The operation needed an element but the node is not one.
    NotAnElement(u32),
    /// The operation needed a text node but the node is not one.
    NotAtext(u32),
    /// The document root cannot be deleted.
    RootImmutable,
    /// The subtree XML handed to an insert failed to parse.
    Xml(xmark_xml::Error),
    /// Rank space between two base nodes is exhausted (needs more than
    /// `2^32` inserted nodes inside one base gap).
    RankSpaceExhausted,
    /// The commit's WAL force failed; nothing was published.
    Io(io::Error),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Conflict => write!(f, "snapshot conflict: a newer epoch was committed"),
            TxnError::NodeMissing(id) => write!(f, "node {id} does not exist in this snapshot"),
            TxnError::NotAnElement(id) => write!(f, "node {id} is not an element"),
            TxnError::NotAtext(id) => write!(f, "node {id} is not a text node"),
            TxnError::RootImmutable => write!(f, "the document root cannot be deleted"),
            TxnError::Xml(e) => write!(f, "insert subtree XML: {e}"),
            TxnError::RankSpaceExhausted => write!(f, "document-order rank space exhausted"),
            TxnError::Io(e) => write!(f, "commit WAL force failed: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// What a successful commit reports back.
#[derive(Debug, Clone, Copy)]
pub struct CommitInfo {
    /// The epoch the new snapshot was published at.
    pub epoch: u64,
    /// The transaction id (stamped on the WAL records for backend H).
    pub txn: u64,
}

/// One buffered structural operation.
pub(crate) enum Op {
    Insert {
        parent: u32,
        xml: String,
    },
    Delete {
        node: u32,
    },
    SetText {
        node: u32,
        text: String,
    },
    SetAttr {
        node: u32,
        name: String,
        value: String,
    },
}

/// The MVCC write head: wraps any backend, publishes immutable
/// [`SnapshotStore`] versions, and serializes writers (see the crate
/// docs for the protocol).
pub struct VersionedStore {
    base: Arc<dyn XmlStore>,
    current: Mutex<Arc<SnapshotStore>>,
    /// Serializes commits; the guarded value is the next transaction id.
    commit_lock: Mutex<u64>,
}

impl VersionedStore {
    /// Wrap `base` for versioned reads and writes. Builds the base
    /// element index up front (the clean gate needs its subtree-end
    /// array, snapshot descendant scans its postings) and carries every
    /// index the base has already built into the epoch-0 snapshot, whose
    /// manager starts its own build/hit counters. That manager also gets
    /// the `@id` index every snapshot shares: the base's own if it has
    /// built one, else one built over the base here — into the
    /// snapshot's manager, so the base's resident size does not grow.
    pub fn new(base: Arc<dyn XmlStore>) -> Arc<VersionedStore> {
        let index = base.indexes().element(base.as_ref());
        let floor = base.node_count().max(index.shared_subtree_end().len()) as u32;
        let delta = DeltaState::pristine(floor, Arc::new(index.clone()));
        let manager = IndexManager::new().seeded(
            index.clone(),
            base.indexes().built_ids(),
            base.indexes().built_values(),
        );
        manager.ids(base.as_ref());
        let snapshot = Arc::new(SnapshotStore::assemble(Arc::clone(&base), delta, manager));
        Arc::new(VersionedStore {
            base,
            current: Mutex::new(snapshot),
            commit_lock: Mutex::new(1),
        })
    }

    /// Pin the currently published snapshot. Never blocks on writers
    /// beyond the pointer swap itself.
    pub fn snapshot(&self) -> Arc<SnapshotStore> {
        Arc::clone(&lock(&self.current))
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The wrapped base store.
    pub fn base(&self) -> &Arc<dyn XmlStore> {
        &self.base
    }

    /// Begin a transaction against the current snapshot.
    pub fn begin(self: &Arc<Self>) -> Transaction {
        Transaction {
            store: Arc::clone(self),
            start_epoch: self.epoch(),
            ops: Vec::new(),
        }
    }

    /// Apply `ops` as one transaction on top of epoch `start_epoch`.
    /// `log` is false only during crash-recovery replay, which must not
    /// re-append the records it is replaying.
    pub(crate) fn commit_ops(
        &self,
        start_epoch: u64,
        ops: &[Op],
        log: bool,
    ) -> Result<CommitInfo, TxnError> {
        let mut next_txn = lock(&self.commit_lock);
        let cur = self.snapshot();
        if cur.epoch() != start_epoch {
            return Err(TxnError::Conflict);
        }
        let txn = *next_txn;
        let mut builder = DeltaBuilder::new(&cur, txn);
        for op in ops {
            builder.apply(op)?;
        }
        let DeltaBuilder {
            mut work, records, ..
        } = builder;
        work.delta_mut().epoch = cur.epoch() + 1;
        if log {
            if let Some(wal) = self.base.txn_wal() {
                wal.append(&LogRecord::TxnBegin { txn });
                for rec in &records {
                    wal.append(rec);
                }
                wal.append(&LogRecord::TxnCommit { txn });
                // Force-log-at-commit: durable before visible.
                wal.flush_all().map_err(TxnError::Io)?;
            }
        }
        *next_txn = txn + 1;
        let epoch = work.epoch();
        *lock(&self.current) = Arc::new(work);
        Ok(CommitInfo { epoch, txn })
    }
}

impl StoreSource for VersionedStore {
    fn snapshot(&self) -> Arc<dyn XmlStore> {
        VersionedStore::snapshot(self)
    }
}

/// A buffered read-write transaction. Operations are validated and
/// applied atomically at [`Transaction::commit`]; dropping the
/// transaction aborts it for free (no-steal — nothing was shared).
pub struct Transaction {
    store: Arc<VersionedStore>,
    start_epoch: u64,
    ops: Vec<Op>,
}

impl Transaction {
    /// Queue an insert of `xml` (one well-formed element) as the last
    /// child of `parent`.
    pub fn insert_subtree(&mut self, parent: Node, xml: &str) {
        self.ops.push(Op::Insert {
            parent: parent.0,
            xml: xml.to_string(),
        });
    }

    /// Queue deletion of the subtree rooted at `node`.
    pub fn delete_subtree(&mut self, node: Node) {
        self.ops.push(Op::Delete { node: node.0 });
    }

    /// Queue replacement of text node `node`'s content.
    pub fn replace_text(&mut self, node: Node, text: &str) {
        self.ops.push(Op::SetText {
            node: node.0,
            text: text.to_string(),
        });
    }

    /// Queue setting attribute `name` of element `node` to `value`
    /// (replacing the existing value, or adding the attribute).
    pub fn replace_attr(&mut self, node: Node, name: &str, value: &str) {
        self.ops.push(Op::SetAttr {
            node: node.0,
            name: name.to_string(),
            value: value.to_string(),
        });
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operation is buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validate and apply the buffered operations as one atomic commit,
    /// publishing the successor snapshot on success.
    pub fn commit(self) -> Result<CommitInfo, TxnError> {
        self.store.commit_ops(self.start_epoch, &self.ops, true)
    }
}

/// The writer-private state of one commit: a working snapshot over a
/// copy-on-write clone of the predecessor delta and the indexes carried
/// forward from the predecessor, plus the WAL records the commit
/// appends.
/// Every read of the in-progress state, the delete's undo image
/// included, goes through the working snapshot's [`XmlStore`] impl.
struct DeltaBuilder {
    work: SnapshotStore,
    txn: u64,
    records: Vec<LogRecord>,
}

impl DeltaBuilder {
    fn new(cur: &SnapshotStore, txn: u64) -> DeltaBuilder {
        DeltaBuilder {
            work: SnapshotStore::assemble(
                Arc::clone(cur.base()),
                cur.delta().clone(),
                maintain(cur),
            ),
            txn,
            records: Vec::new(),
        }
    }

    /// Record a modification point in the clean gate at `n`'s nearest
    /// base ancestor-or-self.
    fn touch_anchor(&mut self, n: Node) {
        let mut x = n;
        while self.work.delta().is_delta(x.0) {
            match self.work.parent(x) {
                Some(p) => x = p,
                None => break,
            }
        }
        self.work.delta_mut().touch(x.0, x.0);
    }

    /// Apply `edit` to `parent`'s child list in the working delta.
    fn edit_children(&mut self, parent: Node, edit: impl FnOnce(&mut Vec<u32>)) {
        if let Some(node) = self.work.delta_mut().inserted.get_mut(&parent.0) {
            return edit(&mut Arc::make_mut(node).children);
        }
        let mut kids: Vec<u32> = self.work.children_iter(parent).map(|c| c.0).collect();
        edit(&mut kids);
        self.work
            .delta_mut()
            .children_over
            .insert(parent.0, Arc::new(kids));
    }

    // ---- rank allocation --------------------------------------------

    fn last_rank_in_subtree(&self, n: Node) -> u64 {
        let mut x = n;
        while let Some(last) = self.work.children_iter(x).last() {
            x = last;
        }
        self.work.doc_order_key(x)
    }

    fn successor_rank(&self, n: Node) -> u64 {
        let mut x = n;
        while let Some(p) = self.work.parent(x) {
            let mut siblings = self.work.children_iter(p).skip_while(move |&c| c != x);
            siblings.next();
            if let Some(next) = siblings.next() {
                return self.work.doc_order_key(next);
            }
            x = p;
        }
        u64::MAX
    }

    /// Allocate `k` fresh document-order ranks for a subtree appended
    /// as the last child of `parent`, rebalancing the surrounding delta
    /// ranks when the tail gap is exhausted.
    fn alloc_ranks(&mut self, parent: Node, k: usize) -> Result<Vec<u64>, TxnError> {
        let lo = self.last_rank_in_subtree(parent);
        let hi = self.successor_rank(parent);
        let need = k as u64;
        if hi - lo > need {
            let step = ((hi - lo) / (need + 1)).clamp(1, 1 << 24);
            return Ok((1..=need).map(|i| lo + i * step).collect());
        }
        // Tail gap exhausted: re-spread every delta rank in the base
        // gap (relative order unchanged — only the spacing moves).
        let floor_rank = (lo >> 32) << 32;
        let delta = self.work.delta_mut();
        let mut movers: Vec<u32> = delta
            .inserted
            .iter()
            .filter(|(_, node)| node.rank > floor_rank && node.rank < hi)
            .map(|(&id, _)| id)
            .collect();
        movers.sort_by_key(|&id| delta.rank_of(id));
        let total = movers.len() as u64 + need;
        let step = (hi - floor_rank) / (total + 1);
        if step == 0 {
            return Err(TxnError::RankSpaceExhausted);
        }
        for (j, id) in movers.iter().enumerate() {
            if let Some(node) = delta.inserted.get_mut(id) {
                Arc::make_mut(node).rank = floor_rank + step * (j as u64 + 1);
            }
        }
        let first = movers.len() as u64 + 1;
        Ok((0..need).map(|i| floor_rank + step * (first + i)).collect())
    }

    // ---- operations --------------------------------------------------

    fn apply(&mut self, op: &Op) -> Result<(), TxnError> {
        match op {
            Op::Insert { parent, xml } => self.apply_insert(Node(*parent), xml),
            Op::Delete { node } => self.apply_delete(Node(*node)),
            Op::SetText { node, text } => self.apply_set_text(Node(*node), text),
            Op::SetAttr { node, name, value } => self.apply_set_attr(Node(*node), name, value),
        }
    }

    fn apply_insert(&mut self, parent: Node, xml: &str) -> Result<(), TxnError> {
        if !self.work.delta().exists(parent.0) {
            return Err(TxnError::NodeMissing(parent.0));
        }
        if self.work.is_text_node(parent) {
            return Err(TxnError::NotAnElement(parent.0));
        }
        let doc = parse_document(xml).map_err(TxnError::Xml)?;
        let doc_root = doc.try_root().ok_or(TxnError::NotAnElement(parent.0))?;

        // The parser numbers the fragment in pre-order from its root, so
        // a node's offset from the root is both its id offset and its
        // rank slot; ids are deterministic, which replay relies on.
        let order: Vec<_> = iter::once(doc_root)
            .chain(doc.descendants(doc_root))
            .collect();
        let ranks = self.alloc_ranks(parent, order.len())?;
        let first_id = self.work.delta().next_id;
        let id_of = |doc_node: xmark_xml::NodeId| first_id + (doc_node.0 - doc_root.0);

        for (&doc_node, rank) in order.iter().zip(ranks) {
            let id = id_of(doc_node);
            let node_parent = doc.parent(doc_node).map_or(parent.0, id_of);
            let children: Vec<u32> = doc.children(doc_node).map(id_of).collect();
            let node = if doc.is_element(doc_node) {
                let tag = doc.tag_name(doc_node);
                let attrs: Vec<(String, String)> = doc
                    .attributes(doc_node)
                    .iter()
                    .map(|(sym, value)| (doc.interner().resolve(*sym).to_string(), value.clone()))
                    .collect();
                InsertedNode {
                    tag: Some(tag.into()),
                    text: Box::default(),
                    attrs,
                    parent: node_parent,
                    children,
                    rank,
                }
            } else {
                InsertedNode {
                    tag: None,
                    text: doc.text(doc_node).unwrap_or_default().into(),
                    attrs: Vec::new(),
                    parent: node_parent,
                    children,
                    rank,
                }
            };
            self.work.delta_mut().inserted.insert(id, Arc::new(node));
        }
        self.work.delta_mut().next_id += order.len() as u32;

        // Hook the fragment root into the parent's child list.
        self.edit_children(parent, |kids| kids.push(first_id));

        self.touch_anchor(parent);
        self.records.push(LogRecord::TxnInsert {
            txn: self.txn,
            parent: parent.0,
            xml: xml.to_string(),
        });
        Ok(())
    }

    fn apply_delete(&mut self, node: Node) -> Result<(), TxnError> {
        if !self.work.delta().exists(node.0) {
            return Err(TxnError::NodeMissing(node.0));
        }
        let Some(parent) = self.work.parent(node) else {
            return Err(TxnError::RootImmutable);
        };

        let mut undo_xml = String::new();
        self.work
            .serialize_node_to(node, &mut undo_xml)
            .expect("a String sink never fails");

        // Collect the whole subtree through the overlay.
        let mut doomed = vec![node];
        let mut i = 0;
        while i < doomed.len() {
            doomed.extend(self.work.children_iter(doomed[i]));
            i += 1;
        }

        // Unhook from the parent, then tombstone / drop each node.
        self.edit_children(parent, |kids| kids.retain(|&c| c != node.0));
        let delta = self.work.delta_mut();
        for &Node(id) in &doomed {
            if delta.is_delta(id) {
                delta.inserted.remove(&id);
            } else {
                delta.deleted_base.insert(id);
                delta.text_over.remove(&id);
                delta.attr_over.remove(&id);
                delta.children_over.remove(&id);
            }
        }

        // Gate: the deleted base range plus the (possibly delta) parent
        // whose child list changed.
        if !delta.is_delta(node.0) {
            let end = delta.base_subtree_end(node.0);
            delta.touch(node.0, end);
        }
        self.touch_anchor(parent);

        self.records.push(LogRecord::TxnDelete {
            txn: self.txn,
            node: node.0,
            undo_xml,
        });
        Ok(())
    }

    fn apply_set_text(&mut self, node: Node, text: &str) -> Result<(), TxnError> {
        if !self.work.delta().exists(node.0) {
            return Err(TxnError::NodeMissing(node.0));
        }
        if !self.work.is_text_node(node) {
            return Err(TxnError::NotAtext(node.0));
        }
        let old = self
            .work
            .text(node)
            .map(Cow::into_owned)
            .unwrap_or_default();
        let delta = self.work.delta_mut();
        match delta.inserted.get_mut(&node.0) {
            Some(inserted) => Arc::make_mut(inserted).text = text.into(),
            None => {
                delta.text_over.insert(node.0, Arc::from(text));
            }
        }
        self.touch_anchor(node);
        self.records.push(LogRecord::TxnSetText {
            txn: self.txn,
            node: node.0,
            old,
            new: text.to_string(),
        });
        Ok(())
    }

    fn apply_set_attr(&mut self, node: Node, name: &str, value: &str) -> Result<(), TxnError> {
        if !self.work.delta().exists(node.0) {
            return Err(TxnError::NodeMissing(node.0));
        }
        if self.work.tag_of(node).is_none() {
            return Err(TxnError::NotAnElement(node.0));
        }
        let mut attrs: Vec<(String, String)> = self
            .work
            .attributes_iter(node)
            .map(|(k, v)| (k.to_string(), v.into_owned()))
            .collect();
        let old = attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone());
        match attrs.iter_mut().find(|(k, _)| k == name) {
            Some(slot) => slot.1 = value.to_string(),
            None => attrs.push((name.to_string(), value.to_string())),
        }
        let delta = self.work.delta_mut();
        match delta.inserted.get_mut(&node.0) {
            Some(inserted) => Arc::make_mut(inserted).attrs = attrs,
            None => {
                delta.attr_over.insert(node.0, Arc::new(attrs));
            }
        }
        self.touch_anchor(node);
        self.records.push(LogRecord::TxnSetAttr {
            txn: self.txn,
            node: node.0,
            name: name.to_string(),
            old,
            new: value.to_string(),
        });
        Ok(())
    }
}

/// Used by crash recovery to re-apply logged operations without
/// re-logging them.
pub(crate) fn replay_ops(
    store: &Arc<VersionedStore>,
    records: &[LogRecord],
) -> Result<CommitInfo, TxnError> {
    let ops: Vec<Op> = records
        .iter()
        .filter_map(|rec| match rec {
            LogRecord::TxnInsert { parent, xml, .. } => Some(Op::Insert {
                parent: *parent,
                xml: xml.clone(),
            }),
            LogRecord::TxnDelete { node, .. } => Some(Op::Delete { node: *node }),
            LogRecord::TxnSetText { node, new, .. } => Some(Op::SetText {
                node: *node,
                text: new.clone(),
            }),
            LogRecord::TxnSetAttr {
                node, name, new, ..
            } => Some(Op::SetAttr {
                node: *node,
                name: name.clone(),
                value: new.clone(),
            }),
            _ => None,
        })
        .collect();
    store.commit_ops(store.epoch(), &ops, false)
}
