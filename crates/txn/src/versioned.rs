//! [`VersionedStore`] — the MVCC write head over a base store — and
//! [`Transaction`], the buffered structural-update API.
//!
//! Writers never mutate published state: a commit clones the current
//! delta (cheap — per-entry payloads are `Arc`-shared), applies the
//! transaction's operations to the private copy, derives the successor
//! snapshot's indexes incrementally, makes the commit durable through
//! the base's WAL when it has one, and only then swaps the published
//! snapshot pointer. Readers pin whatever snapshot was current when
//! they arrived and are never blocked or torn.

use std::borrow::Cow;
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex};

use xmark_store::paged::LogRecord;
use xmark_store::sync::lock;
use xmark_store::{Node, StoreSource, XmlStore};
use xmark_xml::parse_document;

use crate::delta::{DeltaState, InsertedNode};
use crate::indexes::{maintain, Changes, DeletedElem, InsertedElem};
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

/// A WAL record minus its transaction id (stamped at commit).
enum PendingRecord {
    Insert {
        parent: u32,
        xml: String,
    },
    Delete {
        node: u32,
        undo_xml: String,
    },
    SetText {
        node: u32,
        old: String,
        new: String,
    },
    SetAttr {
        node: u32,
        name: String,
        old: Option<String>,
        new: String,
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
    /// element index up front (the rank and clean-gate math need the
    /// subtree-end array) and carries every index the base has already
    /// built into the epoch-0 snapshot.
    pub fn new(base: Arc<dyn XmlStore>) -> Arc<VersionedStore> {
        let element = {
            let index = base.indexes().element(base.as_ref());
            xmark_store::ElementIndex::from_parts(
                index.shared_postings().clone(),
                index.shared_subtree_end().clone(),
                index.ordered(),
                index.elements(),
            )
        };
        let base_end = Arc::clone(element.shared_subtree_end());
        let floor = base.node_count().max(base_end.len()) as u32;
        let delta = DeltaState::pristine(floor, base_end);
        let manager = xmark_store::IndexManager::seeded(
            Some(element),
            base.indexes().built_attrs(),
            base.indexes().built_values(),
        );
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
        let mut builder = DeltaBuilder::new(&cur);
        for op in ops {
            builder.apply(op)?;
        }
        let DeltaBuilder {
            mut delta,
            changes,
            records,
            ..
        } = builder;
        delta.epoch = cur.epoch() + 1;
        let manager = maintain(&cur, &delta, &changes);
        let txn = *next_txn;
        if log {
            if let Some(wal) = self.base.txn_wal() {
                wal.append(&LogRecord::TxnBegin { txn });
                for rec in records {
                    wal.append(&match rec {
                        PendingRecord::Insert { parent, xml } => {
                            LogRecord::TxnInsert { txn, parent, xml }
                        }
                        PendingRecord::Delete { node, undo_xml } => LogRecord::TxnDelete {
                            txn,
                            node,
                            undo_xml,
                        },
                        PendingRecord::SetText { node, old, new } => LogRecord::TxnSetText {
                            txn,
                            node,
                            old,
                            new,
                        },
                        PendingRecord::SetAttr {
                            node,
                            name,
                            old,
                            new,
                        } => LogRecord::TxnSetAttr {
                            txn,
                            node,
                            name,
                            old,
                            new,
                        },
                    });
                }
                wal.append(&LogRecord::TxnCommit { txn });
                // Force-log-at-commit: durable before visible.
                wal.flush_all().map_err(TxnError::Io)?;
            }
        }
        *next_txn = txn + 1;
        let epoch = delta.epoch;
        let snapshot = Arc::new(SnapshotStore::assemble(
            Arc::clone(&self.base),
            delta,
            manager,
        ));
        *lock(&self.current) = snapshot;
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

/// The writer-private working state of one commit: a copy-on-write
/// clone of the predecessor delta plus the change journal the index
/// maintenance and WAL passes consume.
struct DeltaBuilder<'a> {
    base: &'a Arc<dyn XmlStore>,
    delta: DeltaState,
    changes: Changes,
    records: Vec<PendingRecord>,
}

impl<'a> DeltaBuilder<'a> {
    fn new(cur: &'a SnapshotStore) -> DeltaBuilder<'a> {
        DeltaBuilder {
            base: cur.base(),
            delta: cur.delta().clone(),
            changes: Changes::default(),
            records: Vec::new(),
        }
    }

    // ---- overlay reads against the in-progress state -----------------

    fn exists(&self, id: u32) -> bool {
        if self.delta.is_delta(id) {
            self.delta.inserted.contains_key(&id)
        } else {
            (id as usize) < self.delta.floor as usize && !self.delta.deleted_base.contains(&id)
        }
    }

    fn tag_of(&self, id: u32) -> Option<String> {
        match self.delta.inserted.get(&id) {
            Some(node) => node.tag.as_deref().map(str::to_string),
            None => self.base.tag_of(Node(id)).map(str::to_string),
        }
    }

    fn text_of(&self, id: u32) -> Option<String> {
        if let Some(node) = self.delta.inserted.get(&id) {
            return node.tag.is_none().then(|| node.text.to_string());
        }
        if let Some(replaced) = self.delta.text_over.get(&id) {
            return Some(replaced.to_string());
        }
        self.base.text(Node(id)).map(Cow::into_owned)
    }

    fn is_text(&self, id: u32) -> bool {
        match self.delta.inserted.get(&id) {
            Some(node) => node.tag.is_none(),
            None => self.base.is_text_node(Node(id)),
        }
    }

    fn attrs_of(&self, id: u32) -> Vec<(String, String)> {
        if let Some(node) = self.delta.inserted.get(&id) {
            return node.attrs.clone();
        }
        if let Some(list) = self.delta.attr_over.get(&id) {
            return list.as_ref().clone();
        }
        self.base
            .attributes_iter(Node(id))
            .map(|(k, v)| (k.to_string(), v.into_owned()))
            .collect()
    }

    fn children_of(&self, id: u32) -> Vec<u32> {
        if let Some(node) = self.delta.inserted.get(&id) {
            return node.children.clone();
        }
        if let Some(list) = self.delta.children_over.get(&id) {
            return list.as_ref().clone();
        }
        self.base.children_iter(Node(id)).map(|n| n.0).collect()
    }

    fn parent_of(&self, id: u32) -> Option<u32> {
        match self.delta.inserted.get(&id) {
            Some(node) => Some(node.parent),
            None => self.base.parent(Node(id)).map(|n| n.0),
        }
    }

    /// The nearest base ancestor-or-self of `id` — the modification
    /// anchor the clean gate records.
    fn base_anchor(&self, id: u32) -> u32 {
        let mut x = id;
        while self.delta.is_delta(x) {
            match self.parent_of(x) {
                Some(p) => x = p,
                None => break,
            }
        }
        x
    }

    /// Record the element tags on the path from `id` (inclusive) to the
    /// root — paths and join keys mentioning any of them may observe
    /// the change.
    fn touch_ancestor_tags(&mut self, id: u32) {
        let mut x = Some(id);
        while let Some(node) = x {
            if let Some(tag) = self.tag_of(node) {
                self.changes.touched_tags.insert(tag);
            }
            x = self.parent_of(node);
        }
    }

    // ---- rank allocation --------------------------------------------

    fn last_rank_in_subtree(&self, id: u32) -> u64 {
        let mut x = id;
        loop {
            match self.children_of(x).last() {
                Some(&c) => x = c,
                None => return self.delta.rank_of(x),
            }
        }
    }

    fn successor_rank(&self, id: u32) -> u64 {
        let mut x = id;
        loop {
            let Some(p) = self.parent_of(x) else {
                return u64::MAX;
            };
            let kids = self.children_of(p);
            if let Some(pos) = kids.iter().position(|&c| c == x) {
                if pos + 1 < kids.len() {
                    return self.delta.rank_of(kids[pos + 1]);
                }
            }
            x = p;
        }
    }

    /// Allocate `k` fresh document-order ranks for a subtree appended
    /// as the last child of `parent`, rebalancing the surrounding delta
    /// ranks when the tail gap is exhausted.
    fn alloc_ranks(&mut self, parent: u32, k: usize) -> Result<Vec<u64>, TxnError> {
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
        let mut movers: Vec<u32> = self
            .delta
            .inserted
            .iter()
            .filter(|(_, node)| node.rank > floor_rank && node.rank < hi)
            .map(|(&id, _)| id)
            .collect();
        movers.sort_by_key(|&id| self.delta.rank_of(id));
        let total = movers.len() as u64 + need;
        let step = (hi - floor_rank) / (total + 1);
        if step == 0 {
            return Err(TxnError::RankSpaceExhausted);
        }
        for (j, id) in movers.iter().enumerate() {
            if let Some(node) = self.delta.inserted.get_mut(id) {
                Arc::make_mut(node).rank = floor_rank + step * (j as u64 + 1);
            }
        }
        let first = movers.len() as u64 + 1;
        Ok((0..need).map(|i| floor_rank + step * (first + i)).collect())
    }

    // ---- operations --------------------------------------------------

    fn apply(&mut self, op: &Op) -> Result<(), TxnError> {
        match op {
            Op::Insert { parent, xml } => self.apply_insert(*parent, xml),
            Op::Delete { node } => self.apply_delete(*node),
            Op::SetText { node, text } => self.apply_set_text(*node, text),
            Op::SetAttr { node, name, value } => self.apply_set_attr(*node, name, value),
        }
    }

    fn apply_insert(&mut self, parent: u32, xml: &str) -> Result<(), TxnError> {
        if !self.exists(parent) {
            return Err(TxnError::NodeMissing(parent));
        }
        if self.is_text(parent) {
            return Err(TxnError::NotAnElement(parent));
        }
        let doc = parse_document(xml).map_err(TxnError::Xml)?;
        let doc_root = doc.try_root().ok_or(TxnError::NotAnElement(parent))?;

        // Pre-order listing of the fragment's nodes.
        let mut order = vec![doc_root];
        let mut i = 0;
        while i < order.len() {
            order.extend(doc.children(order[i]));
            i += 1;
        }
        let k = order.len();
        let ranks = self.alloc_ranks(parent, k)?;

        // Deterministic id assignment (replay reproduces these).
        let first_id = self.delta.next_id;
        self.delta.next_id += k as u32;
        let id_of = |doc_node: xmark_xml::NodeId| -> u32 {
            // Pre-order position, resolved by scan: fragments are small.
            first_id + order.iter().position(|&d| d == doc_node).unwrap_or(0) as u32
        };

        for (pos, &doc_node) in order.iter().enumerate() {
            let id = first_id + pos as u32;
            let node_parent = match doc.parent(doc_node) {
                Some(p) => id_of(p),
                None => parent,
            };
            let (tag, text, attrs) = if doc.is_element(doc_node) {
                let attrs: Vec<(String, String)> = doc
                    .attributes(doc_node)
                    .iter()
                    .map(|(sym, value)| (doc.interner().resolve(*sym).to_string(), value.clone()))
                    .collect();
                (
                    Some(doc.tag_name(doc_node).to_string().into_boxed_str()),
                    String::new().into_boxed_str(),
                    attrs,
                )
            } else {
                (
                    None,
                    doc.text(doc_node)
                        .unwrap_or_default()
                        .to_string()
                        .into_boxed_str(),
                    Vec::new(),
                )
            };
            let children: Vec<u32> = doc.children(doc_node).map(id_of).collect();
            self.delta.inserted.insert(
                id,
                Arc::new(InsertedNode {
                    tag,
                    text,
                    attrs,
                    parent: node_parent,
                    children,
                    rank: ranks[pos],
                }),
            );
        }

        // Hook the fragment root into the parent's child list.
        let root_id = first_id;
        if let Some(node) = self.delta.inserted.get_mut(&parent) {
            Arc::make_mut(node).children.push(root_id);
        } else {
            let mut kids = self.children_of(parent);
            kids.push(root_id);
            self.delta.children_over.insert(parent, Arc::new(kids));
        }

        // Gate + change journal.
        let anchor = self.base_anchor(parent);
        self.delta.touch(anchor, anchor);
        self.touch_ancestor_tags(parent);
        for (pos, _) in order.iter().enumerate() {
            let id = first_id + pos as u32;
            let Some(node) = self.delta.inserted.get(&id).cloned() else {
                continue;
            };
            let Some(tag) = node.tag.as_deref() else {
                continue;
            };
            self.changes.touched_tags.insert(tag.to_string());
            for (name, _) in &node.attrs {
                self.changes.touched_tags.insert(name.clone());
            }
            let text_children = node
                .children
                .iter()
                .copied()
                .filter(|&c| self.is_text(c))
                .collect();
            self.changes.inserted_elems.push(InsertedElem {
                id,
                tag: tag.to_string(),
                parent: node.parent,
                attrs: node.attrs.clone(),
                text_children,
            });
        }
        self.changes.had_insert = true;
        self.records.push(PendingRecord::Insert {
            parent,
            xml: xml.to_string(),
        });
        Ok(())
    }

    fn apply_delete(&mut self, node: u32) -> Result<(), TxnError> {
        if !self.exists(node) {
            return Err(TxnError::NodeMissing(node));
        }
        let Some(parent) = self.parent_of(node) else {
            return Err(TxnError::RootImmutable);
        };

        let mut undo_xml = String::new();
        self.serialize_subtree(node, &mut undo_xml);

        // Collect the whole subtree (pre-order) through the overlay.
        let mut order = vec![node];
        let mut i = 0;
        while i < order.len() {
            order.extend(self.children_of(order[i]));
            i += 1;
        }

        self.touch_ancestor_tags(parent);
        for &id in &order {
            if let Some(tag) = self.tag_of(id) {
                self.changes.touched_tags.insert(tag.clone());
                let attrs = self.attrs_of(id);
                for (name, _) in &attrs {
                    self.changes.touched_tags.insert(name.clone());
                }
                self.changes.deleted_elems.push(DeletedElem {
                    id,
                    tag,
                    parent: self.parent_of(id).unwrap_or(parent),
                    attrs,
                });
            } else {
                let text_parent = self.parent_of(id).unwrap_or(parent);
                self.changes.deleted_texts.push((id, text_parent));
            }
            self.changes.deleted_ids.insert(id);
        }

        // Unhook from the parent, then tombstone / drop each node.
        if let Some(pnode) = self.delta.inserted.get_mut(&parent) {
            Arc::make_mut(pnode).children.retain(|&c| c != node);
        } else {
            let kids: Vec<u32> = self
                .children_of(parent)
                .into_iter()
                .filter(|&c| c != node)
                .collect();
            self.delta.children_over.insert(parent, Arc::new(kids));
        }
        for &id in &order {
            if self.delta.is_delta(id) {
                self.delta.inserted.remove(&id);
            } else {
                self.delta.deleted_base.insert(id);
                self.delta.text_over.remove(&id);
                self.delta.attr_over.remove(&id);
                self.delta.children_over.remove(&id);
            }
        }

        // Gate: the deleted base range plus the (possibly delta) parent
        // whose child list changed.
        if !self.delta.is_delta(node) {
            let end = self.delta.base_subtree_end(node);
            self.delta.touch(node, end);
        }
        let anchor = self.base_anchor(parent);
        self.delta.touch(anchor, anchor);

        self.records.push(PendingRecord::Delete { node, undo_xml });
        Ok(())
    }

    fn apply_set_text(&mut self, node: u32, text: &str) -> Result<(), TxnError> {
        if !self.exists(node) {
            return Err(TxnError::NodeMissing(node));
        }
        if !self.is_text(node) {
            return Err(TxnError::NotAtext(node));
        }
        let old = self.text_of(node).unwrap_or_default();
        if let Some(inserted) = self.delta.inserted.get_mut(&node) {
            Arc::make_mut(inserted).text = text.to_string().into_boxed_str();
        } else {
            self.delta.text_over.insert(node, Arc::from(text));
        }
        let anchor = self.base_anchor(node);
        self.delta.touch(anchor, anchor);
        self.touch_ancestor_tags(node);
        self.records.push(PendingRecord::SetText {
            node,
            old,
            new: text.to_string(),
        });
        Ok(())
    }

    fn apply_set_attr(&mut self, node: u32, name: &str, value: &str) -> Result<(), TxnError> {
        if !self.exists(node) {
            return Err(TxnError::NodeMissing(node));
        }
        if self.tag_of(node).is_none() {
            return Err(TxnError::NotAnElement(node));
        }
        let mut attrs = self.attrs_of(node);
        let old = attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone());
        match attrs.iter_mut().find(|(k, _)| k == name) {
            Some(slot) => slot.1 = value.to_string(),
            None => attrs.push((name.to_string(), value.to_string())),
        }
        if let Some(inserted) = self.delta.inserted.get_mut(&node) {
            Arc::make_mut(inserted).attrs = attrs;
        } else {
            self.delta.attr_over.insert(node, Arc::new(attrs));
        }
        let anchor = self.base_anchor(node);
        self.delta.touch(anchor, anchor);
        self.touch_ancestor_tags(node);
        self.changes.touched_tags.insert(name.to_string());
        self.changes
            .attr_sets
            .push((node, name.to_string(), old.clone(), value.to_string()));
        self.records.push(PendingRecord::SetAttr {
            node,
            name: name.to_string(),
            old,
            new: value.to_string(),
        });
        Ok(())
    }

    /// Serialize the subtree at `id` through the overlay — the undo
    /// image logged with a delete.
    fn serialize_subtree(&self, id: u32, out: &mut String) {
        if let Some(text) = self.text_of(id) {
            if self.is_text(id) {
                xmark_xml::escape::escape_text_into(&text, out);
                return;
            }
        }
        let Some(tag) = self.tag_of(id) else {
            return;
        };
        out.push('<');
        out.push_str(&tag);
        for (name, value) in self.attrs_of(id) {
            out.push(' ');
            out.push_str(&name);
            out.push_str("=\"");
            xmark_xml::escape::escape_attr_into(&value, out);
            out.push('"');
        }
        let kids = self.children_of(id);
        if kids.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for child in kids {
            self.serialize_subtree(child, out);
        }
        out.push_str("</");
        out.push_str(&tag);
        out.push('>');
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
