//! [`SnapshotStore`] — one immutable published version: a base store
//! plus a [`DeltaState`] overlay, implementing the full
//! [`XmlStore`] contract.
//!
//! The overlay resolves node-level reads (tag, text, parent, children,
//! attributes) by consulting the delta maps first and delegating to the
//! base otherwise. Descendant scans and counts under a base node stab
//! the base's element index, clean subtree or dirty: the base postings
//! under the node, minus deleted base ids, merged by rank with the
//! snapshot's live inserted elements of that tag whose nearest base
//! ancestor lies in the node's base subtree. Only an inserted context
//! node walks its (small) subtree through the overlay's cursors. The
//! other subtree-granular *fast paths* (inlined typed values,
//! positional probes, carried child-value maps) delegate to the base, or
//! trust the map, only when the delta's
//! touched-interval gate proves the whole subtree unmodified; in dirty
//! regions they answer `None`, which the query layer's established
//! outer-`None` contract turns into a generic fallback. Serialization
//! and string values follow the same gate: a clean subtree goes to the
//! base whole (backend H's one-pin-per-page-run reader), and a dirty
//! one recurses node by node through the overlay's cursors with the
//! trait's default bodies, which is exactly what keeps cross-backend
//! byte-identity intact under updates.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use xmark_store::paged::{LogManager, PoolStats};
use xmark_store::{
    descendants_by_cursors, serialize_by_cursors, string_value_by_cursors, AttrIter, ChildIter,
    ChildValues, ChildrenNamed, DescendantsNamed, IndexManager, Node, PlannerCaps, PositionSpec,
    StepEstimate, SystemId, XmlStore,
};

use crate::delta::{base_rank, DeltaState, InsertedPosting};

/// One immutable published version of a [`crate::VersionedStore`]:
/// `(base, delta)` behind the standard read contract. Readers pin a
/// snapshot with an `Arc` and can never observe a concurrent commit.
pub struct SnapshotStore {
    base: Arc<dyn XmlStore>,
    delta: DeltaState,
    indexes: IndexManager,
    /// [`DeltaState::inserted_postings`], built on the first descendant
    /// scan that needs it.
    inserted_postings: OnceLock<HashMap<Box<str>, Vec<InsertedPosting>>>,
    /// [`DeltaState::id_holders`], built on the first `@id` lookup.
    id_holders: OnceLock<HashMap<String, (u64, u32)>>,
}

impl SnapshotStore {
    pub(crate) fn assemble(
        base: Arc<dyn XmlStore>,
        delta: DeltaState,
        indexes: IndexManager,
    ) -> SnapshotStore {
        SnapshotStore {
            base,
            delta,
            indexes,
            inserted_postings: OnceLock::new(),
            id_holders: OnceLock::new(),
        }
    }

    pub(crate) fn delta(&self) -> &DeltaState {
        &self.delta
    }

    /// The delta of a commit's working snapshot, which the commit edits
    /// in place before publishing it. A published snapshot is never
    /// edited. Drops the per-snapshot maps an earlier read built.
    pub(crate) fn delta_mut(&mut self) -> &mut DeltaState {
        self.inserted_postings.take();
        self.id_holders.take();
        &mut self.delta
    }

    pub(crate) fn base(&self) -> &Arc<dyn XmlStore> {
        &self.base
    }

    /// The commit epoch this snapshot was published at (0 = pristine).
    pub fn epoch(&self) -> u64 {
        self.delta.epoch
    }

    /// The descendants of `n` named `tag`, as the base index's postings
    /// under `n` (deleted ids not yet dropped) and the rank-sorted run
    /// of live inserted elements under `n`; `None` for an inserted
    /// `n`, or a base index that cannot stab. The inserted elements
    /// ranked after `n` open with `n`'s own and then leave its subtree
    /// for good, so the run ends at the first anchor outside it — a rank
    /// range alone would also take `n`'s inserted next siblings.
    fn stab(&self, n: Node, tag: &str) -> Option<(&[u32], &[InsertedPosting])> {
        if self.delta.is_delta(n.0) {
            return None;
        }
        let base = self.delta.base_index.postings_in(tag, n)?;
        let end = self.delta.base_subtree_end(n.0);
        let inserted = self
            .inserted_postings
            .get_or_init(|| self.delta.inserted_postings());
        let list = inserted.get(tag).map_or(&[][..], Vec::as_slice);
        let from = list.partition_point(|p| p.rank < base_rank(n.0));
        let run = list[from..]
            .iter()
            .take_while(|p| (n.0..=end).contains(&p.anchor))
            .count();
        Some((base, &list[from..from + run]))
    }

    /// Whether base ids in `n`'s subtree may have been deleted.
    fn deletes_under(&self, n: Node) -> bool {
        !self.delta.deleted_base.is_empty()
            && !self
                .delta
                .base_range_clean(n.0, self.delta.base_subtree_end(n.0))
    }
}

// lint: allow(R6) Send+Sync is const-asserted in crates/txn/src/lib.rs;
// the store crate's roster cannot name this type without a cycle.
impl XmlStore for SnapshotStore {
    fn system(&self) -> SystemId {
        self.base.system()
    }

    fn root(&self) -> Node {
        self.base.root()
    }

    fn node_count(&self) -> usize {
        self.base.node_count() - self.delta.deleted_base.len() + self.delta.inserted.len()
    }

    /// The base's resident bytes plus the delta's. Leaves out this
    /// snapshot's own [`IndexManager`] — its `cvals|` maps, Lookup
    /// sides, path memos, and the `@id` index built into epoch 0 — so
    /// it undercounts the trait's "whatever the shared IndexManager has
    /// built"; counting it would move every versioned store's reported
    /// size.
    fn size_bytes(&self) -> usize {
        self.base.size_bytes() + self.delta.size_bytes()
    }

    fn disk_bytes(&self) -> usize {
        self.base.disk_bytes()
    }

    fn paged_stats(&self) -> Option<PoolStats> {
        self.base.paged_stats()
    }

    fn content_epoch(&self) -> u64 {
        self.delta.epoch
    }

    /// The first element in document order whose `id` is `id`:
    /// whichever ranks first of the base holder that the shared base
    /// `@id` index names (probed through this snapshot's manager, so the
    /// hit counts on this epoch), kept only while it is live and its
    /// `id` unchanged, and the lowest-ranked live delta holder. Exact
    /// when base `id` values are unique, as XMark's DTD declares them
    /// (`ID #REQUIRED`): with duplicates, a later base holder of a value
    /// whose first holder went is not found.
    fn lookup_id(&self, id: &str) -> Option<Node> {
        let base = self
            .indexes
            .ids(self.base.as_ref())
            .get(id)
            .filter(|b| {
                !self.delta.deleted_base.contains(&b.0)
                    && self
                        .delta
                        .attr_over
                        .get(&b.0)
                        .is_none_or(|attrs| attrs.iter().any(|(k, v)| k == "id" && v == id))
            })
            .map(|b| (base_rank(b.0), b.0));
        let delta = self
            .id_holders
            .get_or_init(|| self.delta.id_holders())
            .get(id)
            .copied();
        base.into_iter().chain(delta).min().map(|(_, n)| Node(n))
    }

    fn doc_order_key(&self, n: Node) -> u64 {
        self.delta.rank_of(n.0)
    }

    fn txn_wal(&self) -> Option<&LogManager> {
        self.base.txn_wal()
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        match self.delta.inserted.get(&n.0) {
            Some(node) => node.tag.as_deref(),
            None => self.base.tag_of(n),
        }
    }

    fn parent(&self, n: Node) -> Option<Node> {
        match self.delta.inserted.get(&n.0) {
            Some(node) => Some(Node(node.parent)),
            None => self.base.parent(n),
        }
    }

    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        if let Some(node) = self.delta.inserted.get(&n.0) {
            return node.tag.is_none().then_some(Cow::Borrowed(&*node.text));
        }
        if let Some(replaced) = self.delta.text_over.get(&n.0) {
            return Some(Cow::Borrowed(replaced));
        }
        self.base.text(n)
    }

    fn is_text_node(&self, n: Node) -> bool {
        match self.delta.inserted.get(&n.0) {
            Some(node) => node.tag.is_none(),
            None => self.base.is_text_node(n),
        }
    }

    fn attribute(&self, n: Node, name: &str) -> Option<Cow<'_, str>> {
        let own = self
            .delta
            .inserted
            .get(&n.0)
            .map(|node| node.attrs.as_slice())
            .or_else(|| self.delta.attr_over.get(&n.0).map(|list| list.as_slice()));
        if let Some(attrs) = own {
            return attrs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| Cow::Borrowed(v.as_str()));
        }
        self.base.attribute(n, name)
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        if let Some(node) = self.delta.inserted.get(&n.0) {
            return ChildIter::from_vec(node.children.iter().map(|&c| Node(c)).collect());
        }
        if let Some(list) = self.delta.children_over.get(&n.0) {
            return ChildIter::from_vec(list.iter().map(|&c| Node(c)).collect());
        }
        self.base.children_iter(n)
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        if let Some(node) = self.delta.inserted.get(&n.0) {
            return AttrIter::Pairs(node.attrs.iter());
        }
        if let Some(list) = self.delta.attr_over.get(&n.0) {
            return AttrIter::Pairs(list.iter());
        }
        self.base.attributes_iter(n)
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        if !self.delta.is_delta(n.0) && !self.delta.children_over.contains_key(&n.0) {
            return self.base.children_named_iter(n, tag);
        }
        ChildrenNamed::from_vec(
            self.children_iter(n)
                .filter(|&c| self.tag_of(c) == Some(tag))
                .collect(),
        )
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        let Some((base, inserted)) = self.stab(n, tag) else {
            return descendants_by_cursors(self, n, tag);
        };
        let deletes = self.deletes_under(n);
        if inserted.is_empty() && !deletes {
            return DescendantsNamed::Extent(base.iter());
        }
        let mut out = Vec::with_capacity(base.len() + inserted.len());
        let mut inserted = inserted.iter().peekable();
        for &id in base {
            if deletes && self.delta.deleted_base.contains(&id) {
                continue;
            }
            while let Some(p) = inserted.next_if(|p| p.rank < base_rank(id)) {
                out.push(Node(p.id));
            }
            out.push(Node(id));
        }
        out.extend(inserted.map(|p| Node(p.id)));
        DescendantsNamed::from_vec(out)
    }

    fn typed_child_value(&self, n: Node, tag: &str) -> Option<Option<String>> {
        if self.delta.subtree_clean(n) {
            return self.base.typed_child_value(n, tag);
        }
        // Dirty region: report "not inlined" so the evaluator computes
        // the value generically through the overlay cursors.
        None
    }

    /// A carried child-value map may predate this epoch: its entry for
    /// `n` is exact only while `n`'s subtree is clean.
    fn indexed_child_values<'v>(&self, values: &'v ChildValues, n: Node) -> Option<&'v [u32]> {
        self.delta.subtree_clean(n).then(|| values.get(n))
    }

    fn positional_child(&self, n: Node, tag: &str, pos: PositionSpec) -> Option<Option<Node>> {
        if self.delta.subtree_clean(n) {
            return self.base.positional_child(n, tag, pos);
        }
        None
    }

    fn count_descendants_named(&self, n: Node, tag: &str) -> usize {
        let Some((base, inserted)) = self.stab(n, tag) else {
            return descendants_by_cursors(self, n, tag).count();
        };
        let mut deleted = 0;
        if self.deletes_under(n) {
            deleted = base
                .iter()
                .filter(|id| self.delta.deleted_base.contains(id))
                .count();
        }
        base.len() - deleted + inserted.len()
    }

    fn string_value_into(&self, n: Node, out: &mut String) {
        if self.delta.subtree_clean(n) {
            return self.base.string_value_into(n, out);
        }
        string_value_by_cursors(self, n, out);
    }

    fn serialize_node_to(&self, n: Node, out: &mut dyn fmt::Write) -> fmt::Result {
        if self.delta.subtree_clean(n) {
            return self.base.serialize_node_to(n, out);
        }
        serialize_by_cursors(self, n, out)
    }

    fn planner_caps(&self) -> PlannerCaps {
        self.base.planner_caps()
    }

    fn estimate_step(&self, tag: &str) -> StepEstimate {
        // Catalog statistics describe the bulkloaded document; after a
        // commit they are estimates, not exact counts.
        self.base.estimate_step(tag)
    }
}
