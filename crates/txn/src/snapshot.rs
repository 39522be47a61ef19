//! [`SnapshotStore`] — one immutable published version: a base store
//! plus a [`DeltaState`] overlay, implementing the full
//! [`XmlStore`] contract.
//!
//! The overlay resolves node-level reads (tag, text, parent, children,
//! attributes) by consulting the delta maps first and delegating to the
//! base otherwise. Subtree-granular *fast paths* (descendant scans,
//! inlined typed values, positional probes) delegate to the base only
//! when the delta's touched-interval gate proves the whole subtree
//! unmodified; in dirty regions they either walk the overlay generically
//! or answer `None`, which the query layer's established outer-`None`
//! contract turns into a generic fallback. Serialization and string
//! values follow the same gate: a clean subtree goes to the base whole
//! (backend H's one-pin-per-page-run reader), and a dirty one recurses
//! node by node through the overlay's cursors with the trait's default
//! bodies, which is exactly what keeps cross-backend byte-identity
//! intact under updates.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use xmark_store::paged::{LogManager, PoolStats};
use xmark_store::{
    serialize_by_cursors, string_value_by_cursors, AttrIter, ChildIter, ChildrenNamed,
    DescendantsNamed, IndexManager, Node, PlannerCaps, PositionSpec, StepEstimate, SystemId,
    XmlStore,
};

use crate::delta::DeltaState;

/// One immutable published version of a [`crate::VersionedStore`]:
/// `(base, delta)` behind the standard read contract. Readers pin a
/// snapshot with an `Arc` and can never observe a concurrent commit.
pub struct SnapshotStore {
    base: Arc<dyn XmlStore>,
    delta: DeltaState,
    indexes: IndexManager,
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
        }
    }

    pub(crate) fn delta(&self) -> &DeltaState {
        &self.delta
    }

    pub(crate) fn base(&self) -> &Arc<dyn XmlStore> {
        &self.base
    }

    /// The commit epoch this snapshot was published at (0 = pristine).
    pub fn epoch(&self) -> u64 {
        self.delta.epoch
    }

    /// Generic overlay walk collecting `tag` descendants of `n` in
    /// document order — the dirty-region fallback for descendant scans.
    fn walk_descendants(&self, n: Node, tag: &str) -> Vec<Node> {
        let mut out = Vec::new();
        let mut stack = vec![self.children_iter(n)];
        while let Some(iter) = stack.last_mut() {
            match iter.next() {
                Some(child) => {
                    if self.tag_of(child) == Some(tag) {
                        out.push(child);
                    }
                    stack.push(self.children_iter(child));
                }
                None => {
                    stack.pop();
                }
            }
        }
        out
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

    fn attribute(&self, n: Node, name: &str) -> Option<String> {
        let find = |attrs: &[(String, String)]| {
            attrs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };
        if let Some(node) = self.delta.inserted.get(&n.0) {
            return find(&node.attrs);
        }
        if let Some(list) = self.delta.attr_over.get(&n.0) {
            return find(list);
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
        if self.delta.subtree_clean(n) {
            return self.base.descendants_named_iter(n, tag);
        }
        DescendantsNamed::from_vec(self.walk_descendants(n, tag))
    }

    fn typed_child_value(&self, n: Node, tag: &str) -> Option<Option<String>> {
        if self.delta.subtree_clean(n) {
            return self.base.typed_child_value(n, tag);
        }
        // Dirty region: report "not inlined" so the evaluator computes
        // the value generically through the overlay cursors.
        None
    }

    fn positional_child(&self, n: Node, tag: &str, pos: PositionSpec) -> Option<Option<Node>> {
        if self.delta.subtree_clean(n) {
            return self.base.positional_child(n, tag, pos);
        }
        None
    }

    fn count_descendants_named(&self, n: Node, tag: &str) -> usize {
        if self.delta.subtree_clean(n) {
            return self.base.count_descendants_named(n, tag);
        }
        self.walk_descendants(n, tag).len()
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
