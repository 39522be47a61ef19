//! The immutable delta overlay a [`crate::SnapshotStore`] layers over
//! its base store.
//!
//! A [`DeltaState`] is built privately by a committing transaction and
//! never mutated after publication — readers share it through the
//! snapshot's `Arc`. All maps are keyed by node id; inserted nodes use
//! fresh ids at or above [`DeltaState::floor`], so `id < floor` ⇔ "base
//! node". Per-entry payloads are `Arc`-shared, which makes the
//! copy-on-write clone a commit starts from `O(entries)` pointer bumps
//! rather than a deep copy.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use xmark_store::{ElementIndex, Node};

/// One node created by a transaction. Text nodes have `tag == None`.
#[derive(Debug, Clone)]
pub(crate) struct InsertedNode {
    /// Element tag, or `None` for a text node.
    pub tag: Option<Box<str>>,
    /// Text content (empty for elements).
    pub text: Box<str>,
    /// Attributes in document order (elements only).
    pub attrs: Vec<(String, String)>,
    /// Parent node id (base or inserted).
    pub parent: u32,
    /// Children ids in document order.
    pub children: Vec<u32>,
    /// Document-order rank (see the crate docs).
    pub rank: u64,
}

/// One live inserted element in a per-tag list of
/// [`DeltaState::inserted_postings`].
pub(crate) struct InsertedPosting {
    /// Document-order rank.
    pub rank: u64,
    /// Node id.
    pub id: u32,
    /// Nearest base ancestor: the element lies in a base node `n`'s
    /// subtree iff `anchor` lies in `[n, base_subtree_end(n)]`.
    pub anchor: u32,
}

/// Document-order rank of base node `id`; inserted ranks fall strictly
/// between consecutive base ranks.
pub(crate) fn base_rank(id: u32) -> u64 {
    (id as u64) << 32
}

/// The committed difference between a snapshot and its base store.
#[derive(Default, Clone)]
pub(crate) struct DeltaState {
    /// Commit epoch this delta was published at (0 = pristine base).
    pub epoch: u64,
    /// First fresh node id — every id `>= floor` is an inserted node.
    pub floor: u32,
    /// Next id an insert will allocate (deterministic across replay).
    pub next_id: u32,
    /// Inserted nodes, by id. Deleted inserted nodes are removed again.
    pub inserted: HashMap<u32, Arc<InsertedNode>>,
    /// Full children-list overrides for *base* parents whose child list
    /// changed (an insert appended, or a delete removed, a child).
    pub children_over: HashMap<u32, Arc<Vec<u32>>>,
    /// Replaced content of base text nodes.
    pub text_over: HashMap<u32, Arc<str>>,
    /// Full attribute-list overrides for base elements.
    pub attr_over: HashMap<u32, Arc<Vec<(String, String)>>>,
    /// Every deleted *base* id (subtree deletes record the whole id
    /// set; deleted inserted nodes simply leave [`DeltaState::inserted`]).
    pub deleted_base: HashSet<u32>,
    /// Sorted, disjoint base-id intervals covering every modification
    /// point — the gate deciding when a base fast path may be
    /// delegated (see [`DeltaState::base_range_clean`]).
    pub touched: Vec<(u32, u32)>,
    /// The base store's element index (postings and subtree ends),
    /// exact forever because the base is immutable: the clean gate's
    /// subtree bounds and the postings snapshot descendant scans stab.
    pub base_index: Arc<ElementIndex>,
}

impl DeltaState {
    /// A pristine epoch-0 delta over a base whose ids end below `floor`.
    pub fn pristine(floor: u32, base_index: Arc<ElementIndex>) -> DeltaState {
        DeltaState {
            epoch: 0,
            floor,
            next_id: floor,
            base_index,
            ..DeltaState::default()
        }
    }

    /// Whether `id` names an inserted (delta) node.
    pub fn is_delta(&self, id: u32) -> bool {
        id >= self.floor
    }

    /// Whether `id` names a live node: an inserted node not deleted
    /// again, or a base node not deleted.
    pub fn exists(&self, id: u32) -> bool {
        if self.is_delta(id) {
            self.inserted.contains_key(&id)
        } else {
            !self.deleted_base.contains(&id)
        }
    }

    /// Document-order rank of a live node.
    pub fn rank_of(&self, id: u32) -> u64 {
        match self.inserted.get(&id) {
            Some(node) => node.rank,
            None => base_rank(id),
        }
    }

    /// Last id of the *base* subtree under base node `id` (inclusive).
    pub fn base_subtree_end(&self, id: u32) -> u32 {
        let ends = self.base_index.shared_subtree_end();
        ends.get(id as usize).copied().unwrap_or(id)
    }

    /// The live inserted elements by tag, each list sorted by rank — the
    /// overlay's half of a descendant scan. Walks every inserted node
    /// once.
    pub fn inserted_postings(&self) -> HashMap<Box<str>, Vec<InsertedPosting>> {
        let mut by_tag: HashMap<Box<str>, Vec<InsertedPosting>> = HashMap::new();
        for (&id, node) in &self.inserted {
            let Some(tag) = &node.tag else { continue };
            let mut anchor = node.parent;
            while let Some(up) = self.inserted.get(&anchor) {
                anchor = up.parent;
            }
            let posting = InsertedPosting {
                rank: node.rank,
                id,
                anchor,
            };
            by_tag.entry(tag.clone()).or_default().push(posting);
        }
        for list in by_tag.values_mut() {
            list.sort_unstable_by_key(|p| p.rank);
        }
        by_tag
    }

    /// The live delta elements carrying an `id` attribute — inserted
    /// elements and base elements with an attribute override — as
    /// value → the `(rank, id)` of its lowest-ranked such holder: the
    /// overlay's half of an `@id` lookup.
    pub fn id_holders(&self) -> HashMap<String, (u64, u32)> {
        let inserted = self
            .inserted
            .iter()
            .filter(|(_, node)| node.tag.is_some())
            .map(|(&id, node)| (node.rank, id, &node.attrs));
        let overridden = self
            .attr_over
            .iter()
            .map(|(&id, attrs)| (base_rank(id), id, &**attrs));
        let mut holders: HashMap<String, (u64, u32)> = HashMap::new();
        for (rank, id, attrs) in inserted.chain(overridden) {
            let Some((_, value)) = attrs.iter().find(|(k, _)| k == "id") else {
                continue;
            };
            let holder = holders.entry(value.clone()).or_insert((rank, id));
            *holder = (*holder).min((rank, id));
        }
        holders
    }

    /// Whether the base-id range `[lo, hi]` contains no modification
    /// point — the condition under which reads below a base node may be
    /// answered by the base store directly.
    pub fn base_range_clean(&self, lo: u32, hi: u32) -> bool {
        // First interval whose end reaches lo; it is the only candidate
        // that could intersect [lo, hi] from the left.
        let i = self.touched.partition_point(|&(_, end)| end < lo);
        match self.touched.get(i) {
            Some(&(start, _)) => start > hi,
            None => true,
        }
    }

    /// Whether base node `n`'s whole subtree is unmodified.
    pub fn subtree_clean(&self, n: Node) -> bool {
        !self.is_delta(n.0) && self.base_range_clean(n.0, self.base_subtree_end(n.0))
    }

    /// Record a modification point covering base ids `[lo, hi]`,
    /// keeping [`DeltaState::touched`] sorted and disjoint.
    pub fn touch(&mut self, lo: u32, hi: u32) {
        let i = self
            .touched
            .partition_point(|&(_, end)| (end as u64) + 1 < lo as u64);
        // Merge every interval that overlaps or abuts [lo, hi].
        let mut lo = lo;
        let mut hi = hi;
        let mut j = i;
        while let Some(&(s, e)) = self.touched.get(j) {
            if s > hi.saturating_add(1) {
                break;
            }
            lo = lo.min(s);
            hi = hi.max(e);
            j += 1;
        }
        self.touched.splice(i..j, std::iter::once((lo, hi)));
    }

    /// The approximate resident bytes of the delta itself (reported on
    /// top of the base store's own accounting).
    pub fn size_bytes(&self) -> usize {
        let inserted: usize = self
            .inserted
            .values()
            .map(|n| {
                std::mem::size_of::<InsertedNode>()
                    + n.text.len()
                    + n.attrs
                        .iter()
                        .map(|(k, v)| k.capacity() + v.capacity())
                        .sum::<usize>()
                    + n.children.len() * 4
                    + 48
            })
            .sum();
        let children: usize = self.children_over.values().map(|c| c.len() * 4 + 48).sum();
        let text: usize = self.text_over.values().map(|t| t.len() + 48).sum();
        let attrs: usize = self
            .attr_over
            .values()
            .map(|list| {
                list.iter()
                    .map(|(k, v)| k.capacity() + v.capacity() + 16)
                    .sum::<usize>()
                    + 48
            })
            .sum();
        inserted + children + text + attrs + self.deleted_base.len() * 8 + self.touched.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_merges_overlapping_and_abutting_intervals() {
        let mut delta = DeltaState::pristine(100, Arc::default());
        delta.touch(10, 12);
        delta.touch(20, 25);
        assert_eq!(delta.touched, vec![(10, 12), (20, 25)]);
        delta.touch(13, 19); // abuts both sides
        assert_eq!(delta.touched, vec![(10, 25)]);
        delta.touch(0, 0);
        delta.touch(30, 31);
        assert_eq!(delta.touched, vec![(0, 0), (10, 25), (30, 31)]);
        assert!(!delta.base_range_clean(24, 40));
        assert!(!delta.base_range_clean(0, 0));
        assert!(delta.base_range_clean(1, 9));
        assert!(delta.base_range_clean(26, 29));
        assert!(delta.base_range_clean(32, 99));
    }
}
