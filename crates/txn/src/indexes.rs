//! Commit-time index carrying.
//!
//! [`maintain`] derives the successor snapshot's [`IndexManager`] from
//! the predecessor's without building or patching anything. The
//! successor shares the base's `@id` index (seeded once by
//! [`crate::VersionedStore::new`]), which [`crate::SnapshotStore`]'s
//! `lookup_id` corrects through the delta, and it gets an empty,
//! unordered element index, so that readers fall back to the snapshot's
//! axis cursors, which stab the base store's element index. Of the value
//! slots, the `cvals|` child-value maps are carried as the same `Arc`,
//! and every other slot (Lookup indexes, path memos) is dropped, to
//! rebuild lazily against the new snapshot the first time a plan asks
//! for it.
//!
//! A carried map is exact wherever the snapshot's clean gate holds:
//! touched intervals only grow, every operation touches its anchor
//! (insert: the parent; delete: the range and the parent; text or
//! attribute set: the node) and inserted ids are never clean, so an
//! entry for a clean base subtree describes the same children in every
//! epoch. [`crate::SnapshotStore`]'s `indexed_child_values` applies
//! that gate, and the executor walks the children of any context it
//! declines. A future fold of the delta into a new base renumbers the
//! nodes, so it must drop the carried `cvals|` slots.

use xmark_store::{ElementIndex, IndexManager, XmlStore};

use crate::snapshot::SnapshotStore;

/// Derive the index manager of a commit's successor snapshot from its
/// predecessor `cur`'s: the `@id` index and the `cvals|` slots carried,
/// every other slot dropped.
pub(crate) fn maintain(cur: &SnapshotStore) -> IndexManager {
    let values = cur
        .indexes()
        .built_values()
        .into_iter()
        .filter(|(sig, _, _)| sig.starts_with("cvals|"))
        .collect();
    cur.indexes()
        .seeded(ElementIndex::default(), cur.indexes().built_ids(), values)
}
