//! Commit-time index maintenance.
//!
//! [`maintain`] derives the successor snapshot's [`IndexManager`] from
//! the predecessor's. Two structures describe the immutable base store
//! and are never patched: the successor shares the base's `@id` index
//! (seeded once by [`crate::VersionedStore::new`]), which
//! [`crate::SnapshotStore`]'s `lookup_id` corrects through the delta,
//! and it gets an empty, unordered element index, so that readers fall
//! back to the snapshot's axis cursors, which stab the base store's
//! element index. The rest:
//!
//! * **`cvals|` typed-value slots** — surgical patch of the
//!   parent → text-children map;
//! * **every other value slot** (Lookup indexes, path materializations) — survives iff its planner signature mentions no
//!   touched tag or attribute name. The match is a conservative
//!   substring test: signatures embed step tags with single-character
//!   axis prefixes, so substring matching can only over-invalidate
//!   (costing a lazy rebuild), never under-invalidate. A signature with
//!   a `*` — a wildcard step, or the multiplication in Q11's Lookup key
//!   `(5000 * /#t)` — counts as touched by every commit.

use std::any::Any;
use std::collections::HashSet;
use std::sync::Arc;

use xmark_store::{ChildValues, ElementIndex, IndexManager, Node, XmlStore};

use crate::snapshot::SnapshotStore;

/// An element created by the transaction (journal entry for index
/// maintenance).
pub(crate) struct InsertedElem {
    /// Fresh node id.
    pub id: u32,
    /// Element tag.
    pub tag: String,
    /// Parent id at insert time.
    pub parent: u32,
    /// Direct text-node children ids.
    pub text_children: Vec<u32>,
}

/// An element removed by the transaction.
pub(crate) struct DeletedElem {
    /// The removed id (base or delta).
    pub id: u32,
    /// Element tag.
    pub tag: String,
    /// Parent id at delete time.
    pub parent: u32,
}

/// The change journal one commit produces for [`maintain`].
#[derive(Default)]
pub(crate) struct Changes {
    /// Elements created (in document pre-order per insert).
    pub inserted_elems: Vec<InsertedElem>,
    /// Elements removed.
    pub deleted_elems: Vec<DeletedElem>,
    /// Text nodes removed, with their parent at delete time.
    pub deleted_texts: Vec<(u32, u32)>,
    /// Every removed id, element or text.
    pub deleted_ids: HashSet<u32>,
    /// Tags and attribute names a cached structure could observe the
    /// change through (op subtree tags + anchor ancestor tags).
    pub touched_tags: HashSet<String>,
}

/// Whether a planner signature could observe a change to any touched
/// tag or attribute name. Conservative: substring containment.
fn sig_affected(sig: &str, touched: &HashSet<String>) -> bool {
    sig.contains('*') || touched.iter().any(|t| sig.contains(t.as_str()))
}

/// Derive the index manager of `work`, a commit's working snapshot,
/// from its predecessor `cur`'s plus the commit's change journal.
pub(crate) fn maintain(
    cur: &SnapshotStore,
    work: &SnapshotStore,
    changes: &Changes,
) -> IndexManager {
    // ---- value slots: patch cvals, signature-gate the rest -----------
    let mut values_out: Vec<(String, Arc<dyn Any + Send + Sync>, usize)> = Vec::new();
    for (sig, value, bytes) in cur.indexes().built_values() {
        if let Some(tag) = sig.strip_prefix("cvals|").map(str::to_string) {
            let Ok(cvals) = value.downcast::<ChildValues>() else {
                continue;
            };
            let mut map = cvals.clone_map();
            for d in &changes.deleted_elems {
                map.remove(&d.id);
                if d.tag == tag && !changes.deleted_ids.contains(&d.parent) {
                    if let Some(list) = map.get_mut(&d.parent) {
                        list.retain(|id| !changes.deleted_ids.contains(id));
                    }
                }
            }
            for &(text_id, text_parent) in &changes.deleted_texts {
                if changes.deleted_ids.contains(&text_parent) {
                    continue; // the parent's own removal already covers it
                }
                if work.tag_of(Node(text_parent)) == Some(&tag) {
                    if let Some(grandparent) = work.parent(Node(text_parent)) {
                        if let Some(list) = map.get_mut(&grandparent.0) {
                            list.retain(|&id| id != text_id);
                        }
                    }
                }
            }
            for e in &changes.inserted_elems {
                if e.tag == tag && !changes.deleted_ids.contains(&e.id) {
                    map.entry(e.parent).or_default().extend(
                        e.text_children
                            .iter()
                            .filter(|c| !changes.deleted_ids.contains(c)),
                    );
                }
            }
            let patched = ChildValues::from_map(map);
            let new_bytes = patched.size_bytes();
            values_out.push((sig, Arc::new(patched), new_bytes));
        } else if !sig_affected(&sig, &changes.touched_tags) {
            values_out.push((sig, value, bytes));
        }
        // else: invalidated — the slot rebuilds lazily against the new
        // snapshot the first time a plan asks for it.
    }

    cur.indexes().seeded(
        ElementIndex::default(),
        cur.indexes().built_ids(),
        values_out,
    )
}
