//! Commit-time incremental index maintenance.
//!
//! [`maintain`] derives the successor snapshot's
//! [`IndexManager`] from the predecessor's without rebuilding:
//!
//! * **element postings** — kept only while subtree stabbing stays
//!   valid: a deletion-only commit over an ordered index filters the
//!   deleted ids out of the touched tags' lists (copy-on-write; untouched
//!   tags share the predecessor's `Arc`ed lists). Once a commit inserts,
//!   ids stop following document order, every reader falls back to the
//!   snapshot's axis cursors (which stab the base store's index, see
//!   [`crate::SnapshotStore`]), and the successor gets an empty,
//!   unordered index — no later commit splices lists;
//! * **attribute indexes** — upsert/remove against a cloned map with
//!   first-in-document-order semantics, matching a rebuild;
//! * **`cvals|` typed-value slots** — surgical patch of the
//!   parent → text-children map;
//! * **every other value slot** (join build sides, keyed lookups, path
//!   materializations) — survives iff its planner signature mentions no
//!   touched tag or attribute name. The match is a conservative
//!   substring test: signatures embed step tags with single-character
//!   axis prefixes, so substring matching can only over-invalidate
//!   (costing a lazy rebuild), never under-invalidate.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use xmark_store::{AttrIndex, ChildValues, ElementIndex, IndexManager, Node, XmlStore};

use crate::delta::DeltaState;
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
    /// Attributes at insert time.
    pub attrs: Vec<(String, String)>,
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
    /// Attributes at delete time.
    pub attrs: Vec<(String, String)>,
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
    /// Attribute replacements: `(node, name, old value, new value)`.
    pub attr_sets: Vec<(u32, String, Option<String>, String)>,
    /// Tags and attribute names a cached structure could observe the
    /// change through (op subtree tags + anchor ancestor tags).
    pub touched_tags: HashSet<String>,
}

/// Whether a planner signature could observe a change to any touched
/// tag or attribute name. Conservative: substring containment.
fn sig_affected(sig: &str, touched: &HashSet<String>) -> bool {
    sig.contains('*') || touched.iter().any(|t| sig.contains(t.as_str()))
}

/// First-in-document-order upsert, matching `AttrIndex::build`'s
/// duplicate handling.
fn upsert_attr(map: &mut HashMap<String, u32>, value: &str, id: u32, delta: &DeltaState) {
    match map.entry(value.to_string()) {
        std::collections::hash_map::Entry::Occupied(mut slot) => {
            if delta.rank_of(id) < delta.rank_of(*slot.get()) {
                slot.insert(id);
            }
        }
        std::collections::hash_map::Entry::Vacant(slot) => {
            slot.insert(id);
        }
    }
}

/// Derive the index manager of `work`, a commit's working snapshot,
/// from its predecessor `cur`'s plus the commit's change journal.
pub(crate) fn maintain(
    cur: &SnapshotStore,
    work: &SnapshotStore,
    changes: &Changes,
) -> IndexManager {
    let delta = work.delta();
    let fresh_ids: HashSet<u32> = changes.inserted_elems.iter().map(|e| e.id).collect();

    // ---- element index: filter deletions while stabbing holds -------
    let old = cur.indexes().element(cur);
    // Every insert journals at least its fragment's root element.
    let element = if old.ordered() && changes.inserted_elems.is_empty() {
        let mut postings = old.shared_postings().clone();
        let touched: HashSet<&str> = changes
            .deleted_elems
            .iter()
            .map(|d| d.tag.as_str())
            .collect();
        for tag in touched {
            if let Some(list) = postings.get_mut(tag) {
                Arc::make_mut(list).retain(|id| !changes.deleted_ids.contains(id));
            }
        }
        ElementIndex::from_parts(postings, Arc::clone(old.shared_subtree_end()), true)
    } else {
        ElementIndex::default()
    };

    // ---- attribute indexes: clone + patch ----------------------------
    let mut attrs_out = Vec::new();
    for (name, index) in cur.indexes().built_attrs() {
        let mut map = index.clone_map();
        for d in &changes.deleted_elems {
            if fresh_ids.contains(&d.id) {
                continue; // never entered the map
            }
            for (k, v) in &d.attrs {
                if *k == name && map.get(v) == Some(&d.id) {
                    map.remove(v);
                }
            }
        }
        for e in &changes.inserted_elems {
            if changes.deleted_ids.contains(&e.id) {
                continue;
            }
            for (k, v) in &e.attrs {
                if *k == name {
                    upsert_attr(&mut map, v, e.id, delta);
                }
            }
        }
        for (node, aname, old_value, new_value) in &changes.attr_sets {
            if *aname != name {
                continue;
            }
            if let Some(o) = old_value {
                if map.get(o) == Some(node) {
                    map.remove(o);
                }
            }
            if !changes.deleted_ids.contains(node) {
                upsert_attr(&mut map, new_value, *node, delta);
            }
        }
        attrs_out.push((name, Arc::new(AttrIndex::from_map(map))));
    }

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

    cur.indexes().seeded(element, attrs_out, values_out)
}
