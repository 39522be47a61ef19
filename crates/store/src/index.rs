//! The persistent, store-resident index subsystem.
//!
//! Before this layer existed, auxiliary access structures were an ad-hoc
//! per-backend affair: System E built its own `@id` hash at bulkload,
//! System G had none at all, and the query executor rebuilt its join hash
//! tables and lookup maps from scratch on **every execution** — a cache
//! hit in the plan cache still paid full build cost for its join sides.
//! Following the direction of disk-based index structures for structured
//! databases (EMBANKS; Gupta & Sudarshan), [`IndexManager`] promotes
//! indexes to a first-class store service: **built once, lazily, shared
//! everywhere** — across executions, across prepared queries, and across
//! the concurrent service layer's worker threads.
//!
//! Every store owns one manager ([`XmlStore::indexes`]) holding three
//! families of structures, all thread-safe and all built at most once:
//!
//! * **Element-name index** ([`ElementIndex`]) — tag → document-ordered
//!   posting list of element ids, plus a per-node subtree-end array. A
//!   `count(…//tag)` becomes an **indexed count**: two binary searches
//!   stab the posting list with the context's subtree range, and the
//!   slice's length replaces a counting descendant walk (System A's
//!   parent-chain climbs, System F's interval scans, System G's DOM
//!   traversals).
//! * **`@id` index** ([`AttrIndex`]) — `id` value → the element carrying
//!   it. This single code path answers [`XmlStore::lookup_id`] on *all
//!   eight* backends; the per-backend `@id` hash maps are retired.
//! * **Value indexes** — planner-signature-keyed slots holding the query
//!   layer's Lookup indexes (keys sorted by number and by text → source
//!   positions), path memos and child-value maps ([`ChildValues`]).
//!   Every signature names a loop-invariant structure (an absolute
//!   path, or a (source, key) pair), so a built slot is valid for
//!   the lifetime of the store; repeated executions of the join queries
//!   (Q8–Q12) probe instead of rebuilding.
//!
//! Builds are exactly-once under concurrency: the element and `@id`
//! indexes sit in [`OnceLock`]s, and value slots are per-key locks, so two
//! service workers racing on a cold index perform one build between them
//! (pinned by `tests/indexes.rs`). [`IndexManager::builds`] and
//! [`IndexManager::hits`] expose the counters the throughput report and
//! the zero-rebuild acceptance tests probe; [`IndexManager::size_bytes`]
//! feeds the store's resident-size accounting (Table 1).
//!
//! ## Validity of subtree stabbing
//!
//! Posting-list stabbing assumes node ids are assigned in document
//! (pre-)order, so a subtree occupies the contiguous id range
//! `[n, subtree_end(n)]`. All eight backends number nodes that way; the
//! build scan *verifies* the nesting half of it (id `0` is the root and
//! every node's parent is still open on a stack of ancestors when its id
//! comes up) and marks the index [`ElementIndex::ordered`] only when it
//! holds. Sibling order is the numbering's own promise (see [`Node`]).
//! An unordered index degrades gracefully: `postings_in`
//! returns `None` and both the planner and the executor fall back to a
//! counting walk. The transaction layer relies on this:
//! every snapshot after the first carries an empty, unordered index, and
//! its cursors stab the immutable base store's index instead, merging the
//! inserted elements in by order rank. Its `@id` lookups likewise read
//! the base's `@id` index, shared by every snapshot, and correct it
//! through the snapshot's delta. Snapshots number inserted nodes above
//! the base range, so neither build scan would be valid over one: both
//! indexes come seeded, and no snapshot builds them. A commit carries
//! the `cvals|` child-value maps unchanged, whichever epoch built them,
//! and readers take an entry only where
//! [`XmlStore::indexed_child_values`] vouches for it (a clean subtree);
//! every other value slot is dropped.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sync::lock;
use crate::traits::{Node, XmlStore};

/// Rough per-entry overhead of a `HashMap<String, _>` (bucket + hash +
/// `String` header) used by the size accounting.
const MAP_ENTRY_OVERHEAD: usize = 48;

/// The element-name index: per tag, the document-ordered posting list of
/// element node ids, plus each node's subtree end for range stabbing.
/// The default is empty and unordered: it can never stab. A clone
/// shares the posting lists and the subtree-end array.
#[derive(Default, Clone)]
pub struct ElementIndex {
    /// tag → ascending node ids (document order). Lists are `Arc`-shared
    /// so the transaction layer's copies of a base store's index clone
    /// the map in O(tags).
    postings: HashMap<String, Arc<Vec<u32>>>,
    /// node id → largest id in its subtree (inclusive). Indexed by id.
    subtree_end: Arc<Vec<u32>>,
    /// Whether the build verified that ids number the tree in pre-order
    /// — the invariant subtree stabbing rests on.
    ordered: bool,
}

impl ElementIndex {
    /// Build by one ascending scan of the ids `0..count`, reading only
    /// parents and tags (a walk over `children_iter` costs System B one
    /// probe per fragment per node). `scan` feeds every node's
    /// `(id, parent, tag)` to its visitor in id order, as
    /// [`XmlStore::for_each_parent_and_tag`] does. The scan checks the
    /// pre-order numbering against a stack of open ancestors: `0` is the
    /// root, each later node's parent is open, and the nodes popped to
    /// reach it end their subtrees just before this id. A failed check,
    /// or a scan that skips or repeats an id, yields the default,
    /// unordered index.
    fn build<'s>(
        root: Node,
        count: usize,
        scan: impl FnOnce(&mut dyn FnMut(Node, Option<Node>, Option<&'s str>)),
    ) -> ElementIndex {
        let mut lists: HashMap<&str, Vec<u32>> = HashMap::new();
        let mut subtree_end: Vec<u32> = vec![0; count];
        let mut open: Vec<u32> = Vec::new();
        let mut next = 0u32;
        let mut ordered = true;
        scan(&mut |n, parent, tag| {
            if !ordered {
                return;
            }
            let id = n.0;
            let depth = match parent {
                _ if id != next => None,
                None if id == 0 && n == root => Some(0),
                p => open
                    .iter()
                    .rposition(|&a| p == Some(Node(a)))
                    .map(|at| at + 1),
            };
            let Some(depth) = depth else {
                ordered = false;
                return;
            };
            next += 1;
            for done in open.drain(depth..) {
                subtree_end[done as usize] = id - 1;
            }
            open.push(id);
            if let Some(tag) = tag {
                lists
                    .entry(tag)
                    .or_insert_with(|| Vec::with_capacity(1))
                    .push(id);
            }
        });
        if !ordered || next as usize != count {
            return ElementIndex::default();
        }
        for done in open {
            subtree_end[done as usize] = count as u32 - 1;
        }
        ElementIndex {
            postings: lists
                .into_iter()
                .map(|(tag, list)| (tag.to_string(), Arc::new(list)))
                .collect(),
            subtree_end: Arc::new(subtree_end),
            ordered: true,
        }
    }

    /// The shared subtree-end array.
    pub fn shared_subtree_end(&self) -> &Arc<Vec<u32>> {
        &self.subtree_end
    }

    /// Whether subtree stabbing is valid (ids verified pre-order).
    pub fn ordered(&self) -> bool {
        self.ordered
    }

    /// Exact extent cardinality of `tag` over the whole document.
    pub fn count(&self, tag: &str) -> usize {
        self.postings.get(tag).map_or(0, |list| list.len())
    }

    /// The whole-document posting list of `tag`, ascending ids.
    pub fn postings(&self, tag: &str) -> &[u32] {
        self.postings.get(tag).map_or(&[], |list| list.as_slice())
    }

    /// The descendants of `n` with `tag` as a contiguous posting slice
    /// (two binary searches), or `None` when stabbing is invalid for this
    /// store and the caller must fall back to the native axis cursor.
    pub fn postings_in(&self, tag: &str, n: Node) -> Option<&[u32]> {
        if !self.ordered {
            return None;
        }
        let end = *self.subtree_end.get(n.index())?;
        let list = self.postings(tag);
        let lo = list.partition_point(|&x| x <= n.0);
        let hi = list.partition_point(|&x| x <= end);
        Some(&list[lo..hi])
    }

    /// Exact descendant count of `tag` under `n`, if stabbing is valid.
    pub fn count_in(&self, tag: &str, n: Node) -> Option<usize> {
        self.postings_in(tag, n).map(<[u32]>::len)
    }

    /// Resident bytes of the posting lists and the subtree-end array.
    pub fn size_bytes(&self) -> usize {
        let postings: usize = self
            .postings
            .iter()
            .map(|(tag, list)| tag.capacity() + list.capacity() * 4 + MAP_ENTRY_OVERHEAD)
            .sum();
        postings + self.subtree_end.capacity() * 4
    }
}

/// The `@id` value index: value → the first (document-order) element
/// carrying `id="value"`. DTD `ID` values are unique, so "first" is also
/// "only".
pub struct AttrIndex {
    map: HashMap<String, u32>,
}

impl AttrIndex {
    /// Build by one ascending scan of the ids `0..node_count`, which a
    /// bulkloaded store assigns densely in document order
    /// ([`XmlStore::for_each_attribute_value`]); the first holder of a
    /// duplicated value wins.
    fn build<S: XmlStore + ?Sized>(store: &S) -> AttrIndex {
        let mut map = HashMap::new();
        store.for_each_attribute_value("id", &mut |n, value| {
            if !map.contains_key(value) {
                map.insert(value.to_owned(), n.0);
            }
        });
        AttrIndex { map }
    }

    /// The element carrying this attribute value, if any.
    pub fn get(&self, value: &str) -> Option<Node> {
        self.map.get(value).map(|&id| Node(id))
    }

    /// Indexed distinct values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no value is indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Resident bytes.
    pub fn size_bytes(&self) -> usize {
        self.map
            .keys()
            .map(|k| k.capacity() + 4 + MAP_ENTRY_OVERHEAD)
            .sum()
    }
}

/// The typed child-value index for one child tag: parent node → the
/// *text nodes* of its `tag` children, exactly the items a
/// `…/tag/text()` tail produces (one entry per text node, in document
/// order — mixed content yields several, an empty child none). Storing
/// node ids rather than strings keeps the rewrite invisible to every
/// downstream operator, including node-order comparison (`<<`).
///
/// Read it through [`XmlStore::indexed_child_values`]: a snapshot
/// overlay carries the map across commits unchanged, so an entry is
/// exact only where the store vouches for it.
pub struct ChildValues {
    map: HashMap<u32, Vec<u32>>,
}

impl ChildValues {
    /// Build from the native descendant cursor: one pass over the tag's
    /// extent, recording each element's direct text children.
    pub fn build<S: XmlStore + ?Sized>(store: &S, tag: &str) -> ChildValues {
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for child in store.descendants_named_iter(store.root(), tag) {
            let Some(parent) = store.parent(child) else {
                continue;
            };
            let values = map.entry(parent.0).or_default();
            for grandchild in store.children_iter(child) {
                if store.is_text_node(grandchild) {
                    values.push(grandchild.0);
                }
            }
        }
        ChildValues { map }
    }

    /// The `tag/text()` nodes under parent `n` (empty when it has no
    /// such child, or only valueless ones).
    pub fn get(&self, n: Node) -> &[u32] {
        self.map.get(&n.0).map_or(&[], Vec::as_slice)
    }

    /// Resident bytes.
    pub fn size_bytes(&self) -> usize {
        self.map
            .values()
            .map(|v| MAP_ENTRY_OVERHEAD + v.capacity() * 4)
            .sum()
    }
}

/// A lazily filled slot for one keyed structure. The per-slot mutex makes
/// concurrent builders of the *same* key serialize — exactly one build.
type ValueSlot = Mutex<Option<(Arc<dyn Any + Send + Sync>, usize)>>;

/// Build/hit counters at one instant (see [`IndexManager::builds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Structures built since the store was loaded (element index,
    /// `@id` index, value-index slots).
    pub builds: u64,
    /// Probes answered from an already-built structure.
    pub hits: u64,
}

/// The build/hit counter pair behind [`IndexStats`].
#[derive(Default)]
struct Counters {
    builds: AtomicU64,
    hits: AtomicU64,
}

/// The per-store index service: lazily-built, exactly-once, thread-safe
/// shared structures (see the [module docs](self)).
pub struct IndexManager {
    element: OnceLock<ElementIndex>,
    ids: OnceLock<Arc<AttrIndex>>,
    values: Mutex<HashMap<String, Arc<ValueSlot>>>,
    /// Bytes held by filled value slots (tracked separately because the
    /// slot payloads are type-erased).
    value_bytes: AtomicU64,
    /// Shared with every manager [`seeded`](IndexManager::seeded) from
    /// this one, so all epochs of a versioned store count into one pair.
    counters: Arc<Counters>,
}

impl Default for IndexManager {
    fn default() -> Self {
        IndexManager::new()
    }
}

impl IndexManager {
    /// A fresh manager with nothing built.
    pub fn new() -> Self {
        IndexManager {
            element: OnceLock::new(),
            ids: OnceLock::new(),
            values: Mutex::new(HashMap::new()),
            value_bytes: AtomicU64::new(0),
            counters: Arc::default(),
        }
    }

    /// `cell`'s structure, built by `init` on first use and counted as
    /// a build, or as a hit once built.
    fn once<'m, T>(&self, cell: &'m OnceLock<T>, init: impl FnOnce() -> T) -> &'m T {
        let mut built = false;
        let value = cell.get_or_init(|| {
            built = true;
            self.counters.builds.fetch_add(1, Ordering::Relaxed);
            init()
        });
        if !built {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// The element-name index, building it on first use (exactly once,
    /// even under concurrent callers).
    pub fn element<S: XmlStore + ?Sized>(&self, store: &S) -> &ElementIndex {
        self.once(&self.element, || {
            ElementIndex::build(store.root(), store.node_count(), |visit| {
                store.for_each_parent_and_tag(visit)
            })
        })
    }

    /// The `@id` index, building it over `store` on first use (exactly
    /// once) — the single code path behind [`XmlStore::lookup_id`] on
    /// every backend.
    pub fn ids<S: XmlStore + ?Sized>(&self, store: &S) -> &AttrIndex {
        self.once(&self.ids, || Arc::new(AttrIndex::build(store)))
            .as_ref()
    }

    /// The `@id` index if (and only if) it has already been built — what
    /// a successor manager is [`seeded`](IndexManager::seeded) with.
    pub fn built_ids(&self) -> Option<Arc<AttrIndex>> {
        self.ids.get().cloned()
    }

    /// Fetch (or build exactly once) the type-erased value structure for
    /// the planner signature `sig`. `build` returns the structure plus its
    /// approximate resident bytes.
    pub fn value_or_build<E>(
        &self,
        sig: &str,
        build: impl FnOnce() -> Result<(Arc<dyn Any + Send + Sync>, usize), E>,
    ) -> Result<Arc<dyn Any + Send + Sync>, E> {
        let slot = {
            let mut values = lock(&self.values);
            Arc::clone(values.entry(sig.to_string()).or_default())
        };
        let mut filled = lock(&slot);
        if let Some((value, _)) = filled.as_ref() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(value));
        }
        let (value, bytes) = build()?;
        *filled = Some((Arc::clone(&value), bytes));
        self.value_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.counters.builds.fetch_add(1, Ordering::Relaxed);
        Ok(value)
    }

    /// The typed child-value index for `tag`, built exactly once per tag.
    pub fn child_values<S: XmlStore + ?Sized>(&self, store: &S, tag: &str) -> Arc<ChildValues> {
        let erased = self
            .value_or_build::<std::convert::Infallible>(&format!("cvals|{tag}"), || {
                let values = ChildValues::build(store, tag);
                let bytes = values.size_bytes();
                Ok((Arc::new(values) as Arc<dyn Any + Send + Sync>, bytes))
            })
            .expect("infallible build");
        erased
            .downcast::<ChildValues>()
            .expect("cvals slots hold ChildValues")
    }

    /// The typed child-value index for `tag` if (and only if) it has
    /// already been built — never triggers the extent walk. Streaming
    /// cursor opens use this peek so a cold, highly selective query
    /// keeps its O(result) time-to-first-item; the build happens in
    /// materializing (blocking) contexts instead.
    pub fn child_values_if_built(&self, tag: &str) -> Option<Arc<ChildValues>> {
        self.value_if_built(&format!("cvals|{tag}"))?
            .downcast::<ChildValues>()
            .ok()
    }

    /// The value structure for `sig` if (and only if) it has already been
    /// built — never triggers a build. Used by streaming cursors that
    /// prefer to stay lazy on a cold slot.
    pub fn value_if_built(&self, sig: &str) -> Option<Arc<dyn Any + Send + Sync>> {
        let slot = {
            let values = lock(&self.values);
            Arc::clone(values.get(sig)?)
        };
        let filled = lock(&slot);
        let hit = filled.as_ref().map(|(value, _)| Arc::clone(value));
        if hit.is_some() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// A successor manager pre-populated with structures carried over
    /// unchanged from this one — the transaction layer's commit path,
    /// which carries the `cvals|` slots and the `@id` index and drops
    /// every other slot (a fold of a delta into a new base would have to
    /// drop the `cvals|` slots too, as their ids would change). The successor shares this manager's build/hit
    /// counters; seeded structures count as neither builds nor hits until
    /// probed.
    pub fn seeded(
        &self,
        element: ElementIndex,
        ids: Option<Arc<AttrIndex>>,
        values: Vec<(String, Arc<dyn Any + Send + Sync>, usize)>,
    ) -> IndexManager {
        let manager = IndexManager {
            counters: Arc::clone(&self.counters),
            ..IndexManager::new()
        };
        let _ = manager.element.set(element);
        if let Some(ids) = ids {
            let _ = manager.ids.set(ids);
        }
        {
            let mut map = lock(&manager.values);
            let mut bytes = 0u64;
            for (sig, value, size) in values {
                bytes += size as u64;
                map.insert(sig, Arc::new(Mutex::new(Some((value, size)))));
            }
            manager.value_bytes.store(bytes, Ordering::Relaxed);
        }
        manager
    }

    /// Every filled value slot `(signature, structure, bytes)` — what a
    /// commit filters: `cvals|` slots are carried, every other slot
    /// dropped.
    pub fn built_values(&self) -> Vec<(String, Arc<dyn Any + Send + Sync>, usize)> {
        // Release the map before waiting on any slot: a build holds its
        // slot while it probes other slots through the map.
        let slots: Vec<(String, Arc<ValueSlot>)> = lock(&self.values)
            .iter()
            .map(|(sig, slot)| (sig.clone(), Arc::clone(slot)))
            .collect();
        slots
            .into_iter()
            .filter_map(|(sig, slot)| {
                let filled = lock(&slot);
                let (value, bytes) = filled.as_ref()?;
                Some((sig, Arc::clone(value), *bytes))
            })
            .collect()
    }

    /// Eagerly build the whole-document indexes (element postings +
    /// `@id` values) — the warmup `Session`/`QueryService` expose so serving
    /// never pays a build on the request path. Value indexes warm on
    /// their first probing execution.
    pub fn build_all<S: XmlStore + ?Sized>(&self, store: &S) {
        self.element(store);
        self.ids(store);
    }

    /// Structures built since load.
    pub fn builds(&self) -> u64 {
        self.counters.builds.load(Ordering::Relaxed)
    }

    /// Probes served from an already-built structure.
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Both counters at once.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            builds: self.builds(),
            hits: self.hits(),
        }
    }

    /// Resident bytes of everything built so far — included in
    /// [`XmlStore::size_bytes`] and reported as its own Table 1 column.
    pub fn size_bytes(&self) -> usize {
        self.element.get().map_or(0, ElementIndex::size_bytes)
            + self.ids.get().map_or(0, |index| index.size_bytes())
            + self.value_bytes.load(Ordering::Relaxed) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_store, SystemId};

    const SAMPLE: &str = r#"<site><regions><europe><item id="item0"><name>cup</name></item><item id="item1"><name>ring</name></item></europe></regions><people><person id="person0"><name>Alice</name></person></people></site>"#;

    #[test]
    fn element_postings_match_descendant_walks_on_every_backend() {
        for system in SystemId::EXTENDED {
            let store = build_store(system, SAMPLE).unwrap();
            let store = store.as_ref();
            let index = store.indexes().element(store);
            assert!(index.ordered(), "{system} ids are pre-order");
            for tag in ["item", "name", "person", "ghost"] {
                let walked: Vec<u32> = store
                    .descendants_named_iter(store.root(), tag)
                    .map(|n| n.0)
                    .collect();
                assert_eq!(
                    index.postings_in(tag, store.root()).unwrap(),
                    &walked[..],
                    "{system} tag {tag}"
                );
                assert_eq!(index.count(tag), walked.len(), "{system} tag {tag}");
            }
            // Subtree scoping: names under europe exclude Alice's.
            let europe = store
                .descendants_named_iter(store.root(), "europe")
                .next()
                .unwrap();
            assert_eq!(index.count_in("name", europe), Some(2), "{system}");
        }
    }

    #[test]
    fn build_rejects_numberings_that_are_not_preorder() {
        let unordered = |root: u32, parents: &[Option<u32>]| {
            let index = ElementIndex::build(Node(root), parents.len(), |visit| {
                for (id, parent) in parents.iter().enumerate() {
                    visit(Node(id as u32), parent.map(Node), Some("e"));
                }
            });
            !index.ordered() && index.postings_in("e", Node(0)).is_none()
        };
        let child_before_parent: &[_] = &[None, Some(2), Some(0)];
        assert!(unordered(0, child_before_parent));
        assert!(unordered(1, &[Some(1), None, Some(1)]), "root other than 0");
        let parent_not_open: &[_] = &[None, Some(0), Some(0), Some(1)];
        assert!(unordered(0, parent_not_open));
        let skipping = ElementIndex::build(Node(0), 3, |visit| {
            visit(Node(0), None, Some("e"));
            visit(Node(2), Some(Node(0)), Some("e"));
        });
        assert!(!skipping.ordered(), "a scan that skips an id");
    }

    #[test]
    fn attribute_index_is_built_once_and_shared() {
        let store = build_store(SystemId::G, SAMPLE).unwrap();
        let store = store.as_ref();
        let manager = store.indexes();
        assert_eq!(manager.builds(), 0);
        let first = manager.ids(store);
        assert_eq!(manager.builds(), 1);
        let again = manager.ids(store);
        assert_eq!(manager.builds(), 1, "second access reuses the build");
        assert!(manager.hits() >= 1);
        assert!(std::ptr::eq(first, again));
        assert_eq!(first.len(), 3);
        assert_eq!(first.get("person0"), store.lookup_id("person0"));
    }

    #[test]
    fn concurrent_element_builds_happen_exactly_once() {
        let store = build_store(SystemId::A, SAMPLE).unwrap();
        let store = store.as_ref();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    store.indexes().element(store).count("item");
                    store.indexes().ids(store).get("item0");
                });
            }
        });
        // 4 threads × 2 structures → exactly 2 builds between them.
        assert_eq!(store.indexes().builds(), 2);
    }

    #[test]
    fn value_slots_build_once() {
        let manager = IndexManager::new();
        let build = || -> Result<_, std::convert::Infallible> {
            Ok((Arc::new(41usize) as Arc<dyn Any + Send + Sync>, 8))
        };
        let a = manager.value_or_build("sig", build).unwrap();
        assert_eq!(*a.downcast::<usize>().unwrap(), 41);
        assert_eq!(manager.builds(), 1);
        let _ = manager.value_or_build("sig", build).unwrap();
        assert_eq!(manager.builds(), 1, "slot hit");
        assert_eq!(manager.hits(), 1);
        assert!(manager.size_bytes() >= 8);
    }

    #[test]
    fn size_bytes_grows_as_indexes_build() {
        let store = build_store(SystemId::E, SAMPLE).unwrap();
        let store = store.as_ref();
        let before = store.size_bytes();
        store.indexes().build_all(store);
        let after = store.size_bytes();
        assert!(
            after > before,
            "built indexes must be accounted: {before} vs {after}"
        );
        assert_eq!(after - before, store.index_size_bytes());
    }
}
