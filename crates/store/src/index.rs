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
//!   predicate-free descendant step becomes an **IndexScan**: two binary
//!   searches stab the posting list with the context's subtree range and
//!   the matches stream off the slice, replacing full descendant walks
//!   (System A's parent-chain climbs, System F's interval scans, System
//!   G's DOM traversals).
//! * **Attribute-value index** ([`AttrIndex`]) — attribute value → first
//!   element carrying it, per attribute name. This single code path now
//!   answers [`XmlStore::lookup_id`] on *all seven* backends; the
//!   per-backend `@id` hash maps are retired.
//! * **Value indexes** — planner-signature-keyed slots holding the query
//!   layer's join build sides and decorrelated lookup indexes
//!   (canonical key → postings). The signatures exist only for
//!   loop-invariant (source, key-path) pairs, so a built slot is valid
//!   for the lifetime of the store; repeated executions of the join
//!   queries (Q8–Q12) probe instead of rebuilding.
//!
//! Builds are exactly-once under concurrency: the element index sits in a
//! [`OnceLock`], and attribute/value slots are per-key locks, so two
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
//! `[n, subtree_end(n)]`. All seven backends number nodes that way; the
//! build walk *verifies* it (ids strictly increase along the pre-order
//! traversal) and marks the index [`ElementIndex::ordered`] only when the
//! invariant holds. An unordered store — none exist today, but the check
//! keeps the contract honest — degrades gracefully: `postings_in` returns
//! `None` and both the planner and the executor fall back to the native
//! streamed axis cursors.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sync::lock;
use crate::traits::{Node, XmlStore};

/// Rough per-entry overhead of a `HashMap<String, _>` (bucket + hash +
/// `String` header) used by the size accounting.
const MAP_ENTRY_OVERHEAD: usize = 48;

/// Visit every node of `store` in document (pre-)order — the shared walk
/// behind the whole-document index builds. (The element index keeps its
/// own specialized walk: it also needs subtree-exit events.)
fn preorder<S: XmlStore + ?Sized>(store: &S, mut visit: impl FnMut(Node)) {
    let root = store.root();
    visit(root);
    let mut stack = vec![store.children_iter(root)];
    while let Some(iter) = stack.last_mut() {
        match iter.next() {
            Some(child) => {
                visit(child);
                stack.push(store.children_iter(child));
            }
            None => {
                stack.pop();
            }
        }
    }
}

/// The element-name index: per tag, the document-ordered posting list of
/// element node ids, plus each node's subtree end for range stabbing.
pub struct ElementIndex {
    /// tag → ascending node ids (document order). Lists are `Arc`-shared
    /// so the transaction layer's incremental maintenance clones the map
    /// in O(tags) and replaces only the lists a commit touched.
    postings: HashMap<String, Arc<Vec<u32>>>,
    /// node id → largest id in its subtree (inclusive). Indexed by id.
    subtree_end: Arc<Vec<u32>>,
    /// Whether ids were verified to increase along the pre-order walk —
    /// the invariant subtree stabbing rests on.
    ordered: bool,
    /// Total elements indexed.
    elements: usize,
}

impl ElementIndex {
    /// Build by one pre-order walk over `store`'s streaming axis cursors.
    fn build<S: XmlStore + ?Sized>(store: &S) -> ElementIndex {
        let root = store.root();
        let mut postings: HashMap<String, Arc<Vec<u32>>> = HashMap::new();
        let mut subtree_end: Vec<u32> = vec![0; store.node_count()];
        let mut ordered = true;
        let mut elements = 0usize;

        let mut push_posting = |n: Node, elements: &mut usize| {
            if let Some(tag) = store.tag_of(n) {
                *elements += 1;
                match postings.get_mut(tag) {
                    // Arc never escapes during the build, so this is a
                    // plain in-place push.
                    Some(list) => Arc::make_mut(list).push(n.0),
                    None => {
                        postings.insert(tag.to_string(), Arc::new(vec![n.0]));
                    }
                }
            }
        };
        push_posting(root, &mut elements);

        // Iterative pre-order DFS. While ids stay monotonic, the last
        // visited id at the moment a node is popped is exactly the end of
        // its subtree.
        let mut last = root.0;
        if (root.index()) >= subtree_end.len() {
            subtree_end.resize(root.index() + 1, 0);
        }
        let mut stack = vec![(root, store.children_iter(root))];
        while let Some((_, iter)) = stack.last_mut() {
            match iter.next() {
                Some(child) => {
                    if child.0 <= last {
                        ordered = false;
                    }
                    last = last.max(child.0);
                    if child.index() >= subtree_end.len() {
                        subtree_end.resize(child.index() + 1, 0);
                    }
                    push_posting(child, &mut elements);
                    stack.push((child, store.children_iter(child)));
                }
                None => {
                    let (done, _) = stack.pop().expect("non-empty while looping");
                    subtree_end[done.index()] = last;
                }
            }
        }
        ElementIndex {
            postings,
            subtree_end: Arc::new(subtree_end),
            ordered,
            elements,
        }
    }

    /// Assemble an index from pre-computed parts — the transaction
    /// layer's incremental maintenance path. `ordered` must only be
    /// passed as `true` when every posting list is ascending in node id
    /// *and* `subtree_end` covers every listed id.
    pub fn from_parts(
        postings: HashMap<String, Arc<Vec<u32>>>,
        subtree_end: Arc<Vec<u32>>,
        ordered: bool,
        elements: usize,
    ) -> ElementIndex {
        ElementIndex {
            postings,
            subtree_end,
            ordered,
            elements,
        }
    }

    /// The shared posting map — cheap to clone (O(tags) `Arc` bumps) for
    /// copy-on-write maintenance.
    pub fn shared_postings(&self) -> &HashMap<String, Arc<Vec<u32>>> {
        &self.postings
    }

    /// The shared subtree-end array.
    pub fn shared_subtree_end(&self) -> &Arc<Vec<u32>> {
        &self.subtree_end
    }

    /// The largest id inside `n`'s subtree, when known.
    pub fn subtree_end_of(&self, n: Node) -> Option<u32> {
        self.subtree_end.get(n.index()).copied()
    }

    /// Whether subtree stabbing is valid (ids verified pre-order).
    pub fn ordered(&self) -> bool {
        self.ordered
    }

    /// Exact extent cardinality of `tag` over the whole document.
    pub fn count(&self, tag: &str) -> usize {
        self.postings.get(tag).map_or(0, |list| list.len())
    }

    /// Total elements indexed.
    pub fn elements(&self) -> usize {
        self.elements
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

/// A per-attribute-name value index: value → the first (document-order)
/// element carrying `name="value"`. DTD `ID` values are unique, so "first"
/// is also "only" for the `id` index this backs.
pub struct AttrIndex {
    map: HashMap<String, u32>,
}

impl AttrIndex {
    fn build<S: XmlStore + ?Sized>(store: &S, name: &str) -> AttrIndex {
        let mut map = HashMap::new();
        preorder(store, |n| {
            // A by-name probe, not the whole attribute list: every
            // backend allocates only when the node carries `name`.
            if let Some(value) = store.attribute(n, name) {
                map.entry(value).or_insert(n.0);
            }
        });
        AttrIndex { map }
    }

    /// Assemble from a pre-computed map — the transaction layer's
    /// incremental upsert path.
    pub fn from_map(map: HashMap<String, u32>) -> AttrIndex {
        AttrIndex { map }
    }

    /// A copy of the underlying map, for copy-on-write maintenance.
    pub fn clone_map(&self) -> HashMap<String, u32> {
        self.map.clone()
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

    /// Assemble from a pre-computed map — the transaction layer's
    /// incremental upsert path.
    pub fn from_map(map: HashMap<u32, Vec<u32>>) -> ChildValues {
        ChildValues { map }
    }

    /// A copy of the underlying map, for copy-on-write maintenance.
    pub fn clone_map(&self) -> HashMap<u32, Vec<u32>> {
        self.map.clone()
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
    /// attribute indexes, value-index slots).
    pub builds: u64,
    /// Probes answered from an already-built structure.
    pub hits: u64,
}

/// The per-store index service: lazily-built, exactly-once, thread-safe
/// shared structures (see the [module docs](self)).
pub struct IndexManager {
    element: OnceLock<ElementIndex>,
    attrs: Mutex<HashMap<String, Arc<OnceLock<Arc<AttrIndex>>>>>,
    values: Mutex<HashMap<String, Arc<ValueSlot>>>,
    /// Bytes held by filled value slots (tracked separately because the
    /// slot payloads are type-erased).
    value_bytes: AtomicU64,
    builds: AtomicU64,
    hits: AtomicU64,
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
            attrs: Mutex::new(HashMap::new()),
            values: Mutex::new(HashMap::new()),
            value_bytes: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The element-name index, building it on first use (exactly once,
    /// even under concurrent callers).
    pub fn element<S: XmlStore + ?Sized>(&self, store: &S) -> &ElementIndex {
        let mut built = false;
        let index = self.element.get_or_init(|| {
            built = true;
            self.builds.fetch_add(1, Ordering::Relaxed);
            ElementIndex::build(store)
        });
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        index
    }

    /// The element-name index if it has been built, without triggering a
    /// build.
    pub fn element_if_built(&self) -> Option<&ElementIndex> {
        self.element.get()
    }

    /// The value index for attribute `name`, building it on first use
    /// (exactly once, even under concurrent callers).
    pub fn attribute<S: XmlStore + ?Sized>(&self, store: &S, name: &str) -> Arc<AttrIndex> {
        let slot = {
            let mut attrs = lock(&self.attrs);
            Arc::clone(attrs.entry(name.to_string()).or_default())
        };
        let mut built = false;
        let index = slot.get_or_init(|| {
            built = true;
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(AttrIndex::build(store, name))
        });
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(index)
    }

    /// `@id` lookup through the shared attribute-value index — the single
    /// code path behind [`XmlStore::lookup_id`] on every backend.
    pub fn lookup_id<S: XmlStore + ?Sized>(&self, store: &S, id: &str) -> Option<Node> {
        self.attribute(store, "id").get(id)
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
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(value));
        }
        let (value, bytes) = build()?;
        *filled = Some((Arc::clone(&value), bytes));
        self.value_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.builds.fetch_add(1, Ordering::Relaxed);
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
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// A manager pre-populated with structures carried over (and
    /// incrementally maintained) from a predecessor snapshot — the
    /// transaction layer's commit path. Seeded structures count as
    /// neither builds nor hits until probed.
    pub fn seeded(
        element: Option<ElementIndex>,
        attrs: Vec<(String, Arc<AttrIndex>)>,
        values: Vec<(String, Arc<dyn Any + Send + Sync>, usize)>,
    ) -> IndexManager {
        let manager = IndexManager::new();
        if let Some(index) = element {
            let _ = manager.element.set(index);
        }
        {
            let mut map = lock(&manager.attrs);
            for (name, index) in attrs {
                let slot = Arc::new(OnceLock::new());
                let _ = slot.set(index);
                map.insert(name, slot);
            }
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

    /// Every attribute index built so far, by name — what a commit
    /// carries forward into the successor snapshot's manager.
    pub fn built_attrs(&self) -> Vec<(String, Arc<AttrIndex>)> {
        lock(&self.attrs)
            .iter()
            .filter_map(|(name, slot)| Some((name.clone(), Arc::clone(slot.get()?))))
            .collect()
    }

    /// Every filled value slot `(signature, structure, bytes)` — what a
    /// commit filters through signature invalidation and carries forward.
    pub fn built_values(&self) -> Vec<(String, Arc<dyn Any + Send + Sync>, usize)> {
        lock(&self.values)
            .iter()
            .filter_map(|(sig, slot)| {
                let filled = lock(slot);
                let (value, bytes) = filled.as_ref()?;
                Some((sig.clone(), Arc::clone(value), *bytes))
            })
            .collect()
    }

    /// Eagerly build the store-walk indexes (element postings + `@id`
    /// values) — the warmup `Session`/`QueryService` expose so serving
    /// never pays a build on the request path. Value indexes warm on
    /// their first probing execution.
    pub fn build_all<S: XmlStore + ?Sized>(&self, store: &S) {
        self.element(store);
        self.attribute(store, "id");
    }

    /// Structures built since load.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Probes served from an already-built structure.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
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
        let mut total = self.element.get().map_or(0, ElementIndex::size_bytes);
        for slot in lock(&self.attrs).values() {
            total += slot.get().map_or(0, |index| index.size_bytes());
        }
        total + self.value_bytes.load(Ordering::Relaxed) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_store, SystemId};

    const SAMPLE: &str = r#"<site><regions><europe><item id="item0"><name>cup</name></item><item id="item1"><name>ring</name></item></europe></regions><people><person id="person0"><name>Alice</name></person></people></site>"#;

    #[test]
    fn element_postings_match_descendant_walks_on_every_backend() {
        for system in SystemId::ALL {
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
    fn attribute_index_is_built_once_and_shared() {
        let store = build_store(SystemId::G, SAMPLE).unwrap();
        let store = store.as_ref();
        let manager = store.indexes();
        assert_eq!(manager.builds(), 0);
        let first = manager.attribute(store, "id");
        assert_eq!(manager.builds(), 1);
        let again = manager.attribute(store, "id");
        assert_eq!(manager.builds(), 1, "second access reuses the build");
        assert!(manager.hits() >= 1);
        assert!(Arc::ptr_eq(&first, &again));
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
                    store.indexes().lookup_id(store, "item0");
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
