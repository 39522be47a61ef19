//! The backend-neutral storage interface.
//!
//! §7 of the paper evaluates seven anonymized systems whose differences are
//! entirely *architectural*: what the physical mapping looks like and which
//! access paths it affords. [`XmlStore`] captures the contract the query
//! evaluator needs; each backend implements the navigation primitives with
//! the data structures its architecture would really use, and overrides the
//! optional accelerated access paths its architecture can offer. Default
//! method bodies are deliberately the *naive* strategy, so a backend's
//! performance profile emerges from what it overrides — exactly how the
//! paper explains its Table 3 ("each mapping favors certain types of
//! queries by enabling efficient execution plans for them").
//!
//! Navigation is expressed as **streaming axis cursors** (see
//! [`crate::axis`]): `children_iter`, `children_named_iter`,
//! `descendants_named_iter` and `attributes_iter` return concrete,
//! allocation-free iterator enums that walk each backend's native
//! structures lazily; each navigation primitive has exactly one spelling.
//! Text and attribute values come back as `Cow<str>`: the RAM-resident
//! backends lend them out, while backend H copies them off pinned pages,
//! so no backend needs a second, page-independent copy of the document.

use std::borrow::Cow;
use std::fmt;

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::{ChildValues, IndexManager};

/// A node handle. All stores number nodes in document (pre-)order during
/// bulkload, but handle order is not document order in general: snapshot
/// overlays give inserted nodes ids above the base range. Compare
/// [`XmlStore::doc_order_key`]s for document order (Q4's `BEFORE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub u32);

impl Node {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Which of the paper's anonymized systems a backend models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// Monolithic edge store (relational, one big heap relation).
    A,
    /// Fragmented binary store (relational, one relation per tag).
    B,
    /// DTD-inlined schema store (relational, entity tables).
    C,
    /// Main-memory store with a structural summary.
    D,
    /// Native interval store with per-tag start indexes.
    E,
    /// Native interval store without secondary indexes (scan-based).
    F,
    /// Embedded naive DOM walker.
    G,
    /// Disk-resident paged interval store (buffer pool + WAL).
    H,
}

impl SystemId {
    /// All mass-storage systems (Table 1 / Table 3 of the paper).
    pub const MASS_STORAGE: [SystemId; 6] = [
        SystemId::A,
        SystemId::B,
        SystemId::C,
        SystemId::D,
        SystemId::E,
        SystemId::F,
    ];

    /// All seven systems of the paper (§7). The disk-resident backend H
    /// is this repo's extension and lives in [`SystemId::EXTENDED`], so
    /// paper-faithful reports stay seven rows.
    pub const ALL: [SystemId; 7] = [
        SystemId::A,
        SystemId::B,
        SystemId::C,
        SystemId::D,
        SystemId::E,
        SystemId::F,
        SystemId::G,
    ];

    /// The paper's seven systems plus the disk-resident backend H.
    pub const EXTENDED: [SystemId; 8] = [
        SystemId::A,
        SystemId::B,
        SystemId::C,
        SystemId::D,
        SystemId::E,
        SystemId::F,
        SystemId::G,
        SystemId::H,
    ];

    /// Short architecture description (used in reports).
    pub fn architecture(self) -> &'static str {
        match self {
            SystemId::A => "relational: monolithic edge table",
            SystemId::B => "relational: fragmented per-tag tables",
            SystemId::C => "relational: DTD-inlined entity tables",
            SystemId::D => "native: structural summary + columnar tree",
            SystemId::E => "native: containment intervals, tag-indexed",
            SystemId::F => "native: containment intervals, scan-based",
            SystemId::G => "embedded: interpretive DOM walker",
            SystemId::H => "disk: paged intervals, buffer pool + WAL",
        }
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "System {:?}", self)
    }
}

/// Positional access requested through [`XmlStore::positional_child`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionSpec {
    /// 1-based index from the front (`bidder[1]`).
    First(usize),
    /// `bidder[last()]`.
    Last,
}

/// The access paths a backend's physical mapping offers, resolved once at
/// compile time. The planner reads this to pick plan operators (ID probes,
/// positional indexes, inlined scalar tails, summary counts) instead of
/// probing the store per node at execution time; the executor still falls
/// back gracefully if a particular node is not covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerCaps {
    /// [`XmlStore::lookup_id`] is backed by a real ID index.
    pub id_index: bool,
    /// [`XmlStore::positional_child`] is backed by a positional index.
    pub positional_index: bool,
    /// [`XmlStore::typed_child_value`] answers inlined `tag/text()` tails
    /// (System C's entity columns).
    pub inlined_values: bool,
    /// [`XmlStore::count_descendants_named`] is summary/extent arithmetic,
    /// not a node walk (Systems D and E).
    pub summary_counts: bool,
    /// The shared element-name index ([`crate::index::ElementIndex`])
    /// should answer `count(…//tag)` on this mapping: the count is a
    /// posting range's length instead of a walk. Backends whose native
    /// descendant access is already extent-based (Systems D and E) leave
    /// this off — their architecture *is* the index.
    pub element_index: bool,
}

/// A per-step cardinality estimate the catalog resolves during query
/// compilation — the selectivity input of the cost-based planner — and
/// what resolving it cost (the Table 2 metadata column).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepEstimate {
    /// Extent cardinality of the step's tag: exact counts on the
    /// "perfect statistics" mappings, `0` where the backend has none
    /// (System F's "heuristic optimizer guesses").
    pub rows: u64,
    /// Catalog metadata accesses this resolution made — one relation
    /// descriptor plus index statistics for System A, four name-keyed
    /// descriptors for System B, and so on.
    pub metadata_accesses: u64,
}

/// The storage contract. Handles are only meaningful within the store that
/// produced them.
///
/// Every store is `Send + Sync`: bulkload builds immutable structures and
/// planning only reads them (each [`StepEstimate`] carries its own
/// metadata-access count), so a loaded store can be shared across query
/// worker threads behind an `Arc<dyn XmlStore>` (the concurrent service
/// layer in `xmark::service` relies on this).
pub trait XmlStore: Send + Sync {
    /// Which paper system this store models.
    fn system(&self) -> SystemId;

    /// Root element.
    fn root(&self) -> Node;

    /// Total stored nodes (elements + text nodes).
    fn node_count(&self) -> usize;

    /// Resident bytes of the store's data structures (Table 1 "Size"),
    /// **including** whatever the shared [`IndexManager`] has built so
    /// far ([`XmlStore::index_size_bytes`]).
    fn size_bytes(&self) -> usize;

    /// The store's persistent index subsystem: lazily-built, thread-safe,
    /// shared element/attribute/value indexes (see [`crate::index`]).
    /// Every backend owns exactly one manager for its lifetime.
    fn indexes(&self) -> &IndexManager;

    /// Resident bytes of the built shared indexes — the "Index" column of
    /// the Table 1 report, already included in [`XmlStore::size_bytes`].
    fn index_size_bytes(&self) -> usize {
        self.indexes().size_bytes()
    }

    /// On-disk bytes of the store's persistent files (page file + WAL).
    /// `0` for RAM-resident backends — for those, [`XmlStore::size_bytes`]
    /// is the whole story; for disk-resident backends the two numbers
    /// separate the memory budget from the storage footprint.
    fn disk_bytes(&self) -> usize {
        0
    }

    /// Buffer-pool counters, for backends that serve reads through one
    /// (`None` for RAM-resident backends). Benches report these as the
    /// pages-read / hit-rate columns.
    fn paged_stats(&self) -> Option<crate::paged::PoolStats> {
        None
    }

    // ---- versioning / write hooks ---------------------------------------

    /// Monotonic content version of the data this store serves.
    ///
    /// Every bulkloaded backend is immutable and permanently at epoch 0.
    /// MVCC snapshot overlays (the `xmark-txn` crate) report the commit
    /// epoch of the version they pin, so two handles with equal epochs
    /// serve byte-identical content. The epoch identifies a snapshot's
    /// content for consistency checks; compiled plans do not key on it,
    /// since a plan compiled at one epoch runs correctly at every other.
    fn content_epoch(&self) -> u64 {
        0
    }

    /// Total-order key for document-order comparison (`Q4`'s `BEFORE`).
    ///
    /// Bulkloaded backends number nodes in document pre-order, so the id
    /// itself is the key. Snapshot overlays assign fresh ids *above* the
    /// base range to inserted nodes and override this with an order rank
    /// that interleaves them correctly.
    fn doc_order_key(&self, n: Node) -> u64 {
        n.0 as u64
    }

    /// The durable write-ahead log the transaction commit protocol must
    /// append redo/undo records through before publishing a commit.
    /// `None` (the default) means the backend is RAM-resident and commits
    /// need no durability step; backend H returns its WAL.
    fn txn_wal(&self) -> Option<&crate::paged::LogManager> {
        None
    }

    // ---- sharding hook ----------------------------------------------------

    /// Number of physical shard *parts* behind this store, counting the
    /// global head: `0` for monolithic backends, `entity shards + 1` for
    /// the sharded union view.
    fn shard_part_count(&self) -> usize {
        0
    }

    /// Tag name for elements, `None` for text nodes.
    fn tag_of(&self, n: Node) -> Option<&str>;

    /// Parent node.
    fn parent(&self, n: Node) -> Option<Node>;

    /// Text content of a *text node* (`None` for elements): borrowed on
    /// the RAM-resident backends, read off the page on backend H.
    fn text(&self, n: Node) -> Option<Cow<'_, str>>;

    /// Whether `n` is a text node. Equivalent to `text(n).is_some()`,
    /// but answerable without materializing the content — disk-resident
    /// backends test a tag code on the node page instead of fetching
    /// text bytes, so `child::text()` existence tests stay cheap.
    fn is_text_node(&self, n: Node) -> bool {
        self.text(n).is_some()
    }

    /// The value of `n`'s attribute `name`. Backends A–G lend it from
    /// their resident node, attribute or fragment tables, and a snapshot
    /// or a sharded union lends what its delta or its owning shard lends;
    /// backend H copies it off the pinned page.
    fn attribute(&self, n: Node, name: &str) -> Option<Cow<'_, str>>;

    // ---- whole-document scans (index builds) -----------------------------

    /// Call `visit(n, parent(n), tag_of(n))` for every node `n`, in id
    /// order `0..node_count` — the input of the element index's build
    /// scan. The default asks [`XmlStore::parent`] and
    /// [`XmlStore::tag_of`] per node. Backend H overrides it with one
    /// sequential pass over its node pages, since each of those calls
    /// pins a page there.
    fn for_each_parent_and_tag<'a>(
        &'a self,
        visit: &mut dyn FnMut(Node, Option<Node>, Option<&'a str>),
    ) {
        for id in 0..self.node_count() as u32 {
            let n = Node(id);
            visit(n, self.parent(n), self.tag_of(n));
        }
    }

    /// Call `visit(n, value)` for every node `n` that carries attribute
    /// `name`, in id order, with [`XmlStore::attribute`]'s value — the
    /// input of the `@id` index's build scan. The default probes every
    /// node by name. Backend H overrides it with one sequential pass over
    /// its attribute pages, which hold the records in owner order, so a
    /// probe need not locate each node's records anew.
    fn for_each_attribute_value(&self, name: &str, visit: &mut dyn FnMut(Node, &str)) {
        for id in 0..self.node_count() as u32 {
            if let Some(value) = self.attribute(Node(id), name) {
                visit(Node(id), &value);
            }
        }
    }

    // ---- streaming axes --------------------------------------------------

    /// Cursor over all children (elements and text nodes) in document
    /// order. Backends walk their native structures lazily; no
    /// intermediate `Vec<Node>` is built.
    fn children_iter(&self, n: Node) -> ChildIter<'_>;

    /// Cursor over the attributes of `n` in the store's canonical order,
    /// as `(name, value)` pairs (see [`AttrIter`] for what is borrowed).
    fn attributes_iter(&self, n: Node) -> AttrIter<'_>;

    /// Cursor over element children with the given tag, in document order.
    /// Backends test tags natively (interned symbols, tag codes, per-tag
    /// fragments).
    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a>;

    /// Cursor over descendant elements with the given tag, in document
    /// order, through the backend's native access path (tag extents, stab
    /// joins, summary extents, stackless DOM walks);
    /// [`descendants_by_cursors`] is the generic walk over the cursors.
    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a>;

    // ---- derived / accelerated access paths -----------------------------

    /// Count of descendant elements with the given tag. Backends with
    /// structural summaries (System D) answer this without touching nodes —
    /// the paper's Q6/Q7 observation.
    fn count_descendants_named(&self, n: Node, tag: &str) -> usize {
        self.descendants_named_iter(n, tag).count()
    }

    /// Look up an element by its `id` attribute (DTD `ID`).
    ///
    /// One code path for all eight backends: the shared attribute-value
    /// index ([`IndexManager::ids`]), built lazily on first use and
    /// shared for the store's lifetime. Whether the *planner* schedules ID
    /// probes on a backend remains an architectural statement
    /// ([`PlannerCaps::id_index`]): Systems F and G still plan Q1 as a
    /// scan, faithful to the paper, even though a direct `lookup_id` call
    /// answers.
    fn lookup_id(&self, id: &str) -> Option<Node> {
        self.indexes().ids(self).get(id)
    }

    /// Inlined scalar access: the string value of the unique `tag` child of
    /// `n`, *if* this store inlines that value (System C's entity tables).
    /// Outer `None` = not inlined here; inner `None` = inlined but NULL.
    fn typed_child_value(&self, _n: Node, _tag: &str) -> Option<Option<String>> {
        None
    }

    /// `values`' entry for `n` — the text nodes of `n`'s `tag` children,
    /// as this store's child-value index of `tag` recorded them — *if*
    /// that entry is exact here. Outer `None` = not covered: the caller
    /// walks `n`'s `tag` children itself. The default trusts the index;
    /// a snapshot overlay, whose index may have been built over an
    /// earlier epoch, answers only for a clean subtree.
    fn indexed_child_values<'v>(&self, values: &'v ChildValues, n: Node) -> Option<&'v [u32]> {
        Some(values.get(n))
    }

    /// Positional child access (`bidder[1]`, `bidder[last()]`) if the store
    /// maintains a positional index (System C). Outer `None` = unsupported.
    fn positional_child(&self, _n: Node, _tag: &str, _pos: PositionSpec) -> Option<Option<Node>> {
        None
    }

    /// The concatenated text of the subtree ("string value").
    fn string_value(&self, n: Node) -> String {
        let mut out = String::new();
        self.string_value_into(n, &mut out);
        out
    }

    /// Append the string value of `n` to `out`. The default is
    /// [`string_value_by_cursors`].
    fn string_value_into(&self, n: Node, out: &mut String) {
        string_value_by_cursors(self, n, out);
    }

    /// Serialize the subtree rooted at `n` as XML text (Q13
    /// "reconstruction") into an arbitrary [`fmt::Write`] sink — the
    /// primitive behind the query layer's streaming `write_to`
    /// serialization: result bytes flow to the sink item by item instead
    /// of accumulating in one output `String`. The default is
    /// [`serialize_by_cursors`].
    fn serialize_node_to(&self, n: Node, out: &mut dyn fmt::Write) -> fmt::Result {
        serialize_by_cursors(self, n, out)
    }

    // ---- compile-phase hooks (Table 2) -----------------------------------

    /// The access paths this mapping offers the planner. Resolved once per
    /// compilation; the default claims nothing, forcing generic plans
    /// (System G).
    fn planner_caps(&self) -> PlannerCaps {
        PlannerCaps::default()
    }

    /// Resolve catalog statistics for one path step, called by the
    /// compiler with the step's tag. The backend resolves whatever catalog
    /// metadata its architecture needs — one heap-relation descriptor for
    /// System A, a per-tag table for System B — and returns the extent
    /// cardinality the optimizer consumes together with the number of
    /// metadata accesses that took. The default has neither statistics
    /// nor a catalog: `0` rows, `0` accesses.
    fn estimate_step(&self, _tag: &str) -> StepEstimate {
        StepEstimate::default()
    }
}

/// The string value of `n` reassembled node by node through the streaming
/// cursors — the default [`XmlStore::string_value_into`]. Each child goes
/// back through `store.string_value_into`, so an overlay that overrides
/// it for clean subtrees gets them at every level of a dirty one.
pub fn string_value_by_cursors<S: XmlStore + ?Sized>(store: &S, n: Node, out: &mut String) {
    if let Some(t) = store.text(n) {
        out.push_str(&t);
        return;
    }
    for child in store.children_iter(n) {
        store.string_value_into(child, out);
    }
}

/// The `tag` descendants of `n` in document order, collected by a
/// depth-first walk over the streaming cursors: a snapshot's fallback
/// for [`XmlStore::descendants_named_iter`] where no index can stab, and
/// the reference its overlay scans are tested against.
pub fn descendants_by_cursors<'a, S: XmlStore + ?Sized>(
    store: &S,
    n: Node,
    tag: &str,
) -> DescendantsNamed<'a> {
    let mut out = Vec::new();
    let mut stack: Vec<Node> = store.children_iter(n).collect();
    stack.reverse();
    while let Some(cur) = stack.pop() {
        if store.tag_of(cur) == Some(tag) {
            out.push(cur);
        }
        let before = stack.len();
        stack.extend(store.children_iter(cur));
        stack[before..].reverse();
    }
    DescendantsNamed::from_vec(out)
}

/// `n` serialized node by node through the streaming cursors — the
/// default [`XmlStore::serialize_node_to`], and precisely the cost the
/// paper says Q13 measures. Children recurse through
/// `store.serialize_node_to`, as in [`string_value_by_cursors`].
pub fn serialize_by_cursors<S: XmlStore + ?Sized>(
    store: &S,
    n: Node,
    out: &mut dyn fmt::Write,
) -> fmt::Result {
    if let Some(t) = store.text(n) {
        return xmark_xml::escape::escape_text_to(&t, out);
    }
    let tag = store.tag_of(n).expect("serialize of non-node");
    out.write_char('<')?;
    out.write_str(tag)?;
    for (name, value) in store.attributes_iter(n) {
        out.write_char(' ')?;
        out.write_str(name)?;
        out.write_str("=\"")?;
        xmark_xml::escape::escape_attr_to(&value, out)?;
        out.write_char('"')?;
    }
    let mut children = store.children_iter(n);
    match children.next() {
        None => out.write_str("/>"),
        Some(first) => {
            out.write_char('>')?;
            store.serialize_node_to(first, out)?;
            for child in children {
                store.serialize_node_to(child, out)?;
            }
            out.write_str("</")?;
            out.write_str(tag)?;
            out.write_char('>')
        }
    }
}

/// A handle that resolves the *current* consistent store version on
/// demand — the seam between the read path and the transaction layer.
///
/// The concurrent `QueryService` holds one of these instead of a fixed
/// `Arc<dyn XmlStore>`: each request calls [`StoreSource::snapshot`]
/// once and executes entirely against the pinned version, so readers
/// never block on (or observe half of) a concurrent commit. A plain
/// shared store is its own source (the blanket impl below); the
/// `xmark-txn` crate's `VersionedStore` returns its latest published
/// snapshot.
pub trait StoreSource: Send + Sync {
    /// Pin and return the current version. Cheap (an `Arc` clone).
    fn snapshot(&self) -> std::sync::Arc<dyn XmlStore>;
}

impl StoreSource for std::sync::Arc<dyn XmlStore> {
    fn snapshot(&self) -> std::sync::Arc<dyn XmlStore> {
        std::sync::Arc::clone(self)
    }
}
