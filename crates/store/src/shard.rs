//! Sharded union view: one logical document over N physical shards.
//!
//! [`ShardedStore`] presents a set of per-shard [`XmlStore`]s — shard 0
//! holding the shared `regions`/`categories`/`catgraph` head, shards
//! `1..=N` holding contiguous entity ranges (see
//! `xmark_gen::generate_sharded`) — as a single logical `<site>` document
//! implementing the full [`XmlStore`] contract. Every backend works as
//! the shard type, including the disk-resident paged backend H, whose
//! per-shard page files open cold without re-parsing.
//!
//! **Global ids are logical pre-order positions.** The union assigns one
//! dense id space: `0` is the fused `site` root, each of the six section
//! elements is fused into one virtual node, and each shard's section
//! contents map through a constant per-segment offset into a contiguous
//! global range — section by section, shard by shard, in document order.
//! Consequences that fall out for free:
//!
//! * document order (`<<`, [`XmlStore::doc_order_key`]) is plain id order,
//! * axis cursors over fused nodes are **ordered merges**: concatenating
//!   the shards' cursors in shard order *is* the document-order merge,
//! * [`XmlStore::count_descendants_named`] on fused nodes is a
//!   **partial-aggregate combine**: per-shard counts summed, each answered
//!   by whatever summary/extent arithmetic the shard backend has,
//! * the union owns its own [`IndexManager`], so id lookups, element
//!   postings and the query layer's shared join build sides work
//!   unchanged — the shard stores' own index managers stay empty.
//!
//! Queries therefore run on the union through the same executor as on
//! any monolithic store.
//!
//! The per-shard *section elements* (`<people>` in shard 2, say) are
//! shadowed: they are never surfaced as nodes of the union; their fused
//! counterparts stand in for them. Navigation below a section's children
//! is pure delegation plus a constant id offset.

use std::borrow::Cow;
use std::fmt;

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::IndexManager;
use crate::traits::{
    serialize_by_cursors, string_value_by_cursors, Node, PlannerCaps, PositionSpec, StepEstimate,
    SystemId, XmlStore,
};

/// One contiguous run of global ids owned by a `(shard, section)` pair:
/// the descendants of that shard's section element, local pre-order,
/// mapped through a constant offset.
#[derive(Debug, Clone, Copy)]
struct Seg {
    /// First global id of the run.
    gstart: u32,
    /// One past the last global id.
    gend: u32,
    /// Owning shard (0 = global head shard).
    shard: u32,
    /// Local id of the first content node (`lsec + 1`).
    lstart: u32,
    /// Local id of the shard's shadowed section element.
    lsec: u32,
    /// Section index (0..6).
    section: u32,
}

impl Seg {
    /// The constant local→global offset of this segment.
    #[inline]
    fn to_global(self, local: Node) -> Node {
        debug_assert!(local.0 >= self.lstart && local.0 - self.lstart < self.gend - self.gstart);
        Node(self.gstart + (local.0 - self.lstart))
    }
}

/// Where a global id lands in the union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// The fused `site` root (global id 0).
    Root,
    /// The fused section element with this section index.
    Section(usize),
    /// Inside segment `.0`, at this local id of the owning shard.
    In(usize, Node),
}

/// Errors assembling a union view from shard stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Fewer than two stores (global head + at least one entity shard).
    TooFewShards(usize),
    /// A shard's root/section skeleton differs from shard 0's.
    SkeletonMismatch(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::TooFewShards(n) => {
                write!(f, "sharded store needs >= 2 shard documents, got {n}")
            }
            ShardError::SkeletonMismatch(why) => write!(f, "shard skeleton mismatch: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// The sharded union view. See the module docs for the id-space design.
pub struct ShardedStore {
    /// `[global head, entity shard 0, entity shard 1, …]`.
    shards: Vec<Box<dyn XmlStore>>,
    /// Root tag (always `site` for XMark documents).
    root_tag: String,
    /// Section tags in document order.
    sections: Vec<String>,
    /// Global id of each fused section element (ascending).
    section_gid: Vec<u32>,
    /// Content segments, ascending by `gstart`.
    segs: Vec<Seg>,
    /// Per `(shard, section)`: local id of the shadowed section element.
    sec_local: Vec<Vec<u32>>,
    /// Per `(shard, section)`: index into `segs`, `None` when empty.
    seg_of: Vec<Vec<Option<usize>>>,
    /// Total nodes in the union (fused + content).
    node_count: usize,
    /// The union's own persistent index subsystem (global-id space).
    indexes: IndexManager,
}

impl ShardedStore {
    /// Assemble a union view over already-loaded shard stores:
    /// `shards[0]` is the global head, `shards[1..]` the entity shards.
    /// Every shard must present the same root tag and section skeleton.
    pub fn from_shards(shards: Vec<Box<dyn XmlStore>>) -> Result<ShardedStore, ShardError> {
        if shards.len() < 2 {
            return Err(ShardError::TooFewShards(shards.len()));
        }
        let root_tag = shards[0]
            .tag_of(shards[0].root())
            .ok_or_else(|| ShardError::SkeletonMismatch("shard 0 root is not an element".into()))?
            .to_string();
        let sections: Vec<String> = shards[0]
            .children_iter(shards[0].root())
            .filter_map(|c| shards[0].tag_of(c).map(str::to_string))
            .collect();
        if sections.is_empty() {
            return Err(ShardError::SkeletonMismatch(
                "shard 0 root has no section elements".into(),
            ));
        }

        // Per shard: section element local ids and content ranges. Stores
        // number nodes in document pre-order, so the descendants of
        // section `s` occupy the local ids strictly between section `s`'s
        // element and the next section element (or the end of the store).
        let mut sec_local: Vec<Vec<u32>> = Vec::with_capacity(shards.len());
        let mut ranges: Vec<Vec<(u32, u32)>> = Vec::with_capacity(shards.len());
        for (j, shard) in shards.iter().enumerate() {
            if shard.tag_of(shard.root()) != Some(root_tag.as_str()) {
                return Err(ShardError::SkeletonMismatch(format!(
                    "shard {j} root tag differs from {root_tag:?}"
                )));
            }
            let secs: Vec<Node> = shard.children_iter(shard.root()).collect();
            let tags: Vec<&str> = secs.iter().filter_map(|&c| shard.tag_of(c)).collect();
            if tags.len() != sections.len() || tags.iter().zip(&sections).any(|(a, b)| *a != b) {
                return Err(ShardError::SkeletonMismatch(format!(
                    "shard {j} sections {tags:?} != {:?}",
                    sections
                )));
            }
            let mut locals = Vec::with_capacity(secs.len());
            let mut spans = Vec::with_capacity(secs.len());
            for (s, &sec) in secs.iter().enumerate() {
                let start = sec.0 + 1;
                let end = if s + 1 < secs.len() {
                    secs[s + 1].0
                } else {
                    shard.node_count() as u32
                };
                debug_assert!(end >= start, "pre-order section span inverted");
                locals.push(sec.0);
                spans.push((start, end));
            }
            sec_local.push(locals);
            ranges.push(spans);
        }

        // Assemble the dense global pre-order id space.
        let mut section_gid = Vec::with_capacity(sections.len());
        let mut segs = Vec::new();
        let mut seg_of = vec![vec![None; sections.len()]; shards.len()];
        let mut next: u32 = 1; // 0 is the fused root
        for s in 0..sections.len() {
            section_gid.push(next);
            next += 1;
            for (j, spans) in ranges.iter().enumerate() {
                let (start, end) = spans[s];
                if end > start {
                    seg_of[j][s] = Some(segs.len());
                    segs.push(Seg {
                        gstart: next,
                        gend: next + (end - start),
                        shard: j as u32,
                        lstart: start,
                        lsec: sec_local[j][s],
                        section: s as u32,
                    });
                    next += end - start;
                }
            }
        }

        Ok(ShardedStore {
            shards,
            root_tag,
            sections,
            section_gid,
            segs,
            sec_local,
            seg_of,
            node_count: next as usize,
            indexes: IndexManager::new(),
        })
    }

    /// Bulkload `docs` (the output of `xmark_gen::generate_sharded`:
    /// global head first) into `system`-backed shards and assemble the
    /// union view.
    ///
    /// # Errors
    /// Propagates XML parse errors; fails on mismatched shard skeletons.
    pub fn load(
        system: SystemId,
        docs: &[impl AsRef<str>],
    ) -> Result<ShardedStore, Box<dyn std::error::Error>> {
        let mut shards = Vec::with_capacity(docs.len());
        for doc in docs {
            shards.push(crate::build_store(system, doc.as_ref())?);
        }
        Ok(ShardedStore::from_shards(shards)?)
    }

    /// Number of entity shards (excluding the global head shard).
    pub fn entity_shards(&self) -> usize {
        self.shards.len() - 1
    }

    /// The physical shard stores (`[global head, entity shards…]`).
    pub fn shard_stores(&self) -> impl Iterator<Item = &dyn XmlStore> {
        self.shards.iter().map(|s| s.as_ref())
    }

    /// Resolve a global id.
    fn locate(&self, n: Node) -> Loc {
        if n.0 == 0 {
            return Loc::Root;
        }
        // Segments are sorted by gstart; the candidate is the last one
        // starting at or before `n`.
        let idx = self.segs.partition_point(|s| s.gstart <= n.0);
        if idx > 0 {
            let seg = &self.segs[idx - 1];
            if n.0 < seg.gend {
                return Loc::In(idx - 1, Node(seg.lstart + (n.0 - seg.gstart)));
            }
        }
        match self.section_gid.binary_search(&n.0) {
            Ok(s) => Loc::Section(s),
            Err(_) => panic!("global id {} is not a node of the sharded view", n.0),
        }
    }

    /// The shard store backing segment `k`.
    #[inline]
    fn seg_store(&self, k: usize) -> &dyn XmlStore {
        self.shards[self.segs[k].shard as usize].as_ref()
    }

    /// Children of the fused section `s`, merged across shards in shard
    /// (= document) order.
    fn section_children<F>(&self, s: usize, mut per_shard: F) -> Vec<Node>
    where
        F: FnMut(&dyn XmlStore, Node) -> Vec<Node>,
    {
        let mut out = Vec::new();
        for (j, shard) in self.shards.iter().enumerate() {
            let Some(k) = self.seg_of[j][s] else { continue };
            let seg = self.segs[k];
            let locals = per_shard(shard.as_ref(), Node(self.sec_local[j][s]));
            out.extend(locals.into_iter().map(|l| seg.to_global(l)));
        }
        out
    }
}

impl XmlStore for ShardedStore {
    fn system(&self) -> SystemId {
        // The union inherits the architecture of its shards: a "sharded
        // deployment of backend X" reports X.
        self.shards[self.shards.len() - 1].system()
    }

    fn root(&self) -> Node {
        Node(0)
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_bytes()).sum::<usize>() + self.indexes.size_bytes()
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn disk_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.disk_bytes()).sum()
    }

    fn paged_stats(&self) -> Option<crate::paged::PoolStats> {
        // Sum pool counters across paged shards; None when no shard is
        // disk-resident.
        let mut acc: Option<crate::paged::PoolStats> = None;
        for s in &self.shards {
            if let Some(stats) = s.paged_stats() {
                acc = Some(match acc {
                    None => stats,
                    Some(a) => a.merged(&stats),
                });
            }
        }
        acc
    }

    fn content_epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.content_epoch()).sum()
    }

    fn shard_part_count(&self) -> usize {
        self.shards.len()
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        match self.locate(n) {
            Loc::Root => Some(&self.root_tag),
            Loc::Section(s) => Some(&self.sections[s]),
            Loc::In(k, l) => self.seg_store(k).tag_of(l),
        }
    }

    fn parent(&self, n: Node) -> Option<Node> {
        match self.locate(n) {
            Loc::Root => None,
            Loc::Section(_) => Some(Node(0)),
            Loc::In(k, l) => {
                let seg = self.segs[k];
                let p = self.seg_store(k).parent(l)?;
                if p.0 == seg.lsec {
                    Some(Node(self.section_gid[seg.section as usize]))
                } else {
                    Some(seg.to_global(p))
                }
            }
        }
    }

    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        match self.locate(n) {
            Loc::In(k, l) => self.seg_store(k).text(l),
            _ => None,
        }
    }

    fn is_text_node(&self, n: Node) -> bool {
        match self.locate(n) {
            Loc::In(k, l) => self.seg_store(k).is_text_node(l),
            _ => false,
        }
    }

    fn attribute(&self, n: Node, name: &str) -> Option<String> {
        match self.locate(n) {
            Loc::In(k, l) => self.seg_store(k).attribute(l, name),
            _ => None,
        }
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        match self.locate(n) {
            Loc::Root => ChildIter::from_vec(self.section_gid.iter().map(|&g| Node(g)).collect()),
            Loc::Section(s) => ChildIter::from_vec(
                self.section_children(s, |shard, sec| shard.children_iter(sec).collect()),
            ),
            Loc::In(k, l) => {
                let seg = self.segs[k];
                ChildIter::from_vec(
                    self.seg_store(k)
                        .children_iter(l)
                        .map(|c| seg.to_global(c))
                        .collect(),
                )
            }
        }
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        match self.locate(n) {
            Loc::In(k, l) => self.seg_store(k).attributes_iter(l),
            _ => AttrIter::Empty,
        }
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        match self.locate(n) {
            Loc::Root => ChildrenNamed::from_vec(
                self.sections
                    .iter()
                    .zip(&self.section_gid)
                    .filter(|(t, _)| t.as_str() == tag)
                    .map(|(_, &g)| Node(g))
                    .collect(),
            ),
            Loc::Section(s) => ChildrenNamed::from_vec(self.section_children(s, |shard, sec| {
                shard.children_named_iter(sec, tag).collect()
            })),
            Loc::In(k, l) => {
                let seg = self.segs[k];
                ChildrenNamed::from_vec(
                    self.seg_store(k)
                        .children_named_iter(l, tag)
                        .map(|c| seg.to_global(c))
                        .collect(),
                )
            }
        }
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        match self.locate(n) {
            Loc::Root => {
                // Document-order merge: per section, the fused section
                // element (when its tag matches) precedes its contents;
                // sections ascend; within a section, shard order is
                // global-id order.
                let mut out = Vec::new();
                for s in 0..self.sections.len() {
                    if self.sections[s] == tag {
                        out.push(Node(self.section_gid[s]));
                    }
                    out.extend(self.section_children(s, |shard, sec| {
                        shard.descendants_named_iter(sec, tag).collect()
                    }));
                }
                DescendantsNamed::from_vec(out)
            }
            Loc::Section(s) => {
                DescendantsNamed::from_vec(self.section_children(s, |shard, sec| {
                    shard.descendants_named_iter(sec, tag).collect()
                }))
            }
            Loc::In(k, l) => {
                let seg = self.segs[k];
                DescendantsNamed::from_vec(
                    self.seg_store(k)
                        .descendants_named_iter(l, tag)
                        .map(|c| seg.to_global(c))
                        .collect(),
                )
            }
        }
    }

    fn count_descendants_named(&self, n: Node, tag: &str) -> usize {
        // The partial-aggregate combine: fused nodes sum per-shard counts,
        // each answered by the shard backend's native count path (summary
        // arithmetic on D/E, extent scans elsewhere).
        match self.locate(n) {
            Loc::Root => {
                let mut total = 0;
                for s in 0..self.sections.len() {
                    if self.sections[s] == tag {
                        total += 1;
                    }
                    total += self.count_descendants_named(Node(self.section_gid[s]), tag);
                }
                total
            }
            Loc::Section(s) => self
                .shards
                .iter()
                .enumerate()
                .filter(|(j, _)| self.seg_of[*j][s].is_some())
                .map(|(j, shard)| shard.count_descendants_named(Node(self.sec_local[j][s]), tag))
                .sum(),
            Loc::In(k, l) => self.seg_store(k).count_descendants_named(l, tag),
        }
    }

    fn typed_child_value(&self, n: Node, tag: &str) -> Option<Option<String>> {
        match self.locate(n) {
            Loc::In(k, l) => self.seg_store(k).typed_child_value(l, tag),
            _ => None,
        }
    }

    fn positional_child(&self, n: Node, tag: &str, pos: PositionSpec) -> Option<Option<Node>> {
        match self.locate(n) {
            Loc::In(k, l) => {
                let seg = self.segs[k];
                self.seg_store(k)
                    .positional_child(l, tag, pos)
                    .map(|found| found.map(|c| seg.to_global(c)))
            }
            // Fused nodes: report "unsupported" so the executor falls back
            // to the generic merged-cursor path.
            _ => None,
        }
    }

    fn string_value_into(&self, n: Node, out: &mut String) {
        match self.locate(n) {
            Loc::In(k, l) => self.seg_store(k).string_value_into(l, out),
            _ => string_value_by_cursors(self, n, out),
        }
    }

    fn serialize_node_to(&self, n: Node, out: &mut dyn fmt::Write) -> fmt::Result {
        match self.locate(n) {
            Loc::In(k, l) => self.seg_store(k).serialize_node_to(l, out),
            // Fused nodes (root, sections) carry no attributes; their
            // children serialize through the owning shards.
            _ => serialize_by_cursors(self, n, out),
        }
    }

    fn planner_caps(&self) -> PlannerCaps {
        // The union inherits the architecture of its shards: delegated
        // access paths (inlined values, positional indexes) reach the
        // shard backends below the fused level, and the union's own
        // IndexManager serves the shared-index capabilities exactly like
        // a monolithic store's would.
        self.shards[self.shards.len() - 1].planner_caps()
    }

    fn estimate_step(&self, tag: &str) -> StepEstimate {
        // Scatter the catalog touch: every shard resolves its own extent
        // descriptor, the union sums the cardinalities and the accesses.
        let mut total = StepEstimate::default();
        for s in &self.shards {
            let est = s.estimate_step(tag);
            total.rows += est.rows;
            total.metadata_accesses += est.metadata_accesses;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeStore;

    const GLOBAL: &str = "<site><regions><africa><item id=\"item0\"><name>i0</name></item></africa></regions><categories><category id=\"cat0\"/></categories><catgraph/><people/><open_auctions/><closed_auctions/></site>";
    const SHARD0: &str = "<site><regions/><categories/><catgraph/><people><person id=\"person0\"><name>Ada</name></person></people><open_auctions><open_auction id=\"open0\"/></open_auctions><closed_auctions/></site>";
    const SHARD1: &str = "<site><regions/><categories/><catgraph/><people><person id=\"person1\"><name>Bob</name></person><person id=\"person2\"><name>Cyd</name></person></people><open_auctions/><closed_auctions><closed_auction/></closed_auctions></site>";
    const WHOLE: &str = "<site><regions><africa><item id=\"item0\"><name>i0</name></item></africa></regions><categories><category id=\"cat0\"/></categories><catgraph/><people><person id=\"person0\"><name>Ada</name></person><person id=\"person1\"><name>Bob</name></person><person id=\"person2\"><name>Cyd</name></person></people><open_auctions><open_auction id=\"open0\"/></open_auctions><closed_auctions><closed_auction/></closed_auctions></site>";

    fn union() -> ShardedStore {
        ShardedStore::load(SystemId::A, &[GLOBAL, SHARD0, SHARD1]).unwrap()
    }

    #[test]
    fn union_matches_monolithic_node_count() {
        let u = union();
        let whole = EdgeStore::load(WHOLE).unwrap();
        assert_eq!(u.node_count(), whole.node_count());
        assert_eq!(u.entity_shards(), 2);
    }

    #[test]
    fn root_children_are_the_fused_sections() {
        let u = union();
        let tags: Vec<String> = u
            .children_iter(u.root())
            .map(|c| u.tag_of(c).unwrap().to_string())
            .collect();
        assert_eq!(
            tags,
            [
                "regions",
                "categories",
                "catgraph",
                "people",
                "open_auctions",
                "closed_auctions"
            ]
        );
    }

    #[test]
    fn section_children_merge_across_shards_in_order() {
        let u = union();
        let people = u.children_named_iter(u.root(), "people").next().unwrap();
        let ids: Vec<String> = u
            .children_iter(people)
            .map(|p| u.attribute(p, "id").unwrap())
            .collect();
        assert_eq!(ids, ["person0", "person1", "person2"]);
        // Global ids ascend (document order = id order).
        let nodes: Vec<_> = u.children_iter(people).collect();
        assert!(nodes.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn descendants_merge_and_count_sums() {
        let u = union();
        let names: Vec<_> = u.descendants_named_iter(u.root(), "name").collect();
        assert_eq!(names.len(), 4); // item name + 3 person names
        assert_eq!(u.count_descendants_named(u.root(), "person"), 3);
        assert_eq!(u.count_descendants_named(u.root(), "people"), 1);
    }

    #[test]
    fn parent_links_cross_the_fused_boundary() {
        let u = union();
        let person = u.descendants_named_iter(u.root(), "person").next().unwrap();
        let people = u.parent(person).unwrap();
        assert_eq!(u.tag_of(people), Some("people"));
        assert_eq!(u.parent(people), Some(u.root()));
        assert_eq!(u.parent(u.root()), None);
        // Below the entity level, delegation with offsets.
        let name = u.children_named_iter(person, "name").next().unwrap();
        assert_eq!(u.parent(name), Some(person));
        assert_eq!(u.string_value(name), "Ada");
    }

    #[test]
    fn global_of_inverts_locate_for_every_node() {
        let u = union();
        assert_eq!(u.shard_part_count(), 3);
        let mut fused = 0;
        for g in 0..u.node_count() as u32 {
            let n = Node(g);
            match u.locate(n) {
                Loc::Root => fused += 1,
                Loc::Section(s) => {
                    assert_eq!(u.section_gid[s], g);
                    fused += 1;
                }
                // The segment offset maps the owned local id back to `n`.
                Loc::In(k, l) => assert_eq!(u.segs[k].to_global(l), n),
            }
        }
        assert_eq!(fused, 1 + u.sections.len());
        // Monolithic stores expose no parts.
        let whole = EdgeStore::load(WHOLE).unwrap();
        assert_eq!(whole.shard_part_count(), 0);
    }

    #[test]
    fn serialization_matches_the_monolithic_document() {
        let u = union();
        let whole = EdgeStore::load(WHOLE).unwrap();
        let mut a = String::new();
        u.serialize_node_to(u.root(), &mut a).unwrap();
        let mut b = String::new();
        whole.serialize_node_to(whole.root(), &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lookup_id_spans_all_shards() {
        let u = union();
        let p2 = u.lookup_id("person2").unwrap();
        assert_eq!(u.attribute(p2, "id").as_deref(), Some("person2"));
        let item = u.lookup_id("item0").unwrap();
        assert_eq!(u.tag_of(item), Some("item"));
        assert_eq!(u.lookup_id("nope"), None);
    }

    #[test]
    fn estimates_sum_across_shards() {
        let u = union();
        let est = u.estimate_step("person");
        assert_eq!(est.rows, 3);
        // System A's two accesses, once per part (global head + 2 shards).
        assert_eq!(est.metadata_accesses, 6);
    }

    #[test]
    fn mismatched_skeletons_are_rejected() {
        let bad = "<site><regions/></site>";
        assert!(ShardedStore::load(SystemId::A, &[GLOBAL, bad]).is_err());
        assert!(ShardedStore::load(SystemId::A, &[GLOBAL]).is_err());
    }
}
