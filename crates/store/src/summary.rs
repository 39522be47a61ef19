//! System D — main-memory columnar tree with a structural summary.
//!
//! §7: "System D keeps a detailed structural summary of the database and
//! can exploit it to optimize traversal-intensive queries; this actually
//! makes Q6 and Q7 surprisingly fast … The problem that Q7 actually looks
//! for non-existing paths is efficiently solved by exploiting the
//! structural summary."
//!
//! The summary is a DataGuide: one summary node per distinct root-to-node
//! tag path, each holding the *extent* (all instance nodes on that path,
//! sorted in document order). Because instance ids are pre-order, the
//! descendants of any node form a contiguous id interval, so
//! `descendants_named` is a walk over the (tiny) summary subtree plus one
//! binary-searched range per extent — and counting requires no node access
//! at all.

use std::borrow::Cow;
use std::collections::HashMap;

use xmark_xml::{Document, NodeId};

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::IndexManager;
use crate::loader::{parent_array, subtree_ends, NONE};
use crate::traits::{Node, PlannerCaps, StepEstimate, SystemId, XmlStore};

/// Streaming child cursor over the columnar `next_sibling` chain —
/// pointer-chasing, no allocation.
pub struct LinkedChildren<'a> {
    next_sibling: &'a [u32],
    cur: u32,
}

impl Iterator for LinkedChildren<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        if self.cur == NONE {
            return None;
        }
        let n = Node(self.cur);
        self.cur = self.next_sibling[self.cur as usize];
        Some(n)
    }
}

/// [`LinkedChildren`] plus a summary-tag test: each child's tag is read
/// off its summary (DataGuide) node, so the test is one array load plus a
/// string compare.
pub struct LinkedChildrenNamed<'a> {
    store: &'a SummaryStore,
    cur: u32,
    tag: &'a str,
}

impl Iterator for LinkedChildrenNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        while self.cur != NONE {
            let id = self.cur;
            self.cur = self.store.next_sibling[id as usize];
            let path = self.store.path_id[id as usize];
            if path != NONE && self.store.summary[path as usize].tag == self.tag {
                return Some(Node(id));
            }
        }
        None
    }
}

/// K-way merge over the extent slices of the summary nodes matching a
/// descendant step — System D's native plan when the tag occurs on more
/// than one distinct path. The cursor holds only the (few) slice heads;
/// nodes stream out in document order because each extent is sorted.
pub struct SummaryDescendantsNamed<'a> {
    extents: Vec<&'a [u32]>,
}

impl Iterator for SummaryDescendantsNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        let mut best: Option<usize> = None;
        for (i, slice) in self.extents.iter().enumerate() {
            if let Some(&head) = slice.first() {
                if best.is_none_or(|b| head < self.extents[b][0]) {
                    best = Some(i);
                }
            }
        }
        let i = best?;
        let (&head, rest) = self.extents[i].split_first().expect("non-empty head");
        self.extents[i] = rest;
        Some(Node(head))
    }
}

/// One node of the structural summary (DataGuide).
#[derive(Debug)]
struct SummaryNode {
    /// Tag of this path step (text nodes do not get summary nodes).
    tag: String,
    /// Child summary nodes by tag.
    children: HashMap<String, u32>,
    /// Instance nodes on this path, ascending (= document order).
    extent: Vec<u32>,
}

/// The System D store.
pub struct SummaryStore {
    // Columnar tree skeleton.
    parent: Vec<u32>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    subtree_end: Vec<u32>,
    /// Summary node per instance node; `NONE` for text nodes.
    path_id: Vec<u32>,
    /// Text content per node (empty for elements; XMark text is dense
    /// enough that an Option-free representation is simplest).
    text: Vec<Box<str>>,
    is_text: Vec<bool>,
    attrs: HashMap<u32, Vec<(String, String)>>,
    summary: Vec<SummaryNode>,
    root_summary: u32,
    root: u32,
    indexes: IndexManager,
}

impl SummaryStore {
    /// Bulkload: parse, build the columnar skeleton, the structural
    /// summary, and the ID index.
    pub fn load(xml: &str) -> Result<Self, xmark_xml::Error> {
        let doc = xmark_xml::parse_document(xml)?;
        Ok(Self::from_document(&doc))
    }

    /// Build from an already-parsed document.
    pub fn from_document(doc: &Document) -> Self {
        let n = doc.node_count();
        let parent = parent_array(doc);
        let subtree_end = subtree_ends(doc);
        let mut first_child = vec![NONE; n];
        let mut next_sibling = vec![NONE; n];
        let mut text: Vec<Box<str>> = vec![Box::from(""); n];
        let mut is_text = vec![false; n];
        let mut attrs: HashMap<u32, Vec<(String, String)>> = HashMap::new();

        let mut summary: Vec<SummaryNode> = Vec::new();
        let mut path_id = vec![NONE; n];

        let root = doc.root_element();
        summary.push(SummaryNode {
            tag: doc.tag_name(root).to_string(),
            children: HashMap::new(),
            extent: vec![root.0],
        });
        path_id[root.index()] = 0;

        for id in 0..n as u32 {
            let node = NodeId(id);
            first_child[id as usize] = doc.first_child(node).map_or(NONE, |c| c.0);
            next_sibling[id as usize] = doc.next_sibling(node).map_or(NONE, |s| s.0);
            if let Some(t) = doc.text(node) {
                text[id as usize] = Box::from(t);
                is_text[id as usize] = true;
                continue;
            }
            let node_attrs: Vec<(String, String)> = doc
                .attributes(node)
                .iter()
                .map(|(sym, v)| (doc.interner().resolve(*sym).to_string(), v.clone()))
                .collect();
            if !node_attrs.is_empty() {
                attrs.insert(id, node_attrs);
            }
            // Assign the summary node (parent processed first: pre-order).
            if id != root.0 {
                let p = parent[id as usize];
                let parent_path = path_id[p as usize];
                debug_assert_ne!(parent_path, NONE, "parent must be an element");
                let tag = doc.tag_name(node);
                let child_path = match summary[parent_path as usize].children.get(tag) {
                    Some(&existing) => existing,
                    None => {
                        let new_id = summary.len() as u32;
                        summary.push(SummaryNode {
                            tag: tag.to_string(),
                            children: HashMap::new(),
                            extent: Vec::new(),
                        });
                        summary[parent_path as usize]
                            .children
                            .insert(tag.to_string(), new_id);
                        new_id
                    }
                };
                summary[child_path as usize].extent.push(id);
                path_id[id as usize] = child_path;
            }
        }

        SummaryStore {
            parent,
            first_child,
            next_sibling,
            subtree_end,
            path_id,
            text,
            is_text,
            attrs,
            summary,
            root_summary: 0,
            root: root.0,
            indexes: IndexManager::new(),
        }
    }

    /// Number of distinct paths in the summary (exposed for tests and the
    /// ablation bench).
    pub fn summary_size(&self) -> usize {
        self.summary.len()
    }

    /// Summary nodes with `tag` inside the summary subtree rooted at the
    /// path of `n`, including that path itself.
    fn matching_summary_nodes(&self, n: Node, tag: &str) -> Vec<u32> {
        let start = self.path_id[n.index()];
        if start == NONE {
            return Vec::new();
        }
        let mut matches = Vec::new();
        let mut stack = vec![start];
        let mut first = true;
        while let Some(s) = stack.pop() {
            let node = &self.summary[s as usize];
            if !first && node.tag == tag {
                matches.push(s);
            }
            first = false;
            stack.extend(node.children.values().copied());
        }
        matches
    }

    /// Slice of an extent falling inside `n`'s subtree interval.
    fn extent_range(&self, summary_id: u32, n: Node) -> (usize, usize) {
        let extent = &self.summary[summary_id as usize].extent;
        let lo = extent.partition_point(|&x| x <= n.0);
        let hi = extent.partition_point(|&x| x <= self.subtree_end[n.index()]);
        (lo, hi)
    }
}

impl XmlStore for SummaryStore {
    fn system(&self) -> SystemId {
        SystemId::D
    }

    fn root(&self) -> Node {
        Node(self.root)
    }

    fn node_count(&self) -> usize {
        self.parent.len()
    }

    fn size_bytes(&self) -> usize {
        let n = self.parent.len();
        let mut total = n * (4 * std::mem::size_of::<u32>() + 1 + std::mem::size_of::<Box<str>>());
        total += self.text.iter().map(|t| t.len()).sum::<usize>();
        for list in self.attrs.values() {
            total += list
                .iter()
                .map(|(k, v)| k.capacity() + v.capacity() + 48)
                .sum::<usize>();
        }
        for s in &self.summary {
            total += s.tag.capacity() + s.extent.capacity() * 4 + 64;
        }
        total += self.indexes.size_bytes();
        total
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        let p = self.path_id[n.index()];
        if p == NONE {
            None
        } else {
            Some(&self.summary[p as usize].tag)
        }
    }

    fn parent(&self, n: Node) -> Option<Node> {
        match self.parent[n.index()] {
            NONE => None,
            p => Some(Node(p)),
        }
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        ChildIter::Linked(LinkedChildren {
            next_sibling: &self.next_sibling,
            cur: self.first_child[n.index()],
        })
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        ChildrenNamed::Linked(LinkedChildrenNamed {
            store: self,
            cur: self.first_child[n.index()],
            tag,
        })
    }

    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        self.is_text[n.index()].then(|| Cow::Borrowed(&*self.text[n.index()]))
    }

    fn attribute(&self, n: Node, name: &str) -> Option<String> {
        self.attrs
            .get(&n.0)?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        match self.attrs.get(&n.0) {
            Some(list) => AttrIter::Pairs(list.iter()),
            None => AttrIter::Empty,
        }
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        // Resolve the (tiny) set of matching summary paths, then stream
        // their range-filtered extents. One path — the overwhelmingly
        // common case — streams a plain sorted slice; several paths go
        // through the k-way merge cursor. Only summary-node ids are ever
        // buffered, never instance nodes.
        let matches = self.matching_summary_nodes(n, tag);
        match matches.as_slice() {
            [] => DescendantsNamed::Empty,
            &[s] => {
                let (lo, hi) = self.extent_range(s, n);
                DescendantsNamed::Extent(self.summary[s as usize].extent[lo..hi].iter())
            }
            several => DescendantsNamed::SummaryMerge(SummaryDescendantsNamed {
                extents: several
                    .iter()
                    .map(|&s| {
                        let (lo, hi) = self.extent_range(s, n);
                        &self.summary[s as usize].extent[lo..hi]
                    })
                    .collect(),
            }),
        }
    }

    fn count_descendants_named(&self, n: Node, tag: &str) -> usize {
        // The paper's Q6/Q7 trick: pure summary arithmetic, no node access.
        self.matching_summary_nodes(n, tag)
            .into_iter()
            .map(|s| {
                let (lo, hi) = self.extent_range(s, n);
                hi - lo
            })
            .sum()
    }

    fn planner_caps(&self) -> PlannerCaps {
        PlannerCaps {
            id_index: true,
            summary_counts: true,
            // The structural summary's path extents already serve
            // descendant steps, so no element index.
            ..PlannerCaps::default()
        }
    }

    fn estimate_step(&self, tag: &str) -> StepEstimate {
        // Metadata = the summary itself, walked in memory rather than
        // looked up in a catalog; one traversal, extents give exact
        // cardinalities (a "perfect statistics" optimizer).
        let mut stack = vec![self.root_summary];
        let mut total = 0;
        while let Some(s) = stack.pop() {
            let node = &self.summary[s as usize];
            if node.tag == tag {
                total += node.extent.len();
            }
            stack.extend(node.children.values().copied());
        }
        StepEstimate {
            rows: total as u64,
            metadata_accesses: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<site><regions><africa><item id="item0"><name>sword</name></item></africa><europe><item id="item1"><name>gold ring</name></item><item id="item2"><name>cup</name></item></europe></regions><people><person id="person0"><name>Alice</name></person></people></site>"#;

    fn store() -> SummaryStore {
        SummaryStore::load(SAMPLE).unwrap()
    }

    #[test]
    fn summary_collapses_identical_paths() {
        let s = store();
        // Distinct paths: site, regions, africa, item(africa), name,
        // text… — text nodes are not summarized; europe/item/name adds 3.
        assert!(s.summary_size() >= 8);
        assert!(s.summary_size() < s.node_count());
    }

    #[test]
    fn descendants_via_summary_match_naive_walk() {
        let s = store();
        let naive = crate::naive::NaiveStore::load(SAMPLE).unwrap();
        for tag in ["item", "name", "person", "nonexistent"] {
            let via_summary: Vec<u32> = s
                .descendants_named_iter(s.root(), tag)
                .map(|n| n.0)
                .collect();
            let via_walk: Vec<u32> = naive
                .descendants_named_iter(naive.root(), tag)
                .map(|n| n.0)
                .collect();
            assert_eq!(via_summary, via_walk, "tag {tag}");
        }
    }

    #[test]
    fn counts_without_materializing() {
        let s = store();
        assert_eq!(s.count_descendants_named(s.root(), "item"), 3);
        assert_eq!(s.count_descendants_named(s.root(), "email"), 0);
        // Scoped to a subtree: europe holds two items.
        let regions: Vec<_> = s.children_named_iter(s.root(), "regions").collect();
        let europe: Vec<_> = s.children_named_iter(regions[0], "europe").collect();
        assert_eq!(s.count_descendants_named(europe[0], "item"), 2);
    }

    #[test]
    fn id_index_answers_q1_shape() {
        let s = store();
        let hit = s.lookup_id("person0").unwrap();
        assert_eq!(s.tag_of(hit), Some("person"));
        assert_eq!(s.lookup_id("ghost"), None);
    }

    #[test]
    fn navigation_matches_dom_semantics() {
        let s = store();
        let root = s.root();
        assert_eq!(s.tag_of(root), Some("site"));
        let items: Vec<_> = s.descendants_named_iter(root, "item").collect();
        assert_eq!(s.attribute(items[1], "id").as_deref(), Some("item1"));
        assert_eq!(s.string_value(items[1]), "gold ring");
        assert_eq!(
            s.parent(items[0])
                .and_then(|p| s.tag_of(p).map(str::to_string))
                .as_deref(),
            Some("africa")
        );
    }

    #[test]
    fn estimate_step_returns_exact_cardinalities() {
        let s = store();
        assert_eq!(s.estimate_step("item").rows, 3);
        assert_eq!(s.estimate_step("missing").rows, 0);
    }
}
