//! Systems E and F — native containment-interval stores.
//!
//! Both store the tree as flat arrays in the (start, end, level) encoding
//! of Zhang et al. \[26\], which the paper cites for Q4: "mappings which
//! store the extent of tags, i.e., not only the position of the start tag
//! but also that of the corresponding end tag, may be able to exploit this
//! additional information".
//!
//! * **System E** additionally maintains per-tag extent lists sorted by
//!   start position, so `descendants_named` is a structural *stab join*
//!   (two binary searches), and an ID index for Q1.
//! * **System F** is the same physical layout without any secondary
//!   indexes: every structural step scans the interval. The E-vs-F delta is
//!   the ablation the benchmark's `ablation_interval` bench measures.

use std::borrow::Cow;
use std::collections::HashMap;

use xmark_xml::{Document, NodeId};

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::IndexManager;
use crate::loader::{level_array, parent_array, subtree_ends, NONE};
use crate::traits::{Node, PlannerCaps, StepEstimate, SystemId, XmlStore};

const TEXT_TAG: u16 = u16::MAX;

/// Streaming child cursor over the interval encoding: start at `n + 1`,
/// hop over each child's subtree via the `end` array — O(1) per child, no
/// allocation.
pub struct IntervalChildren<'a> {
    end: &'a [u32],
    cur: u32,
    /// Inclusive end of the parent's interval.
    stop: u32,
}

impl Iterator for IntervalChildren<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        if self.cur > self.stop {
            return None;
        }
        let n = Node(self.cur);
        self.cur = self.end[self.cur as usize] + 1;
        Some(n)
    }
}

/// [`IntervalChildren`] plus a tag-code test.
pub struct IntervalChildrenNamed<'a> {
    end: &'a [u32],
    tag_code: &'a [u16],
    cur: u32,
    stop: u32,
    code: u16,
}

impl Iterator for IntervalChildrenNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        while self.cur <= self.stop {
            let id = self.cur;
            self.cur = self.end[id as usize] + 1;
            if self.tag_code[id as usize] == self.code {
                return Some(Node(id));
            }
        }
        None
    }
}

/// System F's descendant plan as a cursor: scan every position of the
/// interval and test the tag code.
pub struct IntervalScanNamed<'a> {
    tag_code: &'a [u16],
    cur: u32,
    /// Inclusive.
    stop: u32,
    code: u16,
}

impl Iterator for IntervalScanNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        while self.cur <= self.stop {
            let id = self.cur;
            self.cur += 1;
            if self.tag_code[id as usize] == self.code {
                return Some(Node(id));
            }
        }
        None
    }
}

/// Shared physical layout of Systems E and F.
pub struct IntervalStore {
    indexed: bool,
    parent: Vec<u32>,
    end: Vec<u32>,
    #[allow(dead_code)] // level is part of the [26] encoding; kept for ablations.
    level: Vec<u16>,
    tag_code: Vec<u16>,
    tag_names: Vec<String>,
    tag_lookup: HashMap<String, u16>,
    text: Vec<Box<str>>,
    attrs: HashMap<u32, Vec<(String, String)>>,
    root: u32,
    /// E only: tag → ascending start positions.
    tag_extents: Vec<Vec<u32>>,
    indexes: IndexManager,
}

impl IntervalStore {
    /// Bulkload System E (with secondary indexes).
    pub fn load_indexed(xml: &str) -> Result<Self, xmark_xml::Error> {
        Ok(Self::from_document(&xmark_xml::parse_document(xml)?, true))
    }

    /// Bulkload System F (scan-based, no secondary indexes).
    pub fn load_scan(xml: &str) -> Result<Self, xmark_xml::Error> {
        Ok(Self::from_document(&xmark_xml::parse_document(xml)?, false))
    }

    /// Build from a parsed document.
    pub fn from_document(doc: &Document, indexed: bool) -> Self {
        let n = doc.node_count();
        let parent = parent_array(doc);
        let end = subtree_ends(doc);
        let level = level_array(doc);
        let mut tag_code = vec![TEXT_TAG; n];
        let mut tag_names: Vec<String> = Vec::new();
        let mut tag_lookup: HashMap<String, u16> = HashMap::new();
        let mut text: Vec<Box<str>> = vec![Box::from(""); n];
        let mut attrs: HashMap<u32, Vec<(String, String)>> = HashMap::new();
        let mut tag_extents: Vec<Vec<u32>> = Vec::new();

        for id in 0..n as u32 {
            let node = NodeId(id);
            if let Some(t) = doc.text(node) {
                text[id as usize] = Box::from(t);
                continue;
            }
            let tag = doc.tag_name(node);
            let code = match tag_lookup.get(tag) {
                Some(&c) => c,
                None => {
                    let c = tag_names.len() as u16;
                    tag_names.push(tag.to_string());
                    tag_lookup.insert(tag.to_string(), c);
                    tag_extents.push(Vec::new());
                    c
                }
            };
            tag_code[id as usize] = code;
            if indexed {
                tag_extents[code as usize].push(id);
            }
            let node_attrs: Vec<(String, String)> = doc
                .attributes(node)
                .iter()
                .map(|(sym, v)| (doc.interner().resolve(*sym).to_string(), v.clone()))
                .collect();
            if !node_attrs.is_empty() {
                attrs.insert(id, node_attrs);
            }
        }
        if !indexed {
            tag_extents.clear();
            tag_extents.shrink_to_fit();
        }

        IntervalStore {
            indexed,
            parent,
            end,
            level,
            tag_code,
            tag_names,
            tag_lookup,
            text,
            attrs,
            root: doc.root_element().0,
            tag_extents,
            indexes: IndexManager::new(),
        }
    }
}

impl XmlStore for IntervalStore {
    fn system(&self) -> SystemId {
        if self.indexed {
            SystemId::E
        } else {
            SystemId::F
        }
    }

    fn root(&self) -> Node {
        Node(self.root)
    }

    fn node_count(&self) -> usize {
        self.parent.len()
    }

    fn size_bytes(&self) -> usize {
        let n = self.parent.len();
        let mut total = n
            * (2 * std::mem::size_of::<u32>()
                + 2 * std::mem::size_of::<u16>()
                + std::mem::size_of::<Box<str>>());
        total += self.text.iter().map(|t| t.len()).sum::<usize>();
        for list in self.attrs.values() {
            total += list
                .iter()
                .map(|(k, v)| k.capacity() + v.capacity() + 48)
                .sum::<usize>();
        }
        total += self
            .tag_extents
            .iter()
            .map(|e| e.capacity() * 4)
            .sum::<usize>();
        // Catalog strings, previously unaccounted: the per-tag name table
        // and its lookup map are real resident structures.
        total += self
            .tag_names
            .iter()
            .map(|t| t.capacity() + std::mem::size_of::<String>())
            .sum::<usize>();
        total += self
            .tag_lookup
            .keys()
            .map(|k| k.capacity() + 2 + 48)
            .sum::<usize>();
        total += self.indexes.size_bytes();
        total
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        match self.tag_code[n.index()] {
            TEXT_TAG => None,
            c => Some(&self.tag_names[c as usize]),
        }
    }

    fn parent(&self, n: Node) -> Option<Node> {
        match self.parent[n.index()] {
            NONE => None,
            p => Some(Node(p)),
        }
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        // Children of n are the nodes directly inside its interval: start
        // at n+1, then hop over each child's subtree — O(#children).
        ChildIter::Interval(IntervalChildren {
            end: &self.end,
            cur: n.0 + 1,
            stop: self.end[n.index()],
        })
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        let Some(&code) = self.tag_lookup.get(tag) else {
            return ChildrenNamed::Empty;
        };
        ChildrenNamed::Interval(IntervalChildrenNamed {
            end: &self.end,
            tag_code: &self.tag_code,
            cur: n.0 + 1,
            stop: self.end[n.index()],
            code,
        })
    }

    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        (self.tag_code[n.index()] == TEXT_TAG).then(|| Cow::Borrowed(&*self.text[n.index()]))
    }

    fn string_value_into(&self, n: Node, out: &mut String) {
        // The subtree's text in document order is the text nodes of the
        // interval `n..=end[n]` in ascending id: one scan, no recursion.
        for id in n.index()..=self.end[n.index()] as usize {
            if self.tag_code[id] == TEXT_TAG {
                out.push_str(&self.text[id]);
            }
        }
    }

    fn attribute(&self, n: Node, name: &str) -> Option<Cow<'_, str>> {
        self.attrs
            .get(&n.0)?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| Cow::Borrowed(v.as_str()))
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        match self.attrs.get(&n.0) {
            Some(list) => AttrIter::Pairs(list.iter()),
            None => AttrIter::Empty,
        }
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        let Some(&code) = self.tag_lookup.get(tag) else {
            return DescendantsNamed::Empty;
        };
        let end = self.end[n.index()];
        if self.indexed {
            // Structural stab join: binary-search the tag's start list for
            // the interval (n, end] and stream the slice.
            let extent = &self.tag_extents[code as usize];
            let lo = extent.partition_point(|&x| x <= n.0);
            let hi = extent.partition_point(|&x| x <= end);
            DescendantsNamed::Extent(extent[lo..hi].iter())
        } else {
            // System F: scan the whole interval.
            DescendantsNamed::IntervalScan(IntervalScanNamed {
                tag_code: &self.tag_code,
                cur: n.0 + 1,
                stop: end,
                code,
            })
        }
    }

    fn count_descendants_named(&self, n: Node, tag: &str) -> usize {
        if self.indexed {
            let Some(&code) = self.tag_lookup.get(tag) else {
                return 0;
            };
            let extent = &self.tag_extents[code as usize];
            let lo = extent.partition_point(|&x| x <= n.0);
            let hi = extent.partition_point(|&x| x <= self.end[n.index()]);
            hi - lo
        } else {
            self.descendants_named_iter(n, tag).count()
        }
    }

    fn planner_caps(&self) -> PlannerCaps {
        if self.indexed {
            PlannerCaps {
                id_index: true,
                // Counting is extent partition-point arithmetic.
                summary_counts: true,
                // Native per-tag extents already are a descendant index —
                // the shared posting lists would duplicate them.
                ..PlannerCaps::default()
            }
        } else {
            // System F: intervals only — generic plans, no statistics. The
            // shared element index still serves its counts: a posting
            // range's length replaces an interval scan, and its exact
            // length is the count's estimate.
            PlannerCaps {
                element_index: true,
                ..PlannerCaps::default()
            }
        }
    }

    fn estimate_step(&self, tag: &str) -> StepEstimate {
        if !self.indexed {
            // F has no statistics; its heuristic optimizer guesses.
            return StepEstimate::default();
        }
        // E's per-tag extents are the statistics: exact counts, and no
        // catalog to consult.
        StepEstimate {
            rows: self
                .tag_lookup
                .get(tag)
                .map_or(0, |&c| self.tag_extents[c as usize].len() as u64),
            metadata_accesses: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<site><regions><europe><item id="item0"><name>cup</name></item><item id="item1"><name>gold coin</name></item></europe></regions><people><person id="person0"><name>Alice</name></person></people></site>"#;

    fn both() -> (IntervalStore, IntervalStore) {
        (
            IntervalStore::load_indexed(SAMPLE).unwrap(),
            IntervalStore::load_scan(SAMPLE).unwrap(),
        )
    }

    #[test]
    fn e_and_f_navigate_identically() {
        let (e, f) = both();
        for store in [&e, &f] {
            let root = store.root();
            assert_eq!(store.tag_of(root), Some("site"));
            let items: Vec<_> = store.descendants_named_iter(root, "item").collect();
            assert_eq!(items.len(), 2);
            assert_eq!(store.attribute(items[0], "id").as_deref(), Some("item0"));
            assert_eq!(store.string_value(items[1]), "gold coin");
        }
    }

    /// The string value the default cursor walk assembles, recursing
    /// through `text` and `children_iter` only (the trait's default goes
    /// back through the override for each child).
    fn walked_string_value(store: &IntervalStore, n: Node, out: &mut String) {
        if let Some(t) = store.text(n) {
            out.push_str(&t);
            return;
        }
        for child in store.children_iter(n) {
            walked_string_value(store, child, out);
        }
    }

    #[test]
    fn interval_scan_string_values_match_the_cursor_walk() {
        let xml = xmark_gen::generate_string(&xmark_gen::GeneratorConfig {
            factor: 0.002,
            seed: 0,
        });
        for store in [
            IntervalStore::load_indexed(&xml).unwrap(),
            IntervalStore::load_scan(&xml).unwrap(),
        ] {
            for id in 0..store.node_count() as u32 {
                let mut walked = String::new();
                walked_string_value(&store, Node(id), &mut walked);
                assert_eq!(store.string_value(Node(id)), walked, "node {id}");
            }
        }
    }

    #[test]
    fn children_hop_over_subtrees() {
        let (e, _) = both();
        let root = e.root();
        let kids: Vec<_> = e
            .children_iter(root)
            .map(|c| e.tag_of(c).unwrap().to_string())
            .collect();
        assert_eq!(kids, vec!["regions", "people"]);
    }

    #[test]
    fn stab_join_is_scoped_to_subtree() {
        let (e, f) = both();
        for store in [&e, &f] {
            let people = store
                .descendants_named_iter(store.root(), "people")
                .next()
                .unwrap();
            let names: Vec<_> = store.descendants_named_iter(people, "name").collect();
            assert_eq!(names.len(), 1, "only Alice's name is under people");
        }
    }

    #[test]
    fn both_variants_answer_id_lookups_via_the_shared_index() {
        let (e, f) = both();
        let hit = e.lookup_id("person0").unwrap();
        assert_eq!(e.tag_of(hit), Some("person"));
        // F has no *architectural* ID index (the planner still scans for
        // Q1), but the shared store-layer attribute index answers direct
        // lookups on it too.
        assert_eq!(f.lookup_id("person0"), Some(hit));
        assert_eq!(f.lookup_id("ghost"), None);
        assert!(!f.planner_caps().id_index);
    }

    #[test]
    fn counts_agree_between_variants() {
        let (e, f) = both();
        for tag in ["item", "name", "ghost"] {
            assert_eq!(
                e.count_descendants_named(e.root(), tag),
                f.count_descendants_named(f.root(), tag),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn f_reports_no_statistics() {
        let (e, f) = both();
        assert_eq!(e.estimate_step("item").rows, 2);
        assert_eq!(f.estimate_step("item").rows, 0);
    }
}
