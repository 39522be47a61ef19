//! System A — the monolithic edge store.
//!
//! §7: "System A basically stores all XML data on one big heap, i.e., only
//! a single relation … System A has to access fewer metadata to compile a
//! query than System B, thus spending only half as much time on query
//! compilation. However … because the data mapping deployed in System A has
//! less explicit semantics, the actual cost of accessing the real data is
//! higher."
//!
//! The mapping is the classic edge/node table: one relation
//! `node(id, parent, tag, pos, text)` (row id = pre-order node id), one
//! `attr(owner, name, value)` relation, and generic secondary indexes.
//! Every navigation step is an index lookup against those generic
//! structures; nothing is specialized to the schema.

use std::borrow::Cow;

use xmark_rel::{HashIndex, Table, Value};
use xmark_xml::{Document, NodeId};

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::IndexManager;
use crate::traits::{Node, PlannerCaps, StepEstimate, SystemId, XmlStore};

/// Streaming cursor over a parent-index posting list. Row ids in the
/// `node` relation *are* pre-order node ids, and posting lists are built
/// in insertion (= document) order, so the hops come out ordered.
pub struct EdgeChildren<'a> {
    rids: std::slice::Iter<'a, usize>,
}

impl Iterator for EdgeChildren<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        self.rids.next().map(|&rid| Node(rid as u32))
    }
}

/// [`EdgeChildren`] plus a tag test against the `node` relation.
pub struct EdgeChildrenNamed<'a> {
    store: &'a EdgeStore,
    rids: std::slice::Iter<'a, usize>,
    tag: &'a str,
}

impl Iterator for EdgeChildrenNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        self.rids
            .by_ref()
            .find(|&&rid| self.store.nodes.cell(rid, 1).as_str() == Some(self.tag))
            .map(|&rid| Node(rid as u32))
    }
}

/// Streaming form of System A's generic descendant plan: walk the tag
/// extent and verify containment by climbing parent pointers — the
/// repeated self-joins the paper attributes to edge mappings.
pub struct EdgeDescendantsNamed<'a> {
    store: &'a EdgeStore,
    extent: std::slice::Iter<'a, usize>,
    ctx: Node,
    /// At the root, containment holds for everything but the context node.
    from_root: bool,
}

impl Iterator for EdgeDescendantsNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        for &rid in self.extent.by_ref() {
            let c = Node(rid as u32);
            let contained = if self.from_root {
                c != self.ctx
            } else {
                self.store.climb_reaches(c, self.ctx)
            };
            if contained {
                return Some(c);
            }
        }
        None
    }
}

/// Streaming cursor over the `attr` relation's owner posting list.
pub struct EdgeAttrs<'a> {
    store: &'a EdgeStore,
    rids: std::slice::Iter<'a, usize>,
}

impl<'a> Iterator for EdgeAttrs<'a> {
    type Item = (&'a str, &'a str);

    #[inline]
    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        self.rids.next().map(|&rid| {
            (
                self.store.attrs.cell(rid, 1).as_str().expect("attr name"),
                self.store.attrs.cell(rid, 2).as_str().expect("attr value"),
            )
        })
    }
}

/// The System A store.
pub struct EdgeStore {
    nodes: Table,
    attrs: Table,
    parent_idx: HashIndex,
    tag_idx: HashIndex,
    owner_idx: HashIndex,
    root: u32,
    indexes: IndexManager,
}

impl EdgeStore {
    /// Bulkload: parse, flatten into the two relations, build the generic
    /// indexes. The conversion effort is deliberately part of the load time
    /// (Table 1 "constitute completed transactions and include the
    /// conversion effort").
    pub fn load(xml: &str) -> Result<Self, xmark_xml::Error> {
        Ok(Self::from_document(&xmark_xml::parse_document(xml)?))
    }

    /// Build from a parsed document.
    pub fn from_document(doc: &Document) -> Self {
        let mut nodes = Table::new("node", &["parent", "tag", "pos", "text"]);
        let mut attrs = Table::new("attr", &["owner", "name", "value"]);

        for id in 0..doc.node_count() as u32 {
            let node = NodeId(id);
            let parent = doc
                .parent(node)
                .map_or(Value::Null, |p| Value::Int(p.0 as i64));
            let pos = Value::Int(position_among_siblings(doc, node) as i64);
            match doc.text(node) {
                Some(t) => {
                    nodes.insert(vec![parent, Value::Null, pos, Value::str(t)]);
                }
                None => {
                    nodes.insert(vec![
                        parent,
                        Value::str(doc.tag_name(node)),
                        pos,
                        Value::Null,
                    ]);
                    for (sym, v) in doc.attributes(node) {
                        let name = doc.interner().resolve(*sym);
                        attrs.insert(vec![
                            Value::Int(id as i64),
                            Value::str(name),
                            Value::str(v.as_str()),
                        ]);
                    }
                }
            }
        }

        let parent_idx = HashIndex::build(&nodes, 0);
        let tag_idx = HashIndex::build(&nodes, 1);
        let owner_idx = HashIndex::build(&attrs, 0);
        EdgeStore {
            nodes,
            attrs,
            parent_idx,
            tag_idx,
            owner_idx,
            root: doc.root_element().0,
            indexes: IndexManager::new(),
        }
    }

    fn climb_reaches(&self, mut cur: Node, ancestor: Node) -> bool {
        while let Some(p) = self.parent(cur) {
            if p == ancestor {
                return true;
            }
            cur = p;
        }
        false
    }
}

fn position_among_siblings(doc: &Document, node: NodeId) -> usize {
    match doc.parent(node) {
        Some(p) => doc.children(p).position(|c| c == node).unwrap_or(0),
        None => 0,
    }
}

impl XmlStore for EdgeStore {
    fn system(&self) -> SystemId {
        SystemId::A
    }

    fn root(&self) -> Node {
        Node(self.root)
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn size_bytes(&self) -> usize {
        self.nodes.heap_size_bytes()
            + self.attrs.heap_size_bytes()
            + self.parent_idx.heap_size_bytes()
            + self.tag_idx.heap_size_bytes()
            + self.owner_idx.heap_size_bytes()
            + self.indexes.size_bytes()
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        self.nodes.cell(n.index(), 1).as_str()
    }

    fn parent(&self, n: Node) -> Option<Node> {
        self.nodes
            .cell(n.index(), 0)
            .as_i64()
            .map(|p| Node(p as u32))
    }

    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        self.nodes.cell(n.index(), 3).as_str().map(Cow::Borrowed)
    }

    fn attribute(&self, n: Node, name: &str) -> Option<String> {
        self.owner_idx
            .get(&Value::Int(n.0 as i64))
            .iter()
            .find(|&&rid| self.attrs.cell(rid, 1).as_str() == Some(name))
            .and_then(|&rid| self.attrs.cell(rid, 2).as_str().map(str::to_string))
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        // Parent-index rows were inserted in document order.
        ChildIter::Edge(EdgeChildren {
            rids: self.parent_idx.get(&Value::Int(n.0 as i64)).iter(),
        })
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        ChildrenNamed::Edge(EdgeChildrenNamed {
            store: self,
            rids: self.parent_idx.get(&Value::Int(n.0 as i64)).iter(),
            tag,
        })
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        DescendantsNamed::Edge(EdgeDescendantsNamed {
            store: self,
            extent: self.tag_idx.get(&Value::str(tag)).iter(),
            ctx: n,
            from_root: n.0 == self.root,
        })
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        AttrIter::Edge(EdgeAttrs {
            store: self,
            rids: self.owner_idx.get(&Value::Int(n.0 as i64)).iter(),
        })
    }

    fn planner_caps(&self) -> PlannerCaps {
        PlannerCaps {
            id_index: true,
            // The generic edge mapping has no subtree-scoped descendant
            // access of its own (extent scans climb parent chains), so the
            // shared posting-list index pays off.
            element_index: true,
            ..PlannerCaps::default()
        }
    }

    fn estimate_step(&self, tag: &str) -> StepEstimate {
        // One relation descriptor: the whole point of System A. A second
        // access fetches index statistics for the optimizer; the tag index
        // stores the whole extent per tag, so the count is exact.
        StepEstimate {
            rows: self.tag_idx.get(&Value::str(tag)).len() as u64,
            metadata_accesses: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<site><people><person id="person0"><name>Alice</name><homepage>http://a</homepage></person><person id="person1"><name>Bob</name></person></people></site>"#;

    fn store() -> EdgeStore {
        EdgeStore::load(SAMPLE).unwrap()
    }

    #[test]
    fn flattens_into_one_relation() {
        let s = store();
        // site, people, 2×person, 2×name + 2 text, homepage + text = 10.
        assert_eq!(s.node_count(), 10);
    }

    #[test]
    fn navigation_via_indexes() {
        let s = store();
        let root = s.root();
        assert_eq!(s.tag_of(root), Some("site"));
        let people: Vec<_> = s.children_named_iter(root, "people").collect();
        let persons: Vec<_> = s.children_named_iter(people[0], "person").collect();
        assert_eq!(persons.len(), 2);
        assert_eq!(s.attribute(persons[1], "id").as_deref(), Some("person1"));
        assert_eq!(s.string_value(persons[0]), "Alicehttp://a");
    }

    #[test]
    fn descendants_climb_parent_chain() {
        let s = store();
        let people = s.children_named_iter(s.root(), "people").next().unwrap();
        let names: Vec<_> = s.descendants_named_iter(people, "name").collect();
        assert_eq!(names.len(), 2);
        let persons: Vec<_> = s.children_named_iter(people, "person").collect();
        let names_under_bob: Vec<_> = s.descendants_named_iter(persons[1], "name").collect();
        assert_eq!(names_under_bob.len(), 1);
    }

    #[test]
    fn id_index_supports_q1() {
        let s = store();
        let hit = s.lookup_id("person0").unwrap();
        assert_eq!(s.tag_of(hit), Some("person"));
    }

    #[test]
    fn compile_metering_counts_two_per_step() {
        let s = store();
        let person = s.estimate_step("person");
        assert_eq!(person.rows, 2);
        assert_eq!(person.metadata_accesses, 2);
        let name = s.estimate_step("name");
        assert_eq!(person.metadata_accesses + name.metadata_accesses, 4);
    }

    #[test]
    fn matches_naive_store_semantics() {
        let s = store();
        let naive = crate::naive::NaiveStore::load(SAMPLE).unwrap();
        let a: Vec<u32> = s
            .descendants_named_iter(s.root(), "name")
            .map(|n| n.0)
            .collect();
        let b: Vec<u32> = naive
            .descendants_named_iter(naive.root(), "name")
            .map(|n| n.0)
            .collect();
        assert_eq!(a, b);
    }
}
