//! System G — the embedded, interpretive DOM walker.
//!
//! §7: "Query processors that are intended to serve as embedded query
//! processors in programming languages and aim at small to medium sized
//! documents." System G failed at scaling factor 1.0 and was measured at
//! 100 kB and 1 MB (Fig. 4). Its architecture: keep the parsed tree, build
//! **no** secondary structures, and answer every query by interpretive
//! traversal — even the Q1 ID lookup is a full scan.

use std::borrow::Cow;

use xmark_xml::dom::{Children, Descendants, Sym};
use xmark_xml::Document;

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::IndexManager;
use crate::traits::{Node, PlannerCaps, SystemId, XmlStore};

/// Streaming cursor over a DOM node's children.
pub struct DomChildren<'a> {
    iter: Children<'a>,
}

impl Iterator for DomChildren<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        self.iter.next().map(|c| Node(c.0))
    }
}

/// Streaming cursor over a DOM node's element children with a given tag,
/// tested by interned symbol (an integer compare per child).
pub struct DomChildrenNamed<'a> {
    doc: &'a Document,
    iter: Children<'a>,
    sym: Sym,
}

impl Iterator for DomChildrenNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        self.iter
            .by_ref()
            .find(|&c| self.doc.tag(c) == Some(self.sym))
            .map(|c| Node(c.0))
    }
}

/// Streaming cursor over a DOM subtree's descendant elements with a given
/// tag. The underlying [`Descendants`] walk is stackless (it climbs
/// sibling/parent links), so the whole traversal allocates nothing.
pub struct DomDescendantsNamed<'a> {
    doc: &'a Document,
    iter: Descendants<'a>,
    sym: Sym,
}

impl Iterator for DomDescendantsNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        self.iter
            .by_ref()
            .find(|&c| self.doc.tag(c) == Some(self.sym))
            .map(|c| Node(c.0))
    }
}

/// Streaming cursor over a DOM element's attributes.
pub struct DomAttrs<'a> {
    doc: &'a Document,
    iter: std::slice::Iter<'a, (Sym, String)>,
}

impl<'a> Iterator for DomAttrs<'a> {
    type Item = (&'a str, &'a str);

    #[inline]
    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        self.iter
            .next()
            .map(|(sym, v)| (self.doc.interner().resolve(*sym), v.as_str()))
    }
}

/// The naive DOM store.
pub struct NaiveStore {
    doc: Document,
    indexes: IndexManager,
}

impl NaiveStore {
    /// Bulkload: parse and keep the DOM; nothing else is built eagerly —
    /// the shared [`IndexManager`] structures appear lazily on first use.
    pub fn load(xml: &str) -> Result<Self, xmark_xml::Error> {
        Ok(NaiveStore {
            doc: xmark_xml::parse_document(xml)?,
            indexes: IndexManager::new(),
        })
    }

    /// Access to the underlying document (used by tests).
    pub fn document(&self) -> &Document {
        &self.doc
    }
}

impl XmlStore for NaiveStore {
    fn system(&self) -> SystemId {
        SystemId::G
    }

    fn root(&self) -> Node {
        Node(self.doc.root_element().0)
    }

    fn node_count(&self) -> usize {
        self.doc.node_count()
    }

    fn size_bytes(&self) -> usize {
        self.doc.heap_size_bytes() + self.indexes.size_bytes()
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn planner_caps(&self) -> PlannerCaps {
        PlannerCaps {
            // The DOM walker has no native secondary structures at all —
            // the shared store-layer indexes are pure win. The planner
            // still refuses ID probes (`id_index: false`), faithful to the
            // paper's System G, even though `lookup_id` now answers.
            element_index: true,
            ..PlannerCaps::default()
        }
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        let id = xmark_xml::NodeId(n.0);
        self.doc.tag(id).map(|sym| self.doc.interner().resolve(sym))
    }

    fn parent(&self, n: Node) -> Option<Node> {
        self.doc.parent(xmark_xml::NodeId(n.0)).map(|p| Node(p.0))
    }

    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        self.doc.text(xmark_xml::NodeId(n.0)).map(Cow::Borrowed)
    }

    fn attribute(&self, n: Node, name: &str) -> Option<String> {
        self.doc
            .attribute(xmark_xml::NodeId(n.0), name)
            .map(str::to_string)
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        ChildIter::Dom(DomChildren {
            iter: self.doc.children(xmark_xml::NodeId(n.0)),
        })
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        match self.doc.interner().get(tag) {
            None => ChildrenNamed::Empty,
            Some(sym) => ChildrenNamed::Dom(DomChildrenNamed {
                doc: &self.doc,
                iter: self.doc.children(xmark_xml::NodeId(n.0)),
                sym,
            }),
        }
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        match self.doc.interner().get(tag) {
            None => DescendantsNamed::Empty,
            Some(sym) => DescendantsNamed::Dom(DomDescendantsNamed {
                doc: &self.doc,
                iter: self.doc.descendants(xmark_xml::NodeId(n.0)),
                sym,
            }),
        }
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        AttrIter::Dom(DomAttrs {
            doc: &self.doc,
            iter: self.doc.attributes(xmark_xml::NodeId(n.0)).iter(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<site><people><person id="person0"><name>Alice</name></person><person id="person1"><name>Bob</name></person></people></site>"#;

    #[test]
    fn navigates_like_the_dom() {
        let store = NaiveStore::load(SAMPLE).unwrap();
        let root = store.root();
        assert_eq!(store.tag_of(root), Some("site"));
        let people: Vec<_> = store.children_named_iter(root, "people").collect();
        assert_eq!(people.len(), 1);
        let persons: Vec<_> = store.children_named_iter(people[0], "person").collect();
        assert_eq!(persons.len(), 2);
        assert_eq!(
            store.attribute(persons[0], "id").as_deref(),
            Some("person0")
        );
        assert_eq!(store.string_value(persons[1]), "Bob");
    }

    #[test]
    fn shared_index_answers_id_lookups() {
        // System G builds no secondary structures of its own — the
        // *planner* still refuses ID probes (`id_index: false`) — but a
        // direct lookup is answered by the shared store-layer attribute
        // index, built lazily on first call.
        let store = NaiveStore::load(SAMPLE).unwrap();
        assert!(!store.planner_caps().id_index);
        assert_eq!(store.indexes().builds(), 0, "nothing built eagerly");
        let hit = store.lookup_id("person0").unwrap();
        assert_eq!(store.tag_of(hit), Some("person"));
        assert_eq!(store.lookup_id("ghost"), None);
        assert_eq!(store.indexes().builds(), 1, "one lazy build, then reuse");
    }

    #[test]
    fn descendants_walk_the_tree() {
        let store = NaiveStore::load(SAMPLE).unwrap();
        let names: Vec<_> = store.descendants_named_iter(store.root(), "name").collect();
        assert_eq!(names.len(), 2);
        // Document order.
        assert!(names[0] < names[1]);
    }

    #[test]
    fn serializes_subtrees() {
        let store = NaiveStore::load(SAMPLE).unwrap();
        let persons: Vec<_> = store
            .descendants_named_iter(store.root(), "person")
            .collect();
        let mut out = String::new();
        store.serialize_node_to(persons[0], &mut out).unwrap();
        assert_eq!(out, r#"<person id="person0"><name>Alice</name></person>"#);
    }
}
