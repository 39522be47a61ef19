//! Arena-allocated document object model.
//!
//! Design notes:
//!
//! * Nodes live in a single `Vec`; a [`NodeId`] is an index. Documents built
//!   by the parser allocate nodes in depth-first pre-order, so **comparing
//!   two `NodeId`s compares document order** — exactly what XMark query Q4's
//!   `BEFORE` (`<<`) operator needs, for free.
//! * Element and attribute names are interned ([`Sym`]), so tag comparisons
//!   during query evaluation are integer comparisons and the per-node
//!   footprint stays small (the paper's §2 point (2): strings dominate XML;
//!   we keep them out of the tree skeleton).
//! * Attribute *values* and text content are owned strings: XMark queries
//!   cast them to numbers at runtime (§7: "all character data … were stored
//!   as strings and cast at runtime"), which we faithfully reproduce.

use std::collections::HashMap;
use std::fmt;

/// Interned name (element tag or attribute name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// Index of a node within its [`Document`] arena.
///
/// Ordering of `NodeId`s produced by the parser is document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// An element with an interned tag name.
    Element {
        /// Interned tag name.
        name: Sym,
    },
    /// A text node.
    Text {
        /// Character data (already unescaped).
        text: String,
    },
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    next_sibling: Option<NodeId>,
    /// Attributes, only non-empty for elements. Stored inline because the
    /// XMark schema averages < 1 attribute per element.
    attrs: Vec<(Sym, String)>,
}

/// String interner shared by a document.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    names: Vec<String>,
    lookup: HashMap<String, Sym>,
}

impl Interner {
    /// Intern `name`, returning its symbol.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.lookup.get(name) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        self.names.push(name.to_string());
        self.lookup.insert(name.to_string(), sym);
        sym
    }

    /// Resolve a symbol back to its string.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Look up a name without interning it.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.lookup.get(name).copied()
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// An XML document: an arena of nodes plus an interner.
///
/// A document always has a root *element* once parsing succeeds; documents
/// under construction may temporarily have none.
#[derive(Debug, Clone, Default)]
pub struct Document {
    nodes: Vec<Node>,
    interner: Interner,
    root: Option<NodeId>,
}

impl Document {
    /// Create an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (elements + text nodes) in the arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The interner used for element/attribute names.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The root element.
    ///
    /// # Panics
    /// Panics if the document has no root yet.
    pub fn root_element(&self) -> NodeId {
        self.root.expect("document has no root element")
    }

    /// The root element, if set.
    pub fn try_root(&self) -> Option<NodeId> {
        self.root
    }

    /// Mark `node` as the document root.
    pub fn set_root(&mut self, node: NodeId) {
        self.root = Some(node);
    }

    /// Allocate a new element node with tag `name` (interning it).
    pub fn create_element(&mut self, name: &str) -> NodeId {
        let sym = self.interner.intern(name);
        self.create_element_sym(sym)
    }

    /// Allocate a new element node with an already-interned tag.
    pub fn create_element_sym(&mut self, name: Sym) -> NodeId {
        self.push_node(Node {
            kind: NodeKind::Element { name },
            parent: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
            attrs: Vec::new(),
        })
    }

    /// Allocate a new text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.push_node(Node {
            kind: NodeKind::Text { text: text.into() },
            parent: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
            attrs: Vec::new(),
        })
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Append `child` as the last child of `parent`.
    ///
    /// # Panics
    /// Panics if `child` already has a parent.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        assert!(
            self.nodes[child.index()].parent.is_none(),
            "node already attached"
        );
        self.nodes[child.index()].parent = Some(parent);
        match self.nodes[parent.index()].last_child {
            Some(last) => {
                self.nodes[last.index()].next_sibling = Some(child);
                self.nodes[parent.index()].last_child = Some(child);
            }
            None => {
                let p = &mut self.nodes[parent.index()];
                p.first_child = Some(child);
                p.last_child = Some(child);
            }
        }
    }

    /// Set attribute `name` = `value` on `element` (appending; XMark never
    /// writes duplicate attribute names).
    pub fn set_attribute(&mut self, element: NodeId, name: &str, value: impl Into<String>) {
        let sym = self.interner.intern(name);
        self.nodes[element.index()].attrs.push((sym, value.into()));
    }

    /// The node's kind.
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.nodes[node.index()].kind
    }

    /// Whether the node is an element.
    pub fn is_element(&self, node: NodeId) -> bool {
        matches!(self.nodes[node.index()].kind, NodeKind::Element { .. })
    }

    /// Interned tag of an element node, or `None` for text nodes.
    pub fn tag(&self, node: NodeId) -> Option<Sym> {
        match self.nodes[node.index()].kind {
            NodeKind::Element { name } => Some(name),
            NodeKind::Text { .. } => None,
        }
    }

    /// Tag name of an element node as a string.
    ///
    /// # Panics
    /// Panics on text nodes.
    pub fn tag_name(&self, node: NodeId) -> &str {
        self.interner
            .resolve(self.tag(node).expect("tag_name on a text node"))
    }

    /// Text of a text node, or `None` for elements.
    pub fn text(&self, node: NodeId) -> Option<&str> {
        match &self.nodes[node.index()].kind {
            NodeKind::Text { text } => Some(text),
            NodeKind::Element { .. } => None,
        }
    }

    /// Parent node.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// First child.
    pub fn first_child(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].first_child
    }

    /// Next sibling.
    pub fn next_sibling(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].next_sibling
    }

    /// Attributes of an element in document order.
    pub fn attributes(&self, node: NodeId) -> &[(Sym, String)] {
        &self.nodes[node.index()].attrs
    }

    /// Look up an attribute by name.
    pub fn attribute(&self, node: NodeId, name: &str) -> Option<&str> {
        let sym = self.interner.get(name)?;
        self.attribute_sym(node, sym)
    }

    /// Look up an attribute by interned name.
    pub fn attribute_sym(&self, node: NodeId, name: Sym) -> Option<&str> {
        self.nodes[node.index()]
            .attrs
            .iter()
            .find(|(s, _)| *s == name)
            .map(|(_, v)| v.as_str())
    }

    /// Iterate over the children of `node` in document order.
    pub fn children(&self, node: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.nodes[node.index()].first_child,
        }
    }

    /// Iterate over element children with tag `name`.
    pub fn children_named(&self, node: NodeId, name: Sym) -> impl Iterator<Item = NodeId> + '_ {
        self.children(node)
            .filter(move |&c| self.tag(c) == Some(name))
    }

    /// Iterate over all descendants of `node` (excluding `node` itself) in
    /// document order.
    pub fn descendants(&self, node: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            origin: node,
            next: self.nodes[node.index()].first_child,
        }
    }

    /// The concatenated text of all descendant text nodes ("string value").
    pub fn string_value(&self, node: NodeId) -> String {
        let mut out = String::new();
        self.string_value_into(node, &mut out);
        out
    }

    /// Append the string value of `node` to `out`.
    pub fn string_value_into(&self, node: NodeId, out: &mut String) {
        match &self.nodes[node.index()].kind {
            NodeKind::Text { text } => out.push_str(text),
            NodeKind::Element { .. } => {
                for child in self.children(node) {
                    self.string_value_into(child, out);
                }
            }
        }
    }

    /// The text directly contained in `node` (children only, not deeper) —
    /// the common case for XMark leaf elements like `<name>` and `<price>`.
    pub fn direct_text(&self, node: NodeId) -> Option<&str> {
        let mut found = None;
        for child in self.children(node) {
            if let Some(t) = self.text(child) {
                if found.is_some() {
                    // Multiple text children: fall back to string_value
                    // semantics via the caller.
                    return None;
                }
                found = Some(t);
            }
        }
        found
    }

    /// Depth of `node` (root element has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// True iff `a` strictly precedes `b` in document order. Valid for
    /// parser-built documents, where node ids are pre-order.
    pub fn doc_order_lt(&self, a: NodeId, b: NodeId) -> bool {
        a < b
    }

    /// Approximate resident size of the DOM in bytes, used by the Table 1
    /// ("database sizes") reproduction for the main-memory backends.
    pub fn heap_size_bytes(&self) -> usize {
        let mut total = self.nodes.capacity() * std::mem::size_of::<Node>();
        for node in &self.nodes {
            total += node.attrs.capacity() * std::mem::size_of::<(Sym, String)>();
            for (_, v) in &node.attrs {
                total += v.capacity();
            }
            if let NodeKind::Text { text } = &node.kind {
                total += text.capacity();
            }
        }
        for name in &self.interner.names {
            total += name.capacity();
        }
        total
    }

    /// All node ids in arena (= document) order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }
}

/// Iterator over a node's children.
pub struct Children<'d> {
    doc: &'d Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.next_sibling(cur);
        Some(cur)
    }
}

/// Pre-order iterator over a node's descendants.
pub struct Descendants<'d> {
    doc: &'d Document,
    origin: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        // Compute successor in pre-order, not escaping the origin subtree.
        let mut succ = self.doc.first_child(cur);
        if succ.is_none() {
            let mut up = cur;
            while up != self.origin {
                if let Some(sib) = self.doc.next_sibling(up) {
                    succ = Some(sib);
                    break;
                }
                up = self.doc.parent(up).expect("descendant must have parent");
            }
        }
        self.next = succ;
        Some(cur)
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_root() {
            Some(root) => write!(f, "{}", crate::serialize::serialize_node(self, root)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::new();
        let root = doc.create_element("site");
        let people = doc.create_element("people");
        let person = doc.create_element("person");
        doc.set_attribute(person, "id", "person0");
        let name = doc.create_element("name");
        let text = doc.create_text("Alice");
        doc.append_child(root, people);
        doc.append_child(people, person);
        doc.append_child(person, name);
        doc.append_child(name, text);
        doc.set_root(root);
        (doc, root, person, name)
    }

    #[test]
    fn builds_and_navigates_tree() {
        let (doc, root, person, name) = sample();
        assert_eq!(doc.tag_name(root), "site");
        assert_eq!(doc.parent(name), Some(person));
        assert_eq!(doc.children(root).count(), 1);
        assert_eq!(doc.attribute(person, "id"), Some("person0"));
        assert_eq!(doc.attribute(person, "missing"), None);
    }

    #[test]
    fn string_value_concatenates_text() {
        let (doc, root, ..) = sample();
        assert_eq!(doc.string_value(root), "Alice");
    }

    #[test]
    fn direct_text_reads_leaf_elements() {
        let (doc, _, _, name) = sample();
        assert_eq!(doc.direct_text(name), Some("Alice"));
    }

    #[test]
    fn descendants_are_preorder() {
        let (doc, root, ..) = sample();
        let tags: Vec<String> = doc
            .descendants(root)
            .map(|n| match doc.kind(n) {
                NodeKind::Element { .. } => doc.tag_name(n).to_string(),
                NodeKind::Text { text } => format!("#{text}"),
            })
            .collect();
        assert_eq!(tags, vec!["people", "person", "name", "#Alice"]);
    }

    #[test]
    fn descendants_stop_at_subtree_boundary() {
        let mut doc = Document::new();
        let root = doc.create_element("r");
        let a = doc.create_element("a");
        let a1 = doc.create_element("a1");
        let b = doc.create_element("b");
        doc.append_child(root, a);
        doc.append_child(a, a1);
        doc.append_child(root, b);
        doc.set_root(root);
        let descs: Vec<NodeId> = doc.descendants(a).collect();
        assert_eq!(descs, vec![a1]);
    }

    #[test]
    fn node_ids_are_document_order_for_builder_preorder() {
        let (doc, root, person, name) = sample();
        assert!(doc.doc_order_lt(root, person));
        assert!(doc.doc_order_lt(person, name));
    }

    #[test]
    fn depth_counts_ancestors() {
        let (doc, root, person, name) = sample();
        assert_eq!(doc.depth(root), 0);
        assert_eq!(doc.depth(person), 2);
        assert_eq!(doc.depth(name), 3);
    }

    #[test]
    fn interner_dedupes() {
        let mut i = Interner::default();
        let a = i.intern("item");
        let b = i.intern("item");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.resolve(a), "item");
    }

    #[test]
    fn heap_size_is_positive_and_grows() {
        let (doc, ..) = sample();
        let small = doc.heap_size_bytes();
        assert!(small > 0);
        let mut bigger = doc.clone();
        let extra = bigger.create_text("x".repeat(10_000));
        let root = bigger.root_element();
        bigger.append_child(root, extra);
        assert!(bigger.heap_size_bytes() > small + 9_000);
    }
}
