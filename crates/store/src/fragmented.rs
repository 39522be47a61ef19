//! System B — the fragmented (binary-association) store.
//!
//! §7: "System B on the other hand uses a highly fragmenting mapping.
//! Consequently … [it spends] twice as much time on query compilation …
//! However, this comes at a cost [for System A]: mappings that structure
//! the data according to their semantics can achieve significantly higher
//! CPU usage."
//!
//! The mapping (in the spirit of the Monet XML model, \[20\]): one relation
//! per element tag `e_<tag>(id, parent, pos)`, one relation per
//! text-parent tag `t_<tag>(id, parent, pos, value)`, and one relation per
//! (tag, attribute) pair `a_<tag>_<name>(owner, value)`. A query touching
//! k path steps touches ≥ k relation descriptors — the Table 2 effect —
//! while per-tag scans are cheap because each relation *is* the extent of
//! its tag.

use std::borrow::Cow;
use std::collections::HashMap;

use xmark_rel::{HashIndex, Table, Value};
use xmark_xml::{Document, NodeId};

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::IndexManager;
use crate::traits::{Node, PlannerCaps, StepEstimate, SystemId, XmlStore};

const TEXT_FLAG: u16 = 1 << 15;

/// Streaming cursor over a single element fragment's parent posting list.
/// Posting lists are appended during the document-order bulkload scan, so
/// row ids — and therefore the node ids in column 0 — come out ascending;
/// no sort is needed.
pub struct FragChildrenNamed<'a> {
    rows: &'a Table,
    rids: std::slice::Iter<'a, usize>,
}

impl Iterator for FragChildrenNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        self.rids
            .next()
            .map(|&rid| Node(self.rows.cell(rid, 0).as_i64().expect("id") as u32))
    }
}

/// Streaming form of System B's descendant plan: scan the tag's fragment
/// (each relation *is* the extent of its tag) and verify containment by
/// climbing parent pointers. Fragment rows are in document order, so the
/// results stream out ordered.
pub struct FragDescendantsNamed<'a> {
    store: &'a FragmentedStore,
    rows: &'a Table,
    next_rid: usize,
    ctx: Node,
    from_root: bool,
}

impl Iterator for FragDescendantsNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        while self.next_rid < self.rows.len() {
            let rid = self.next_rid;
            self.next_rid += 1;
            let c = Node(self.rows.cell(rid, 0).as_i64().expect("id") as u32);
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

/// One fragment: a relation plus its parent index.
struct Fragment {
    rows: Table,
    parent_idx: HashIndex,
}

/// One (tag, attribute-name) relation.
struct AttrFragment {
    rows: Table,
    owner_idx: HashIndex,
}

/// The System B store.
pub struct FragmentedStore {
    tag_names: Vec<String>,
    tag_lookup: HashMap<String, u16>,
    /// Element fragments, indexed by tag code.
    elem: Vec<Fragment>,
    /// Text fragments, indexed by the *parent* tag code.
    text: Vec<Fragment>,
    /// Attribute fragments keyed `"tag.name"`.
    attr: HashMap<String, AttrFragment>,
    /// Logical OID directory: node id → (tag code | TEXT_FLAG, row).
    directory: Vec<(u16, u32)>,
    root: u32,
    indexes: IndexManager,
}

impl FragmentedStore {
    /// Bulkload: parse and fragment.
    pub fn load(xml: &str) -> Result<Self, xmark_xml::Error> {
        Ok(Self::from_document(&xmark_xml::parse_document(xml)?))
    }

    /// Build from a parsed document.
    pub fn from_document(doc: &Document) -> Self {
        let mut tag_names: Vec<String> = Vec::new();
        let mut tag_lookup: HashMap<String, u16> = HashMap::new();
        let mut elem_rows: Vec<Table> = Vec::new();
        let mut text_rows: Vec<Table> = Vec::new();
        let mut attr_rows: HashMap<String, Table> = HashMap::new();
        let mut directory: Vec<(u16, u32)> = vec![(0, 0); doc.node_count()];

        let code_of = |tag: &str,
                       tag_names: &mut Vec<String>,
                       tag_lookup: &mut HashMap<String, u16>,
                       elem_rows: &mut Vec<Table>,
                       text_rows: &mut Vec<Table>|
         -> u16 {
            if let Some(&c) = tag_lookup.get(tag) {
                return c;
            }
            let c = tag_names.len() as u16;
            tag_names.push(tag.to_string());
            tag_lookup.insert(tag.to_string(), c);
            elem_rows.push(Table::new(format!("e_{tag}"), &["id", "parent", "pos"]));
            text_rows.push(Table::new(
                format!("t_{tag}"),
                &["id", "parent", "pos", "value"],
            ));
            c
        };

        for id in 0..doc.node_count() as u32 {
            let node = NodeId(id);
            let parent = doc.parent(node);
            let parent_val = parent.map_or(Value::Null, |p| Value::Int(p.0 as i64));
            let pos = Value::Int(sibling_position(doc, node) as i64);
            match doc.text(node) {
                Some(t) => {
                    let ptag = doc.tag_name(parent.expect("text has parent"));
                    let code = code_of(
                        ptag,
                        &mut tag_names,
                        &mut tag_lookup,
                        &mut elem_rows,
                        &mut text_rows,
                    );
                    let row = text_rows[code as usize].insert(vec![
                        Value::Int(id as i64),
                        parent_val,
                        pos,
                        Value::str(t),
                    ]);
                    directory[id as usize] = (code | TEXT_FLAG, row as u32);
                }
                None => {
                    let tag = doc.tag_name(node);
                    let code = code_of(
                        tag,
                        &mut tag_names,
                        &mut tag_lookup,
                        &mut elem_rows,
                        &mut text_rows,
                    );
                    let row = elem_rows[code as usize].insert(vec![
                        Value::Int(id as i64),
                        parent_val,
                        pos,
                    ]);
                    directory[id as usize] = (code, row as u32);
                    for (sym, v) in doc.attributes(node) {
                        let name = doc.interner().resolve(*sym);
                        let key = format!("{tag}.{name}");
                        attr_rows
                            .entry(key.clone())
                            .or_insert_with(|| Table::new(format!("a_{key}"), &["owner", "value"]))
                            .insert(vec![Value::Int(id as i64), Value::str(v.as_str())]);
                    }
                }
            }
        }

        let elem = elem_rows
            .into_iter()
            .map(|rows| {
                let parent_idx = HashIndex::build(&rows, 1);
                Fragment { rows, parent_idx }
            })
            .collect();
        let text = text_rows
            .into_iter()
            .map(|rows| {
                let parent_idx = HashIndex::build(&rows, 1);
                Fragment { rows, parent_idx }
            })
            .collect();
        let attr = attr_rows
            .into_iter()
            .map(|(key, rows)| {
                let owner_idx = HashIndex::build(&rows, 0);
                (key, AttrFragment { rows, owner_idx })
            })
            .collect();

        FragmentedStore {
            tag_names,
            tag_lookup,
            elem,
            text,
            attr,
            directory,
            root: doc.root_element().0,
            indexes: IndexManager::new(),
        }
    }

    /// Number of relations in the catalog — the "breadth" that drives B's
    /// compile cost (exposed for tests and the Table 2 report).
    pub fn relation_count(&self) -> usize {
        self.elem.len() + self.text.len() + self.attr.len()
    }

    /// Extent cardinality of a tag *without* B's four-descriptor
    /// resolution — used by the DTD-inlined store, whose schema already
    /// knows the fragment.
    pub fn fragment_cardinality(&self, tag: &str) -> usize {
        self.tag_lookup
            .get(tag)
            .map(|&code| self.elem[code as usize].rows.len())
            .unwrap_or(0)
    }

    fn entry(&self, n: Node) -> (u16, u32) {
        self.directory[n.index()]
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

fn sibling_position(doc: &Document, node: NodeId) -> usize {
    match doc.parent(node) {
        Some(p) => doc.children(p).position(|c| c == node).unwrap_or(0),
        None => 0,
    }
}

impl XmlStore for FragmentedStore {
    fn system(&self) -> SystemId {
        SystemId::B
    }

    fn root(&self) -> Node {
        Node(self.root)
    }

    fn node_count(&self) -> usize {
        self.directory.len()
    }

    fn size_bytes(&self) -> usize {
        let mut total = self.directory.len() * 6;
        for f in self.elem.iter().chain(self.text.iter()) {
            total += f.rows.heap_size_bytes() + f.parent_idx.heap_size_bytes();
        }
        for f in self.attr.values() {
            total += f.rows.heap_size_bytes() + f.owner_idx.heap_size_bytes();
        }
        total += self.indexes.size_bytes();
        total
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        let (code, _) = self.entry(n);
        if code & TEXT_FLAG != 0 {
            None
        } else {
            Some(&self.tag_names[code as usize])
        }
    }

    fn parent(&self, n: Node) -> Option<Node> {
        let (code, row) = self.entry(n);
        let table = if code & TEXT_FLAG != 0 {
            &self.text[(code & !TEXT_FLAG) as usize].rows
        } else {
            &self.elem[code as usize].rows
        };
        table.cell(row as usize, 1).as_i64().map(|p| Node(p as u32))
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        // Reassembly: probe *every* fragment's parent index and merge — the
        // fragmenting mapping's reconstruction overhead in the flesh. This
        // is the one axis System B genuinely has to materialize.
        let key = Value::Int(n.0 as i64);
        let mut out: Vec<Node> = Vec::new();
        for f in &self.elem {
            for &rid in f.parent_idx.get(&key) {
                out.push(Node(f.rows.cell(rid, 0).as_i64().expect("id") as u32));
            }
        }
        for f in &self.text {
            for &rid in f.parent_idx.get(&key) {
                out.push(Node(f.rows.cell(rid, 0).as_i64().expect("id") as u32));
            }
        }
        out.sort_unstable();
        ChildIter::from_vec(out)
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        // Single-fragment probe: where fragmentation pays off.
        let Some(&code) = self.tag_lookup.get(tag) else {
            return ChildrenNamed::Empty;
        };
        let f = &self.elem[code as usize];
        ChildrenNamed::Frag(FragChildrenNamed {
            rows: &f.rows,
            rids: f.parent_idx.get(&Value::Int(n.0 as i64)).iter(),
        })
    }

    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        let (code, row) = self.entry(n);
        if code & TEXT_FLAG == 0 {
            return None;
        }
        self.text[(code & !TEXT_FLAG) as usize]
            .rows
            .cell(row as usize, 3)
            .as_str()
            .map(Cow::Borrowed)
    }

    fn attribute(&self, n: Node, name: &str) -> Option<String> {
        let tag = self.tag_of(n)?;
        let frag = self.attr.get(&format!("{tag}.{name}"))?;
        frag.owner_idx
            .get(&Value::Int(n.0 as i64))
            .first()
            .and_then(|&rid| frag.rows.cell(rid, 1).as_str().map(str::to_string))
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        let Some(tag) = self.tag_of(n) else {
            return AttrIter::Empty;
        };
        // Reassemble per-(tag, attr) fragments into name order. Only the
        // references are buffered and sorted, never the strings.
        let prefix = format!("{tag}.");
        let mut out: Vec<(&str, &str)> = Vec::new();
        for (key, frag) in &self.attr {
            if let Some(name) = key.strip_prefix(&prefix) {
                for &rid in frag.owner_idx.get(&Value::Int(n.0 as i64)) {
                    out.push((name, frag.rows.cell(rid, 1).as_str().expect("attr value")));
                }
            }
        }
        out.sort();
        AttrIter::Sorted(out.into_iter())
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        let Some(&code) = self.tag_lookup.get(tag) else {
            return DescendantsNamed::Empty;
        };
        let f = &self.elem[code as usize];
        DescendantsNamed::Frag(FragDescendantsNamed {
            store: self,
            rows: &f.rows,
            next_rid: 0,
            ctx: n,
            from_root: n.0 == self.root,
        })
    }

    fn planner_caps(&self) -> PlannerCaps {
        PlannerCaps {
            id_index: true,
            // Fragment scans verify containment by climbing parent chains;
            // the shared posting-list index stabs instead.
            element_index: true,
            ..PlannerCaps::default()
        }
    }

    fn estimate_step(&self, tag: &str) -> StepEstimate {
        // Per step: the element fragment descriptor, its text twin, the
        // attribute fragments of the tag, and per-fragment statistics —
        // four metadata accesses resolved by *name* against a catalog of
        // hundreds of relations. This breadth is what the paper blames for
        // B's 51% compile share on Q1.
        let mut est = StepEstimate {
            rows: 0,
            metadata_accesses: 4,
        };
        let Some(&code) = self.tag_lookup.get(tag) else {
            return est;
        };
        let f = &self.elem[code as usize];
        // Name-keyed descriptor resolution, as a catalog would do it.
        debug_assert_eq!(f.rows.name, format!("e_{tag}"));
        let text_twin = &self.text[code as usize];
        let _ = text_twin.rows.len();
        // Attribute fragments of this tag (B fragments per (tag, attr)).
        let prefix = format!("{tag}.");
        let attr_fragments = self.attr.keys().filter(|k| k.starts_with(&prefix)).count();
        let _ = attr_fragments;
        // Per-fragment statistics for the optimizer; per-tag fragments
        // carry exact row counts.
        let _ = f.parent_idx.distinct_keys();
        est.rows = f.rows.len() as u64;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<site><people><person id="person0"><name>Alice</name><homepage>http://a</homepage></person><person id="person1"><name>Bob</name></person></people><regions><europe><item id="item0"><name>cup</name></item></europe></regions></site>"#;

    fn store() -> FragmentedStore {
        FragmentedStore::load(SAMPLE).unwrap()
    }

    #[test]
    fn fragments_one_relation_per_tag() {
        let s = store();
        // site, people, person, name, homepage, regions, europe, item → 8
        // element fragments (plus their text twins and attr fragments).
        assert_eq!(s.tag_names.len(), 8);
        assert!(s.relation_count() >= 16);
    }

    #[test]
    fn navigation_matches_naive() {
        let s = store();
        let naive = crate::naive::NaiveStore::load(SAMPLE).unwrap();
        for tag in ["name", "person", "item", "ghost"] {
            let a: Vec<u32> = s
                .descendants_named_iter(s.root(), tag)
                .map(|n| n.0)
                .collect();
            let b: Vec<u32> = naive
                .descendants_named_iter(naive.root(), tag)
                .map(|n| n.0)
                .collect();
            assert_eq!(a, b, "tag {tag}");
        }
    }

    #[test]
    fn children_reassemble_across_fragments() {
        let s = store();
        let people = s.children_named_iter(s.root(), "people").next().unwrap();
        let persons: Vec<_> = s.children_iter(people).collect();
        assert_eq!(persons.len(), 2);
        let alice_kids: Vec<_> = s
            .children_iter(persons[0])
            .map(|c| s.tag_of(c).unwrap().to_string())
            .collect();
        assert_eq!(alice_kids, vec!["name", "homepage"]);
    }

    #[test]
    fn text_and_attributes_round_trip() {
        let s = store();
        let persons: Vec<_> = s.descendants_named_iter(s.root(), "person").collect();
        assert_eq!(s.attribute(persons[0], "id").as_deref(), Some("person0"));
        assert_eq!(s.string_value(persons[1]), "Bob");
        let attrs: Vec<_> = s.attributes_iter(persons[0]).collect();
        assert_eq!(attrs, vec![("id", "person0".into())]);
    }

    #[test]
    fn compile_cost_is_four_accesses_per_step() {
        let s = store();
        let est = s.estimate_step("person");
        assert_eq!(est.rows, 2);
        assert_eq!(est.metadata_accesses, 4);
    }

    #[test]
    fn subtree_scoped_descendants() {
        let s = store();
        let regions = s.children_named_iter(s.root(), "regions").next().unwrap();
        assert_eq!(s.descendants_named_iter(regions, "name").count(), 1);
    }
}
