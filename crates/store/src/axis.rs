//! Streaming axis cursors — the zero-allocation navigation layer.
//!
//! The seed version of [`XmlStore`](crate::traits::XmlStore) materialized
//! every navigation step as a fresh `Vec<Node>`, so the evaluator's hot
//! path was dominated by allocator traffic rather than the architectural
//! differences the paper measures. This module replaces that contract with
//! *cursors*: each axis (`child`, `child::tag`, `descendant-or-self::tag`,
//! `@*`) is a concrete enum whose variants wrap the native lazy walk of
//! each backend — a linked-sibling hop for System D, an interval hop for
//! E/F, a posting-list scan for A/B, a DOM sibling chain for G. Backends
//! whose architecture genuinely has to reassemble (System B's
//! `children()` across fragments, its sorted attribute sets) fall back to
//! the `Materialized` variant, which is itself the honest cost of that
//! architecture.
//!
//! The enums are deliberately *concrete* (not `Box<dyn Iterator>`): a path
//! step on Systems D, E and G performs no heap allocation at all, so
//! timings reflect access-path cost rather than allocator traffic.
//!
//! This mirrors how disk-based structured-search engines expose lazy
//! posting cursors instead of materialized node sets, and keeps the
//! access-path contract separate from the executor, willow/bustub-style.

use std::borrow::Cow;

use crate::edge::{EdgeAttrs, EdgeChildren, EdgeChildrenNamed, EdgeDescendantsNamed};
use crate::fragmented::{FragChildrenNamed, FragDescendantsNamed};
use crate::interval::{IntervalChildren, IntervalChildrenNamed, IntervalScanNamed};
use crate::naive::{DomAttrs, DomChildren, DomChildrenNamed, DomDescendantsNamed};
use crate::paged::{PagedChildren, PagedChildrenNamed, PagedScanNamed};
use crate::summary::{LinkedChildren, LinkedChildrenNamed, SummaryDescendantsNamed};
use crate::traits::Node;

/// Cursor over *all* children (elements and text) in document order.
pub enum ChildIter<'a> {
    /// No children.
    Empty,
    /// Pre-collected nodes (System B's cross-fragment reassembly, and the
    /// trait-default fallback).
    Materialized(std::vec::IntoIter<Node>),
    /// DOM sibling chain (System G).
    Dom(DomChildren<'a>),
    /// Parent-index posting list (System A).
    Edge(EdgeChildren<'a>),
    /// Containment-interval hop (Systems E/F).
    Interval(IntervalChildren<'a>),
    /// Columnar `first_child`/`next_sibling` chain (System D).
    Linked(LinkedChildren<'a>),
    /// Interval hop over buffer-pool pages (backend H).
    Paged(PagedChildren<'a>),
}

impl ChildIter<'_> {
    /// Wrap an already-materialized child list.
    pub fn from_vec(nodes: Vec<Node>) -> Self {
        ChildIter::Materialized(nodes.into_iter())
    }
}

impl Iterator for ChildIter<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        match self {
            ChildIter::Empty => None,
            ChildIter::Materialized(it) => it.next(),
            ChildIter::Dom(it) => it.next(),
            ChildIter::Edge(it) => it.next(),
            ChildIter::Interval(it) => it.next(),
            ChildIter::Linked(it) => it.next(),
            ChildIter::Paged(it) => it.next(),
        }
    }
}

/// Cursor over element children with a given tag, in document order.
pub enum ChildrenNamed<'a> {
    /// No matches (including "tag unknown to this store").
    Empty,
    /// Pre-collected nodes (trait-default fallback).
    Materialized(std::vec::IntoIter<Node>),
    /// DOM sibling chain with an interned-symbol test (System G).
    Dom(DomChildrenNamed<'a>),
    /// Parent-index posting list with a tag test (System A).
    Edge(EdgeChildrenNamed<'a>),
    /// Single-fragment posting list — fragmentation's payoff (Systems B/C).
    Frag(FragChildrenNamed<'a>),
    /// Interval hop with a tag-code test (Systems E/F).
    Interval(IntervalChildrenNamed<'a>),
    /// Sibling chain with a summary-tag test (System D).
    Linked(LinkedChildrenNamed<'a>),
    /// Interval hop with a tag-code test over buffer-pool pages
    /// (backend H).
    Paged(PagedChildrenNamed<'a>),
}

impl ChildrenNamed<'_> {
    /// Wrap an already-materialized child list.
    pub fn from_vec(nodes: Vec<Node>) -> Self {
        ChildrenNamed::Materialized(nodes.into_iter())
    }
}

impl Iterator for ChildrenNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        match self {
            ChildrenNamed::Empty => None,
            ChildrenNamed::Materialized(it) => it.next(),
            ChildrenNamed::Dom(it) => it.next(),
            ChildrenNamed::Edge(it) => it.next(),
            ChildrenNamed::Frag(it) => it.next(),
            ChildrenNamed::Interval(it) => it.next(),
            ChildrenNamed::Linked(it) => it.next(),
            ChildrenNamed::Paged(it) => it.next(),
        }
    }
}

/// Cursor over descendant elements with a given tag, in document order.
pub enum DescendantsNamed<'a> {
    /// No matches.
    Empty,
    /// Pre-collected nodes (trait-default fallback).
    Materialized(std::vec::IntoIter<Node>),
    /// Stackless pre-order DOM walk (System G).
    Dom(DomDescendantsNamed<'a>),
    /// Tag-extent scan with parent-chain containment checks (System A).
    Edge(EdgeDescendantsNamed<'a>),
    /// Fragment scan with parent-chain containment checks (Systems B/C).
    Frag(FragDescendantsNamed<'a>),
    /// A contiguous slice of a sorted tag extent — System E's stab join
    /// and System D's single-path case.
    Extent(std::slice::Iter<'a, u32>),
    /// Interval scan with a tag-code test (System F).
    IntervalScan(IntervalScanNamed<'a>),
    /// K-way merge over several summary-path extents (System D).
    SummaryMerge(SummaryDescendantsNamed<'a>),
    /// Interval scan with a tag-code test over buffer-pool pages
    /// (backend H).
    PagedScan(PagedScanNamed<'a>),
}

impl DescendantsNamed<'_> {
    /// Wrap an already-materialized node list.
    pub fn from_vec(nodes: Vec<Node>) -> Self {
        DescendantsNamed::Materialized(nodes.into_iter())
    }
}

impl Iterator for DescendantsNamed<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        match self {
            DescendantsNamed::Empty => None,
            DescendantsNamed::Materialized(it) => it.next(),
            DescendantsNamed::Dom(it) => it.next(),
            DescendantsNamed::Edge(it) => it.next(),
            DescendantsNamed::Frag(it) => it.next(),
            DescendantsNamed::Extent(it) => it.next().map(|&id| Node(id)),
            DescendantsNamed::IntervalScan(it) => it.next(),
            DescendantsNamed::SummaryMerge(it) => it.next(),
            DescendantsNamed::PagedScan(it) => it.next(),
        }
    }
}

/// Cursor over an element's attributes as `(name, value)` pairs. Names
/// always borrow from the store's resident name table; values borrow on
/// the RAM-resident backends and are owned where they live on evictable
/// pages (backend H).
pub enum AttrIter<'a> {
    /// No attributes.
    Empty,
    /// A stored `(name, value)` slice (Systems D/E/F).
    Pairs(std::slice::Iter<'a, (String, String)>),
    /// DOM attribute slice with symbol resolution (System G).
    Dom(DomAttrs<'a>),
    /// Owner-index posting list over the `attr` relation (System A).
    Edge(EdgeAttrs<'a>),
    /// Name-sorted borrowed pairs (System B reassembles per-(tag, attr)
    /// fragments; the sort buffer holds references, not copies).
    Sorted(std::vec::IntoIter<(&'a str, &'a str)>),
    /// Values copied off pinned pages (backend H).
    Owned(std::vec::IntoIter<(&'a str, String)>),
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = (&'a str, Cow<'a, str>);

    #[inline]
    fn next(&mut self) -> Option<(&'a str, Cow<'a, str>)> {
        let (name, value) = match self {
            AttrIter::Empty => return None,
            AttrIter::Pairs(it) => it.next().map(|(k, v)| (k.as_str(), v.as_str()))?,
            AttrIter::Dom(it) => it.next()?,
            AttrIter::Edge(it) => it.next()?,
            AttrIter::Sorted(it) => it.next()?,
            AttrIter::Owned(it) => return it.next().map(|(k, v)| (k, Cow::Owned(v))),
        };
        Some((name, Cow::Borrowed(value)))
    }
}
