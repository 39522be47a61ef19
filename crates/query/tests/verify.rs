//! Negative tests for the post-optimizer plan verifier: hand-corrupted
//! plans must be rejected with the right per-invariant diagnostic. The
//! positive direction (every planner-emitted plan is clean) is enforced
//! on every debug-build compile and swept by the `plan_audit` binary;
//! these tests prove each invariant actually fires.

use std::borrow::Cow;
use xmark_query::ast::{ArithOp, CmpOp};

use xmark_query::plan::{
    AggregatePlan, LookupBound, LookupPlan, PlanClause, PlanExpr, PlanMode, StepAccess,
};
use xmark_query::verify::{verify_plan, verify_plan_against, Invariant};
use xmark_query::{compile_with_mode, parse_query, Compiled};
use xmark_store::{
    build_store, AttrIter, ChildIter, ChildrenNamed, DescendantsNamed, EdgeStore, ElementIndex,
    IndexManager, Node, PlannerCaps, SystemId, XmlStore,
};

const DOC: &str = r#"<site><people><person id="person0"><name>Alice</name><age>30</age></person><person id="person1"><name>Bob</name><age>31</age></person></people><regions><item featured="yes"><name>thing</name></item></regions></site>"#;

fn compile(store: &dyn XmlStore, text: &str, mode: PlanMode) -> Compiled {
    compile_with_mode(text, store, mode).expect("test query compiles")
}

/// The first step sequence of the plan body, however it is nested.
fn body_path(compiled: &mut Compiled) -> &mut xmark_query::plan::PathPlan {
    match &mut compiled.plan.body {
        PlanExpr::Path(p) => p,
        PlanExpr::Flwor(f) => match &mut f.clauses[0] {
            PlanClause::For(_, PlanExpr::Path(p)) | PlanClause::Let(_, PlanExpr::Path(p)) => p,
            other => panic!("unexpected clause source: {other:?}"),
        },
        other => panic!("unexpected body: {other:?}"),
    }
}

#[test]
fn clean_plan_verifies_clean() {
    let store = EdgeStore::load(DOC).unwrap();
    let q = "for $p in /site/people/person order by $p/name/text() return $p/name/text()";
    let parsed = parse_query(q).unwrap();
    let compiled = compile(&store, q, PlanMode::Optimized);
    let report = verify_plan_against(&parsed, &compiled.plan, &store);
    assert!(report.is_clean(), "clean plan flagged:\n{report}");
    assert!(report.total_checks() > 0);
}

/// The body Aggregate of a `count(…//tag)` query.
fn body_aggregate(compiled: &mut Compiled) -> &mut AggregatePlan {
    match &mut compiled.plan.body {
        PlanExpr::Aggregate(a) => a,
        other => panic!("count(…//tag) plans as an Aggregate: {other:?}"),
    }
}

#[test]
fn indexed_count_on_capless_backend_is_rejected() {
    // Systems D and E count from their own summary or extents
    // (element_index = false): an `[idx]` Aggregate there violates V1
    // caps-access.
    for system in [SystemId::D, SystemId::E] {
        let store = build_store(system, DOC).unwrap();
        assert!(!store.planner_caps().element_index);
        let mut compiled = compile(store.as_ref(), "count(/site//person)", PlanMode::Optimized);
        let aggregate = body_aggregate(&mut compiled);
        assert!(aggregate.summary && !aggregate.indexed);
        aggregate.indexed = true;

        let report = verify_plan(&compiled.plan, store.as_ref());
        assert!(
            report.violations_of(Invariant::CapsAccess) > 0,
            "{system:?}: {report}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("indexed Aggregate")),
            "{system:?}: diagnostic names the annotation:\n{report}"
        );
    }
}

#[test]
fn dense_indexed_count_verifies_clean() {
    // Nearly every node is an `a`: the planner still counts from the
    // element index, and V2 ordered-index holds on the store it planned
    // against.
    let store = EdgeStore::load("<site><a/><a/><a/><a/><a/><a/></site>").unwrap();
    let mut compiled = compile(&store, "count(/site//a)", PlanMode::Optimized);
    let aggregate = body_aggregate(&mut compiled);
    assert!(aggregate.indexed, "the planner counts a dense tag too");
    assert_eq!(
        aggregate.est_rows, 6,
        "the estimate is the exact posting count"
    );

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.checks(Invariant::OrderedIndex), 1);
}

/// System A whose index manager holds the default, unordered element
/// index — what a transaction snapshot carries after its first commit.
struct UnorderedIndex {
    inner: EdgeStore,
    indexes: IndexManager,
}

impl XmlStore for UnorderedIndex {
    fn system(&self) -> SystemId {
        self.inner.system()
    }
    fn root(&self) -> Node {
        self.inner.root()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }
    fn tag_of(&self, n: Node) -> Option<&str> {
        self.inner.tag_of(n)
    }
    fn parent(&self, n: Node) -> Option<Node> {
        self.inner.parent(n)
    }
    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        self.inner.text(n)
    }
    fn attribute(&self, n: Node, name: &str) -> Option<Cow<'_, str>> {
        self.inner.attribute(n, name)
    }
    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        self.inner.children_iter(n)
    }
    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        self.inner.attributes_iter(n)
    }
    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        self.inner.children_named_iter(n, tag)
    }
    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        self.inner.descendants_named_iter(n, tag)
    }
    fn planner_caps(&self) -> PlannerCaps {
        self.inner.planner_caps()
    }
}

#[test]
fn indexed_count_over_unordered_index_is_rejected() {
    // Planned against an index that can stab, then verified against one
    // that cannot: V2 ordered-index fires, and V8 has no posting count to
    // compare with.
    let store = EdgeStore::load(DOC).unwrap();
    let compiled = compile(&store, "count(/site//person)", PlanMode::Optimized);
    let unordered = UnorderedIndex {
        inner: EdgeStore::load(DOC).unwrap(),
        indexes: IndexManager::new().seeded(ElementIndex::default(), None, Vec::new()),
    };
    assert!(!unordered.indexes().element(&unordered).ordered());

    let report = verify_plan(&compiled.plan, &unordered);
    assert_eq!(report.violations_of(Invariant::OrderedIndex), 1, "{report}");
    assert_eq!(
        report.violations_of(Invariant::CardConsistent),
        0,
        "{report}"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("cannot serve this store")),
        "{report}"
    );
    // The planner itself never counts from an index that cannot stab.
    let planned = compile(&unordered, "count(/site//person)", PlanMode::Optimized);
    assert!(matches!(&planned.plan.body, PlanExpr::Aggregate(a) if !a.indexed));
    assert!(verify_plan(&planned.plan, &unordered).is_clean());
}

#[test]
fn indexed_count_with_wrong_estimate_is_rejected() {
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, "count(/site//person)", PlanMode::Optimized);
    let aggregate = body_aggregate(&mut compiled);
    assert_eq!(aggregate.est_rows, 2);
    aggregate.est_rows = 3;

    let report = verify_plan(&compiled.plan, &store);
    assert_eq!(
        report.violations_of(Invariant::CardConsistent),
        1,
        "{report}"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("!= exact posting count 2")),
        "{report}"
    );
}

#[test]
fn naive_plan_with_access_annotation_is_rejected() {
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, "/site//person", PlanMode::Naive);
    let path = body_path(&mut compiled);
    path.steps.last_mut().unwrap().access = StepAccess::IdProbe("person0".into());

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::NaivePurity) > 0, "{report}");
}

/// The equi-join's Lookup: `$b` probes the index over its source with
/// `$a`'s key.
const JOIN: &str = r#"for $a in /site/people/person, $b in /site/people/person
                      where $a/name/text() = $b/name/text() return $a"#;

/// The Lookup source of the body FLWOR's second clause.
fn body_lookup(compiled: &mut Compiled) -> &mut LookupPlan {
    let PlanExpr::Flwor(f) = &mut compiled.plan.body else {
        panic!("body is a FLWOR");
    };
    match &mut f.clauses[1] {
        PlanClause::For(_, PlanExpr::Lookup(l)) => l,
        other => panic!("the equi-join plans as a Lookup: {other:?}"),
    }
}

#[test]
fn lookup_outer_over_its_own_variable_is_rejected() {
    // A Lookup whose outer side references its own variable would be
    // evaluated before that variable binds — V4 join-keys names the
    // leak (and V9 finds the variable unbound). A key that is not a path
    // over the clause variable is a dead key — V4 again.
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, JOIN, PlanMode::Optimized);
    let lookup = body_lookup(&mut compiled);
    lookup.outer = PlanExpr::Var(lookup.var.clone());
    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::JoinKeys) >= 1, "{report}");
    assert!(report.violations_of(Invariant::VarScope) >= 1, "{report}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("looked-up variable")),
        "diagnostic names the leaked variable:\n{report}"
    );

    let mut compiled = compile(&store, JOIN, PlanMode::Optimized);
    let PlanExpr::Flwor(f) = &compiled.plan.body else {
        panic!("body is a FLWOR");
    };
    let PlanClause::For(_, PlanExpr::Path(root_path)) = &f.clauses[0] else {
        panic!("the first clause scans a path");
    };
    let root_path = root_path.as_ref().clone();
    body_lookup(&mut compiled).key = PlanExpr::Path(Box::new(root_path));
    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::JoinKeys) >= 1, "{report}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("outside the key grammar over $b")),
        "diagnostic names the dead key:\n{report}"
    );
}

/// A range join: `$b` probes the sorted index over its source for keys
/// above `$a`'s; a later clause binds `$c`.
const RANGE: &str = r#"for $a in /site/people/person, $b in /site/people/person
                       let $c := $b/name
                       where $b/age/text() > 2 * $a/age/text() - 31 return $c"#;

#[test]
fn corrupted_range_lookup_is_rejected() {
    let store = EdgeStore::load(DOC).unwrap();
    let clean = compile(&store, RANGE, PlanMode::Optimized);
    assert!(
        clean
            .explain()
            .contains(r#"Lookup $b/age/text()->vals("age") > 2 * $a/age"#),
        "{}",
        clean.explain()
    );
    let report = |edit: &dyn Fn(&mut LookupPlan)| {
        let mut compiled = clean.clone();
        edit(body_lookup(&mut compiled));
        verify_plan(&compiled.plan, &store)
    };
    let violations = |edit: &dyn Fn(&mut LookupPlan)| {
        let report = report(edit);
        assert!(report.violations_of(Invariant::JoinKeys) >= 1, "{report}");
        report
            .violations
            .iter()
            .map(|v| v.message.clone())
            .collect::<Vec<_>>()
    };
    // A key that reads another clause's variable is no key of `$b`'s
    // index: V4 names the grammar.
    let messages = violations(&|l| {
        l.key = PlanExpr::Arith(
            ArithOp::Mul,
            Box::new(PlanExpr::Num(2.0)),
            Box::new(l.outer.clone()),
        )
    });
    assert!(
        messages
            .iter()
            .any(|m| m.contains("outside the key grammar over $b")),
        "{messages:?}"
    );
    // `!=` is no range of a sorted list.
    let messages = violations(&|l| l.op = CmpOp::Ne);
    assert!(
        messages.iter().any(|m| m.contains("operator !=")),
        "{messages:?}"
    );
    // A range selection by a constant is a Lookup too.
    let constant = report(&|l| l.outer = PlanExpr::Num(30.0));
    assert!(constant.is_clean(), "{constant}");
    // The outer side runs before `$c` binds.
    let messages = violations(&|l| l.outer = PlanExpr::Var("c".to_string()));
    assert!(
        messages
            .iter()
            .any(|m| m.contains("reads $c of a later clause")),
        "{messages:?}"
    );
    // A second bound must close the range from the other side.
    let messages = violations(&|l| {
        l.second = Some(LookupBound {
            key: l.key.clone(),
            op: CmpOp::Ge,
            outer: PlanExpr::Num(3.0),
        })
    });
    assert!(
        messages
            .iter()
            .any(|m| m.contains("second lookup bound >= does not bound >")),
        "{messages:?}"
    );
}

#[test]
fn swapped_join_keys_are_rejected() {
    // Swapping the Lookup's key with its outer side roots the key at the
    // wrong variable and puts the clause's own variable on the probing
    // side — V4 join-keys, twice.
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, JOIN, PlanMode::Optimized);
    let lookup = body_lookup(&mut compiled);
    let PlanExpr::Path(outer) = lookup.outer.clone() else {
        panic!("the outer side is $a's key path");
    };
    lookup.outer = std::mem::replace(&mut lookup.key, PlanExpr::Path(outer));

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::JoinKeys) >= 2, "{report}");
}

#[test]
fn corrupted_lookup_signature_is_rejected() {
    // The index signature must re-derive as "{source}|{key}": a drifted
    // one would share a wrong index between Lookups — V7 memo-sig.
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, JOIN, PlanMode::Optimized);
    body_lookup(&mut compiled).sig.push_str("#drift");

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::MemoSig) >= 1, "{report}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("lookup sig")),
        "diagnostic names the signature:\n{report}"
    );
}

#[test]
fn missing_sort_is_rejected() {
    // Dropping the Sort operator under a query that orders — V6
    // sort-presence (the AST↔plan walk).
    let store = EdgeStore::load(DOC).unwrap();
    let q = "for $p in /site/people/person order by $p/name/text() return $p";
    let parsed = parse_query(q).unwrap();
    let mut compiled = compile(&store, q, PlanMode::Optimized);
    let PlanExpr::Flwor(f) = &mut compiled.plan.body else {
        panic!("body is a FLWOR");
    };
    f.order_by = None;

    let report = verify_plan_against(&parsed, &compiled.plan, &store);
    assert!(
        report.violations_of(Invariant::SortPresence) > 0,
        "{report}"
    );
}

#[test]
fn corrupted_memo_signature_is_rejected() {
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, "/site/people/person", PlanMode::Optimized);
    let path = body_path(&mut compiled);
    assert!(path.memo.is_some(), "absolute predicate-free path memoizes");
    path.memo = Some("bogus|signature".into());

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::MemoSig) > 0, "{report}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("canonical")),
        "diagnostic shows the canonical recomputation:\n{report}"
    );
}

#[test]
fn inconsistent_cardinality_is_rejected() {
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, "/site/people/person", PlanMode::Optimized);
    body_path(&mut compiled).est_rows += 1000;

    let report = verify_plan(&compiled.plan, &store);
    assert!(
        report.violations_of(Invariant::CardConsistent) > 0,
        "{report}"
    );
}

#[test]
fn unbound_variable_is_reported() {
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, "/site/people/person", PlanMode::Optimized);
    compiled.plan.body = PlanExpr::Cmp(
        CmpOp::Eq,
        Box::new(compiled.plan.body.clone()),
        Box::new(PlanExpr::Var("nowhere".into())),
    );

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::VarScope) > 0, "{report}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("$nowhere")),
        "diagnostic names the variable:\n{report}"
    );
}
