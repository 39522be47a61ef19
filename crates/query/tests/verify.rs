//! Negative tests for the post-optimizer plan verifier: hand-corrupted
//! plans must be rejected with the right per-invariant diagnostic. The
//! positive direction (every planner-emitted plan is clean) is enforced
//! on every debug-build compile and swept by the `plan_audit` binary;
//! these tests prove each invariant actually fires.

use xmark_query::ast::CmpOp;
use xmark_query::plan::{HoistedEq, PlanExpr, PlanMode, StepAccess, Strategy};
use xmark_query::verify::{verify_plan, verify_plan_against, Invariant};
use xmark_query::{compile_with_mode, parse_query, Compiled};
use xmark_store::{EdgeStore, SummaryStore, XmlStore};

const DOC: &str = r#"<site><people><person id="person0"><name>Alice</name><age>30</age></person><person id="person1"><name>Bob</name><age>31</age></person></people><regions><item featured="yes"><name>thing</name></item></regions></site>"#;

fn compile(store: &dyn XmlStore, text: &str, mode: PlanMode) -> Compiled {
    compile_with_mode(text, store, mode).expect("test query compiles")
}

/// The first step sequence of the plan body, however it is nested.
fn body_path(compiled: &mut Compiled) -> &mut xmark_query::plan::PathPlan {
    match &mut compiled.plan.body {
        PlanExpr::Path(p) => p,
        PlanExpr::Flwor(f) => match &mut f.strategy {
            Strategy::NestedLoop { clauses, .. } => match &mut clauses[0] {
                xmark_query::plan::PlanClause::For(_, PlanExpr::Path(p))
                | xmark_query::plan::PlanClause::Let(_, PlanExpr::Path(p)) => p,
                other => panic!("unexpected clause source: {other:?}"),
            },
            other => panic!("unexpected strategy: {other:?}"),
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

#[test]
fn index_scan_on_capless_backend_is_rejected() {
    // System D's architecture *is* the index (element_index = false):
    // an IndexScan annotation there violates V1 caps-access.
    let store = SummaryStore::load(DOC).unwrap();
    assert!(!store.planner_caps().element_index);
    let mut compiled = compile(&store, "/site//person", PlanMode::Optimized);
    let path = body_path(&mut compiled);
    let step = path.steps.last_mut().unwrap();
    assert!(matches!(step.access, StepAccess::Generic));
    step.access = StepAccess::IndexScan;

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::CapsAccess) > 0, "{report}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("IndexScan")),
        "diagnostic names the annotation:\n{report}"
    );
}

#[test]
fn dense_index_scan_fails_the_density_gate() {
    // Nearly every node is an `a`: postings × 4 exceeds the node count,
    // so the planner must not stab — forcing the annotation violates V2
    // density-gate.
    let store = EdgeStore::load("<site><a/><a/><a/><a/><a/><a/></site>").unwrap();
    let mut compiled = compile(&store, "/site//a", PlanMode::Optimized);
    let path = body_path(&mut compiled);
    let step = path.steps.last_mut().unwrap();
    assert!(
        matches!(step.access, StepAccess::Generic),
        "planner should have refused the stab on a dense tag"
    );
    step.access = StepAccess::IndexScan;

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::DensityGate) > 0, "{report}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("density gate")),
        "diagnostic names the gate:\n{report}"
    );
}

#[test]
fn naive_plan_with_access_annotation_is_rejected() {
    let store = EdgeStore::load(DOC).unwrap();
    let mut compiled = compile(&store, "/site//person", PlanMode::Naive);
    let path = body_path(&mut compiled);
    path.steps.last_mut().unwrap().access = StepAccess::IndexScan;

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::NaivePurity) > 0, "{report}");
}

#[test]
fn dangling_hoisted_filter_is_rejected() {
    // A hoisted probe-side filter whose outer side references a join
    // variable would be evaluated with the variable unbound at producer
    // open — V5 hoist-live must catch both the dead key and the live-var
    // leak.
    let store = EdgeStore::load(DOC).unwrap();
    let q = r#"for $a in /site/people/person, $b in /site/people/person
               where $a/name/text() = $b/name/text() return $a"#;
    let mut compiled = compile(&store, q, PlanMode::Optimized);
    let PlanExpr::Flwor(f) = &mut compiled.plan.body else {
        panic!("body is a FLWOR");
    };
    let Strategy::HashJoin {
        probe_var, hoisted, ..
    } = &mut f.strategy
    else {
        panic!("equi-join plans as a hash join");
    };
    hoisted.push(HoistedEq {
        probe_key: PlanExpr::Str("not a key path".into()),
        outer: PlanExpr::Var(probe_var.clone()),
        sig: None,
    });

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::HoistLive) >= 2, "{report}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("join variable")),
        "diagnostic names the leaked variable:\n{report}"
    );
}

#[test]
fn swapped_join_keys_are_rejected() {
    // Keys rooted at the wrong variable break the canonical probe/build
    // orientation — V4 join-keys.
    let store = EdgeStore::load(DOC).unwrap();
    let q = r#"for $a in /site/people/person, $b in /site/people/person
               where $a/name/text() = $b/name/text() return $a"#;
    let mut compiled = compile(&store, q, PlanMode::Optimized);
    let PlanExpr::Flwor(f) = &mut compiled.plan.body else {
        panic!("body is a FLWOR");
    };
    let Strategy::HashJoin {
        probe_key,
        build_key,
        ..
    } = &mut f.strategy
    else {
        panic!("equi-join plans as a hash join");
    };
    std::mem::swap(probe_key, build_key);

    let report = verify_plan(&compiled.plan, &store);
    assert!(report.violations_of(Invariant::JoinKeys) >= 2, "{report}");
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
