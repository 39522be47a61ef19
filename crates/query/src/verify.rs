//! Post-optimizer physical-plan verifier.
//!
//! [`verify_plan`] walks a finished [`PhysicalPlan`] and re-checks every
//! structural invariant the planner is supposed to establish — the static
//! half of the correctness story, catching an ill-formed plan *before* it
//! executes rather than after the Q1–Q20 oracles notice wrong output.
//! Each check re-derives the planner's decision from first principles
//! (the store's [`PlannerCaps`], the shared element index's exact posting
//! cardinalities, the canonical signature functions) and compares it with
//! what the plan records.
//!
//! The nine invariants (codes are stable identifiers in audit output;
//! the retired V10 and V11 are not reused):
//!
//! | code | name            | what it pins |
//! |------|-----------------|--------------|
//! | V1   | caps-access     | access annotations (`IdProbe`, `Positional`, `IndexScan`, inlined/value tails, summary counts) appear only where [`PlannerCaps`] permits, and are well-formed |
//! | V2   | density-gate    | every `IndexScan` step re-passes the posting-density gate against the live element index |
//! | V3   | naive-purity    | [`PlanMode::Naive`] plans carry no access annotations, no Aggregates, no joins, no pushdown |
//! | V4   | join-keys       | `HashJoin` / `IndexLookup` key expressions are canonical var-rooted predicate-free paths over the right variables |
//! | V5   | hoist-live      | every hoisted probe-side filter references a live join side and its persistence signature re-derives |
//! | V6   | sort-presence   | a Sort operator exists exactly where the source `order by` clauses require one (AST↔plan walk) |
//! | V7   | memo-sig        | memo / build / probe / lookup cache signatures equal their canonical recomputation |
//! | V8   | card-consistent | cardinality annotations agree with each other and with exact posting counts |
//! | V9   | var-scope       | every variable reference resolves to an enclosing binding |
//!
//! [`compile_with_mode`](crate::compile::compile_with_mode) runs the
//! verifier on every plan in debug builds (`debug_assertions`); release
//! callers opt in through `Session::verify_plan` or the `plan_audit`
//! bench binary, which sweeps Q1–Q20 × all eight backends × both plan
//! modes and prints the per-invariant matrix.

use xmark_store::{PlannerCaps, XmlStore};

use crate::ast::{self, Expr, Query};
use crate::plan::*;
use crate::planner::{
    expr_estimate, invariant_join_signature, last_tag_estimate, INDEX_SCAN_DENSITY,
};

/// One of the nine verified plan invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// V1: access annotations only where [`PlannerCaps`] permits.
    CapsAccess,
    /// V2: `IndexScan` steps re-pass the posting-density gate.
    DensityGate,
    /// V3: naive plans are annotation-free nested loops.
    NaivePurity,
    /// V4: join key expressions are canonical var-rooted paths.
    JoinKeys,
    /// V5: hoisted probe filters reference a live join side.
    HoistLive,
    /// V6: Sort present exactly where `order by` requires it.
    SortPresence,
    /// V7: cache signatures equal their canonical recomputation.
    MemoSig,
    /// V8: cardinality annotations are internally consistent.
    CardConsistent,
    /// V9: every variable reference resolves in scope.
    VarScope,
}

impl Invariant {
    /// All invariants, in code order (V1…V9).
    pub const ALL: [Invariant; 9] = [
        Invariant::CapsAccess,
        Invariant::DensityGate,
        Invariant::NaivePurity,
        Invariant::JoinKeys,
        Invariant::HoistLive,
        Invariant::SortPresence,
        Invariant::MemoSig,
        Invariant::CardConsistent,
        Invariant::VarScope,
    ];

    /// Stable short code (`"V1"`…`"V9"`).
    pub fn code(self) -> &'static str {
        match self {
            Invariant::CapsAccess => "V1",
            Invariant::DensityGate => "V2",
            Invariant::NaivePurity => "V3",
            Invariant::JoinKeys => "V4",
            Invariant::HoistLive => "V5",
            Invariant::SortPresence => "V6",
            Invariant::MemoSig => "V7",
            Invariant::CardConsistent => "V8",
            Invariant::VarScope => "V9",
        }
    }

    /// Kebab-case name, as printed by the audit matrix.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::CapsAccess => "caps-access",
            Invariant::DensityGate => "density-gate",
            Invariant::NaivePurity => "naive-purity",
            Invariant::JoinKeys => "join-keys",
            Invariant::HoistLive => "hoist-live",
            Invariant::SortPresence => "sort-presence",
            Invariant::MemoSig => "memo-sig",
            Invariant::CardConsistent => "card-consistent",
            Invariant::VarScope => "var-scope",
        }
    }

    fn index(self) -> usize {
        Invariant::ALL
            .iter()
            .position(|i| *i == self)
            .unwrap_or_default()
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// One invariant violation: which rule, where in the plan, and why.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// A breadcrumb into the plan tree (`body/flwor/probe_src/step[2]`).
    pub location: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} at {}: {}",
            self.invariant.code(),
            self.invariant.name(),
            self.location,
            self.message
        )
    }
}

/// The outcome of verifying one plan: how many checks ran per invariant
/// and every violation found.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    checks: [usize; Invariant::ALL.len()],
    /// All violations, in plan-walk order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// No violations found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// How many individual checks ran for `invariant`.
    pub fn checks(&self, invariant: Invariant) -> usize {
        self.checks[invariant.index()]
    }

    /// Total checks across all invariants.
    pub fn total_checks(&self) -> usize {
        self.checks.iter().sum()
    }

    /// How many violations were recorded for `invariant`.
    pub fn violations_of(&self, invariant: Invariant) -> usize {
        self.violations
            .iter()
            .filter(|v| v.invariant == invariant)
            .count()
    }

    /// Fold another report into this one (the audit accumulates per
    /// backend × query × mode cells into one matrix).
    pub fn merge(&mut self, other: &VerifyReport) {
        for (a, b) in self.checks.iter_mut().zip(other.checks.iter()) {
            *a += b;
        }
        self.violations.extend(other.violations.iter().cloned());
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} checks, {} violations",
            self.total_checks(),
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Verify `plan` against `store`, checking every invariant except the
/// AST-dependent V6 (sort-presence) — use [`verify_plan_against`] when
/// the parsed query is at hand.
pub fn verify_plan(plan: &PhysicalPlan, store: &dyn XmlStore) -> VerifyReport {
    run(plan, store, None)
}

/// Verify `plan` against `store` including the V6 sort-presence walk
/// that pairs the plan with the `query` it was compiled from.
pub fn verify_plan_against(
    query: &Query,
    plan: &PhysicalPlan,
    store: &dyn XmlStore,
) -> VerifyReport {
    run(plan, store, Some(query))
}

fn run(plan: &PhysicalPlan, store: &dyn XmlStore, query: Option<&Query>) -> VerifyReport {
    let mut v = Verifier {
        store,
        caps: store.planner_caps(),
        mode: plan.mode,
        path: Vec::new(),
        scope: Vec::new(),
        report: VerifyReport::default(),
    };
    for f in &plan.functions {
        v.path.push(format!("fn {}", f.name));
        v.scope = f.params.clone();
        v.expr(&f.body);
        v.scope.clear();
        v.path.pop();
    }
    v.path.push("body".to_string());
    v.expr(&plan.body);
    v.path.pop();
    if let Some(query) = query {
        v.sort_presence(query, plan);
    }
    v.report
}

struct Verifier<'s> {
    store: &'s dyn XmlStore,
    caps: PlannerCaps,
    mode: PlanMode,
    path: Vec<String>,
    scope: Vec<String>,
    report: VerifyReport,
}

impl Verifier<'_> {
    fn check(&mut self, inv: Invariant, ok: bool, msg: impl FnOnce() -> String) {
        self.report.checks[inv.index()] += 1;
        if !ok {
            self.report.violations.push(Violation {
                invariant: inv,
                location: self.path.join("/"),
                message: msg(),
            });
        }
    }

    fn scoped(&mut self, label: impl Into<String>, f: impl FnOnce(&mut Self)) {
        self.path.push(label.into());
        f(self);
        self.path.pop();
    }

    // ---- expression walk -------------------------------------------------

    fn expr(&mut self, e: &PlanExpr) {
        match e {
            PlanExpr::Str(_) | PlanExpr::Num(_) | PlanExpr::Empty => {}
            PlanExpr::Var(v) => {
                let bound = self.scope.iter().any(|s| s == v);
                self.check(Invariant::VarScope, bound, || {
                    format!("variable ${v} is not bound in scope")
                });
            }
            PlanExpr::Sequence(parts) | PlanExpr::Or(parts) | PlanExpr::And(parts) => {
                for p in parts {
                    self.expr(p);
                }
            }
            PlanExpr::Cmp(_, a, b) | PlanExpr::Arith(_, a, b) | PlanExpr::Before(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            PlanExpr::Neg(inner) => self.expr(inner),
            PlanExpr::Call(_, args) => {
                for a in args {
                    self.expr(a);
                }
            }
            PlanExpr::Element(ctor) => self.ctor(ctor),
            PlanExpr::Some {
                bindings,
                satisfies,
            } => {
                let depth = self.scope.len();
                for (var, src) in bindings {
                    self.scoped(format!("some ${var}"), |s| s.expr(src));
                    self.scope.push(var.clone());
                }
                self.scoped("satisfies", |s| s.expr(satisfies));
                self.scope.truncate(depth);
            }
            PlanExpr::Path(p) => self.scoped("path", |s| s.path(p)),
            PlanExpr::Aggregate(a) => self.scoped("aggregate", |s| s.aggregate(a)),
            PlanExpr::Flwor(f) => self.scoped("flwor", |s| s.flwor(f)),
        }
    }

    fn ctor(&mut self, ctor: &PlanElement) {
        for (_, parts) in &ctor.attrs {
            for p in parts {
                if let PlanAttrPart::Expr(e) = p {
                    self.expr(e);
                }
            }
        }
        for c in &ctor.content {
            match c {
                PlanContent::Text(_) => {}
                PlanContent::Expr(e) => self.expr(e),
                PlanContent::Element(nested) => self.ctor(nested),
            }
        }
    }

    // ---- PathScan --------------------------------------------------------

    fn path(&mut self, p: &PathPlan) {
        if let PlanBase::Var(v) = &p.base {
            let bound = self.scope.iter().any(|s| s == v);
            self.check(Invariant::VarScope, bound, || {
                format!("path base ${v} is not bound in scope")
            });
        }
        if let PlanBase::Expr(e) = &p.base {
            self.scoped("base", |s| s.expr(e));
        }
        for (i, step) in p.steps.iter().enumerate() {
            self.scoped(format!("step[{i}]"), |s| s.step(step));
        }
        self.tails(p);
        self.memo(p);
        // V8: a path's estimate is its last resolved tag step's extent.
        let expect = last_tag_estimate(&p.steps);
        self.check(Invariant::CardConsistent, p.est_rows == expect, || {
            format!(
                "path est_rows {} != last tag step estimate {expect}",
                p.est_rows
            )
        });
    }

    fn tails(&mut self, p: &PathPlan) {
        if p.inlined_tail.is_some() {
            self.check(Invariant::CapsAccess, self.caps.inlined_values, || {
                "inlined tail on a backend without inlined entity columns".to_string()
            });
            self.check(
                Invariant::NaivePurity,
                self.mode == PlanMode::Optimized,
                || "naive plan carries an inlined tail".to_string(),
            );
        }
        if p.value_tail.is_some() {
            self.check(Invariant::CapsAccess, p.inlined_tail.is_none(), || {
                "value tail and inlined tail annotated together".to_string()
            });
            self.check(
                Invariant::NaivePurity,
                self.mode == PlanMode::Optimized,
                || "naive plan carries a value tail".to_string(),
            );
        }
    }

    fn memo(&mut self, p: &PathPlan) {
        let invariant =
            matches!(p.base, PlanBase::Root) && p.steps.iter().all(|s| s.preds.is_empty());
        match &p.memo {
            Some(sig) => {
                self.check(Invariant::MemoSig, invariant, || {
                    "memo on a path that is not absolute and predicate-free".to_string()
                });
                let expect = path_signature(&p.steps);
                self.check(Invariant::MemoSig, *sig == expect, || {
                    format!("memo signature {sig:?} != canonical {expect:?}")
                });
            }
            None => {
                self.check(Invariant::MemoSig, !invariant, || {
                    "loop-invariant path is missing its memo signature".to_string()
                });
            }
        }
    }

    fn step(&mut self, step: &PlanStep) {
        for (i, pred) in step.preds.iter().enumerate() {
            if let PlanPred::Expr(e) = pred {
                self.scoped(format!("pred[{i}]"), |s| s.expr(e));
            }
        }
        match &step.access {
            StepAccess::Generic => {}
            StepAccess::IdProbe(lit) => self.id_probe(step, lit),
            StepAccess::Positional(spec) => self.positional(step, *spec),
            StepAccess::IndexScan => self.index_scan(step),
        }
        if self.mode == PlanMode::Naive {
            self.check(
                Invariant::NaivePurity,
                matches!(step.access, StepAccess::Generic),
                || format!("naive plan annotates a step with {:?}", step.access),
            );
        }
    }

    fn id_probe(&mut self, step: &PlanStep, lit: &str) {
        self.check(Invariant::CapsAccess, self.caps.id_index, || {
            "IdProbe on a backend without an ID index".to_string()
        });
        let shape_ok = step.axis != ast::Axis::Attribute
            && matches!(step.test, ast::NodeTest::Tag(_))
            && step.preds.len() == 1
            && id_pred_literal(&step.preds[0]).is_some_and(|l| l == lit);
        self.check(Invariant::CapsAccess, shape_ok, || {
            format!("IdProbe({lit:?}) step is not a tag[@id = {lit:?}] shape")
        });
    }

    fn positional(&mut self, step: &PlanStep, spec: xmark_store::PositionSpec) {
        self.check(Invariant::CapsAccess, self.caps.positional_index, || {
            "Positional access on a backend without a positional index".to_string()
        });
        let pred_matches = match (step.preds.as_slice(), spec) {
            ([PlanPred::Position(k)], xmark_store::PositionSpec::First(n)) => *k == n,
            ([PlanPred::Last], xmark_store::PositionSpec::Last) => true,
            _ => false,
        };
        let shape_ok = step.axis == ast::Axis::Child
            && matches!(step.test, ast::NodeTest::Tag(_))
            && pred_matches;
        self.check(Invariant::CapsAccess, shape_ok, || {
            format!("Positional({spec:?}) step does not carry the matching position predicate")
        });
    }

    fn index_scan(&mut self, step: &PlanStep) {
        self.check(Invariant::CapsAccess, self.caps.element_index, || {
            "IndexScan on a backend whose descendant access is already extent-based".to_string()
        });
        let shape_ok = step.axis == ast::Axis::Descendant
            && matches!(step.test, ast::NodeTest::Tag(_))
            && step.preds.is_empty();
        self.check(Invariant::CapsAccess, shape_ok, || {
            "IndexScan on a step that is not a predicate-free descendant tag test".to_string()
        });
        let ast::NodeTest::Tag(tag) = &step.test else {
            return;
        };
        // V2: re-run the density gate against the live element index.
        let index = self.store.indexes().element(self.store);
        self.check(Invariant::DensityGate, index.ordered(), || {
            "IndexScan but the element index cannot serve this store (ids not pre-order)"
                .to_string()
        });
        if index.ordered() {
            let postings = index.count(tag);
            let nodes = self.store.node_count();
            self.check(
                Invariant::DensityGate,
                postings * INDEX_SCAN_DENSITY <= nodes,
                || {
                    format!(
                        "IndexScan over {tag:?} fails the density gate \
                         ({postings} postings × {INDEX_SCAN_DENSITY} > {nodes} nodes)"
                    )
                },
            );
            // V8: IndexScan estimates are the exact posting cardinality.
            self.check(
                Invariant::CardConsistent,
                step.est_rows == postings as u64,
                || {
                    format!(
                        "IndexScan est_rows {} != exact posting count {postings}",
                        step.est_rows
                    )
                },
            );
        }
    }

    // ---- Aggregate -------------------------------------------------------

    fn aggregate(&mut self, a: &AggregatePlan) {
        self.check(
            Invariant::NaivePurity,
            self.mode == PlanMode::Optimized,
            || "naive plan contains an Aggregate operator".to_string(),
        );
        let summary_caps = self.caps.summary_counts;
        self.check(Invariant::CapsAccess, a.summary == summary_caps, || {
            format!(
                "Aggregate summary flag {} disagrees with backend summary_counts {summary_caps}",
                a.summary
            )
        });
        if a.indexed {
            self.check(Invariant::CapsAccess, self.caps.element_index, || {
                "indexed Aggregate on a backend without the shared element index".to_string()
            });
            self.check(Invariant::CapsAccess, !a.summary, || {
                "Aggregate claims both summary arithmetic and an index-backed count".to_string()
            });
        }
        self.scoped("input", |s| s.path(&a.input));
    }

    // ---- FLWOR -----------------------------------------------------------

    fn flwor(&mut self, f: &FlworPlan) {
        let depth = self.scope.len();
        match &f.strategy {
            Strategy::NestedLoop { clauses, filters } => self.nested_loop(clauses, filters),
            Strategy::HashJoin { .. } => self.hash_join(&f.strategy),
            Strategy::IndexLookup { .. } => self.index_lookup(&f.strategy),
        }
        // Strategy walks leave the bound variables on the scope stack for
        // the FLWOR tail (order_by key + return projection).
        if let Some((key, _asc)) = &f.order_by {
            self.scoped("order_by", |s| s.expr(key));
        }
        self.scoped("return", |s| s.expr(&f.ret));
        self.scope.truncate(depth);
    }

    fn nested_loop(&mut self, clauses: &[PlanClause], filters: &[Vec<PlanExpr>]) {
        self.check(
            Invariant::CardConsistent,
            filters.len() == clauses.len() + 1,
            || {
                format!(
                    "{} filter buckets for {} clauses (want clauses + 1)",
                    filters.len(),
                    clauses.len()
                )
            },
        );
        // Depth-0 filters run before any clause binds.
        for (i, conjunct) in filters.first().into_iter().flatten().enumerate() {
            self.scoped(format!("filter[0][{i}]"), |s| s.expr(conjunct));
        }
        for (d, clause) in clauses.iter().enumerate() {
            let (var, src) = match clause {
                PlanClause::For(v, e) | PlanClause::Let(v, e) => (v, e),
            };
            self.scoped(format!("clause ${var}"), |s| s.expr(src));
            self.scope.push(var.clone());
            for (i, conjunct) in filters.get(d + 1).into_iter().flatten().enumerate() {
                self.scoped(format!("filter[{}][{i}]", d + 1), |s| s.expr(conjunct));
            }
        }
        if self.mode == PlanMode::Naive {
            // V3: no pushdown — every conjunct sits at the deepest level.
            let shallow: usize = filters.iter().take(clauses.len()).map(Vec::len).sum();
            self.check(Invariant::NaivePurity, shallow == 0, || {
                format!("naive plan pushed {shallow} conjunct(s) above the deepest clause")
            });
        }
    }

    fn hash_join(&mut self, strategy: &Strategy) {
        let Strategy::HashJoin {
            probe_var,
            probe_src,
            probe_key,
            probe_sig,
            build_var,
            build_src,
            build_key,
            build_sig,
            hoisted,
            residual,
            est_probe,
            est_build,
        } = strategy
        else {
            return;
        };
        self.check(
            Invariant::NaivePurity,
            self.mode == PlanMode::Optimized,
            || "naive plan contains a HashJoin".to_string(),
        );
        self.check(Invariant::JoinKeys, probe_var != build_var, || {
            format!("HashJoin binds ${probe_var} on both sides")
        });
        // Sources evaluate in the enclosing scope; the build side must not
        // depend on the probe variable (it is materialized once).
        self.scoped("probe_src", |s| s.expr(probe_src));
        self.scoped("build_src", |s| s.expr(build_src));
        self.check(
            Invariant::JoinKeys,
            !plan_uses_var(build_src, probe_var),
            || format!("build source depends on probe variable ${probe_var}"),
        );
        self.check(
            Invariant::JoinKeys,
            is_plan_var_key(probe_key, probe_var),
            || format!("probe key is not a predicate-free path over ${probe_var}"),
        );
        self.check(
            Invariant::JoinKeys,
            is_plan_var_key(build_key, build_var),
            || format!("build key is not a predicate-free path over ${build_var}"),
        );
        // V7: cache signatures re-derive from the canonical function.
        let expect_build = invariant_join_signature(build_src, build_key);
        self.check(Invariant::MemoSig, *build_sig == expect_build, || {
            format!("build_sig {build_sig:?} != canonical {expect_build:?}")
        });
        let expect_probe = invariant_join_signature(probe_src, probe_key).map(|s| s + "#probe");
        self.check(Invariant::MemoSig, *probe_sig == expect_probe, || {
            format!("probe_sig {probe_sig:?} != canonical {expect_probe:?}")
        });
        // V8: estimates restate the source estimates.
        let (ep, eb) = (expr_estimate(probe_src), expr_estimate(build_src));
        self.check(Invariant::CardConsistent, *est_probe == ep, || {
            format!("est_probe {est_probe} != probe source estimate {ep}")
        });
        self.check(Invariant::CardConsistent, *est_build == eb, || {
            format!("est_build {est_build} != build source estimate {eb}")
        });
        for (i, h) in hoisted.iter().enumerate() {
            self.scoped(format!("hoisted[{i}]"), |s| {
                s.hoisted_eq(h, probe_var, build_var, probe_src);
            });
        }
        // Keys and residuals see their join variables.
        self.scope.push(probe_var.clone());
        self.scoped("probe_key", |s| s.expr(probe_key));
        self.scope.push(build_var.clone());
        self.scoped("build_key", |s| s.expr(build_key));
        for (i, r) in residual.iter().enumerate() {
            self.scoped(format!("residual[{i}]"), |s| s.expr(r));
        }
        // Leave both variables bound for the FLWOR tail.
    }

    fn hoisted_eq(
        &mut self,
        h: &HoistedEq,
        probe_var: &str,
        build_var: &str,
        probe_src: &PlanExpr,
    ) {
        // V5: the hoisted filter references the live probe side …
        self.check(
            Invariant::HoistLive,
            is_plan_var_key(&h.probe_key, probe_var),
            || format!("hoisted key is not a predicate-free path over ${probe_var}"),
        );
        // … and its outer side is free of both join variables, so it is
        // evaluated once per producer open, never per pair.
        self.check(
            Invariant::HoistLive,
            !plan_uses_var(&h.outer, probe_var) && !plan_uses_var(&h.outer, build_var),
            || {
                format!(
                    "hoisted outer side references a join variable \
                     (${probe_var} or ${build_var})"
                )
            },
        );
        let expect = invariant_join_signature(probe_src, &h.probe_key).map(|s| s + "#probe");
        self.check(Invariant::HoistLive, h.sig == expect, || {
            format!("hoisted sig {:?} != canonical {expect:?}", h.sig)
        });
        self.scoped("outer", |s| s.expr(&h.outer));
        let depth = self.scope.len();
        self.scope.push(probe_var.to_string());
        self.scoped("key", |s| s.expr(&h.probe_key));
        self.scope.truncate(depth);
    }

    fn index_lookup(&mut self, strategy: &Strategy) {
        let Strategy::IndexLookup {
            var,
            source,
            inner_key,
            outer_key,
            sig,
            residual,
            est_build,
        } = strategy
        else {
            return;
        };
        self.check(
            Invariant::NaivePurity,
            self.mode == PlanMode::Optimized,
            || "naive plan contains an IndexLookup join".to_string(),
        );
        self.scoped("source", |s| s.expr(source));
        self.scoped("outer_key", |s| s.expr(outer_key));
        self.check(Invariant::JoinKeys, !plan_uses_var(source, var), || {
            format!("lookup source depends on its own variable ${var}")
        });
        self.check(Invariant::JoinKeys, !plan_uses_var(outer_key, var), || {
            format!("outer key references the looked-up variable ${var}")
        });
        self.check(Invariant::JoinKeys, is_plan_var_key(inner_key, var), || {
            format!("inner key is not a predicate-free path over ${var}")
        });
        // V7: the lookup signature is "{source}|{key}" over the canonical
        // path signatures, and only exists for a loop-invariant source.
        let expect = match (source, inner_key) {
            (PlanExpr::Path(src), PlanExpr::Path(key)) if src.memo.is_some() => Some(format!(
                "{}|{}",
                path_signature(&src.steps),
                path_signature(&key.steps)
            )),
            _ => None,
        };
        self.check(Invariant::MemoSig, Some(sig.clone()) == expect, || {
            format!("lookup sig {sig:?} != canonical {expect:?}")
        });
        let eb = expr_estimate(source);
        self.check(Invariant::CardConsistent, *est_build == eb, || {
            format!("est_build {est_build} != lookup source estimate {eb}")
        });
        self.scope.push(var.clone());
        self.scoped("inner_key", |s| s.expr(inner_key));
        for (i, r) in residual.iter().enumerate() {
            self.scoped(format!("residual[{i}]"), |s| s.expr(r));
        }
        // Leave the variable bound for the FLWOR tail.
    }

    // ---- V6: sort-presence (AST ↔ plan) ----------------------------------

    /// A Sort operator must exist exactly where the source text's
    /// `order by` clauses demand one. Both trees are walked collecting
    /// every FLWOR's sort annotation (direction or absence); the planner
    /// preserves FLWOR structure one-to-one, so the multisets must match.
    fn sort_presence(&mut self, query: &Query, plan: &PhysicalPlan) {
        let mut want = Vec::new();
        collect_ast_orders(&query.body, &mut want);
        for f in &query.functions {
            collect_ast_orders(&f.body, &mut want);
        }
        let mut got = Vec::new();
        collect_plan_orders(&plan.body, &mut got);
        for f in &plan.functions {
            collect_plan_orders(&f.body, &mut got);
        }
        want.sort_unstable();
        got.sort_unstable();
        self.path.push("sort".to_string());
        self.check(Invariant::SortPresence, want == got, || {
            format!(
                "plan Sort operators {got:?} do not match the query's \
                 order-by clauses {want:?} (None = unsorted FLWOR, \
                 Some(true) = ascending)"
            )
        });
        self.path.pop();
    }
}

/// `tag[@id = "literal"]` over the planned predicate: extract the literal.
fn id_pred_literal(pred: &PlanPred) -> Option<&str> {
    let PlanPred::Expr(PlanExpr::Cmp(ast::CmpOp::Eq, lhs, rhs)) = pred else {
        return None;
    };
    let (path, lit) = match (lhs.as_ref(), rhs.as_ref()) {
        (PlanExpr::Path(p), PlanExpr::Str(s)) | (PlanExpr::Str(s), PlanExpr::Path(p)) => (p, s),
        _ => return None,
    };
    let id_shape = matches!(path.base, PlanBase::Context)
        && path.steps.len() == 1
        && path.steps[0].axis == ast::Axis::Attribute
        && path.steps[0].test == ast::NodeTest::Tag("id".to_string());
    id_shape.then_some(lit.as_str())
}

/// Is `e` a predicate-free path rooted at variable `v`? The canonical
/// join-key shape (the planned mirror of the planner's `is_var_key`).
fn is_plan_var_key(e: &PlanExpr, v: &str) -> bool {
    match e {
        PlanExpr::Path(p) => {
            matches!(&p.base, PlanBase::Var(var) if var == v)
                && p.steps.iter().all(|s| s.preds.is_empty())
        }
        _ => false,
    }
}

/// Does a planned expression reference `var` anywhere? The plan-level
/// mirror of the planner's AST `expr_uses_var`.
pub(crate) fn plan_uses_var(e: &PlanExpr, var: &str) -> bool {
    match e {
        PlanExpr::Var(v) => v == var,
        PlanExpr::Str(_) | PlanExpr::Num(_) | PlanExpr::Empty => false,
        PlanExpr::Sequence(parts) | PlanExpr::Or(parts) | PlanExpr::And(parts) => {
            parts.iter().any(|p| plan_uses_var(p, var))
        }
        PlanExpr::Cmp(_, a, b) | PlanExpr::Arith(_, a, b) | PlanExpr::Before(a, b) => {
            plan_uses_var(a, var) || plan_uses_var(b, var)
        }
        PlanExpr::Neg(inner) => plan_uses_var(inner, var),
        PlanExpr::Call(_, args) => args.iter().any(|a| plan_uses_var(a, var)),
        PlanExpr::Element(ctor) => plan_ctor_uses_var(ctor, var),
        PlanExpr::Some {
            bindings,
            satisfies,
        } => bindings.iter().any(|(_, e)| plan_uses_var(e, var)) || plan_uses_var(satisfies, var),
        PlanExpr::Path(p) => plan_path_uses_var(p, var),
        PlanExpr::Aggregate(a) => plan_path_uses_var(&a.input, var),
        PlanExpr::Flwor(f) => {
            let strategy = match &f.strategy {
                Strategy::NestedLoop { clauses, filters } => {
                    clauses.iter().any(|c| match c {
                        PlanClause::For(_, e) | PlanClause::Let(_, e) => plan_uses_var(e, var),
                    }) || filters.iter().flatten().any(|c| plan_uses_var(c, var))
                }
                Strategy::HashJoin {
                    probe_src,
                    probe_key,
                    build_src,
                    build_key,
                    hoisted,
                    residual,
                    ..
                } => {
                    plan_uses_var(probe_src, var)
                        || plan_uses_var(probe_key, var)
                        || plan_uses_var(build_src, var)
                        || plan_uses_var(build_key, var)
                        || hoisted.iter().any(|h| {
                            plan_uses_var(&h.probe_key, var) || plan_uses_var(&h.outer, var)
                        })
                        || residual.iter().any(|r| plan_uses_var(r, var))
                }
                Strategy::IndexLookup {
                    source,
                    inner_key,
                    outer_key,
                    residual,
                    ..
                } => {
                    plan_uses_var(source, var)
                        || plan_uses_var(inner_key, var)
                        || plan_uses_var(outer_key, var)
                        || residual.iter().any(|r| plan_uses_var(r, var))
                }
            };
            strategy
                || f.order_by
                    .as_ref()
                    .is_some_and(|(k, _)| plan_uses_var(k, var))
                || plan_uses_var(&f.ret, var)
        }
    }
}

fn plan_path_uses_var(p: &PathPlan, var: &str) -> bool {
    let base = match &p.base {
        PlanBase::Var(v) => v == var,
        PlanBase::Expr(e) => plan_uses_var(e, var),
        PlanBase::Root | PlanBase::Context => false,
    };
    base || p.steps.iter().any(|s| {
        s.preds.iter().any(|pred| match pred {
            PlanPred::Expr(e) => plan_uses_var(e, var),
            _ => false,
        })
    })
}

fn plan_ctor_uses_var(ctor: &PlanElement, var: &str) -> bool {
    ctor.attrs.iter().any(|(_, parts)| {
        parts.iter().any(|p| match p {
            PlanAttrPart::Expr(e) => plan_uses_var(e, var),
            PlanAttrPart::Lit(_) => false,
        })
    }) || ctor.content.iter().any(|c| match c {
        PlanContent::Expr(e) => plan_uses_var(e, var),
        PlanContent::Element(nested) => plan_ctor_uses_var(nested, var),
        PlanContent::Text(_) => false,
    })
}

// ---- AST ↔ plan sort collection ------------------------------------------

fn collect_ast_orders(e: &Expr, out: &mut Vec<Option<bool>>) {
    match e {
        Expr::Flwor(f) => {
            out.push(f.order_by.as_ref().map(|(_, asc)| *asc));
            for c in &f.clauses {
                match c {
                    ast::Clause::For(_, src) | ast::Clause::Let(_, src) => {
                        collect_ast_orders(src, out)
                    }
                }
            }
            if let Some(w) = &f.where_clause {
                collect_ast_orders(w, out);
            }
            if let Some((k, _)) = &f.order_by {
                collect_ast_orders(k, out);
            }
            collect_ast_orders(&f.ret, out);
        }
        Expr::Path { base, steps } => {
            if let ast::PathBase::Expr(inner) = base {
                collect_ast_orders(inner, out);
            }
            for s in steps {
                for p in &s.preds {
                    if let ast::Pred::Expr(inner) = p {
                        collect_ast_orders(inner, out);
                    }
                }
            }
        }
        Expr::Sequence(parts) | Expr::Or(parts) | Expr::And(parts) => {
            for p in parts {
                collect_ast_orders(p, out);
            }
        }
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::Before(a, b) => {
            collect_ast_orders(a, out);
            collect_ast_orders(b, out);
        }
        Expr::Neg(inner) => collect_ast_orders(inner, out),
        Expr::Call(_, args) => {
            for a in args {
                collect_ast_orders(a, out);
            }
        }
        Expr::Some {
            bindings,
            satisfies,
        } => {
            for (_, src) in bindings {
                collect_ast_orders(src, out);
            }
            collect_ast_orders(satisfies, out);
        }
        Expr::Element(ctor) => collect_ctor_orders(ctor, out),
        Expr::Str(_) | Expr::Num(_) | Expr::Empty | Expr::Var(_) => {}
    }
}

fn collect_ctor_orders(ctor: &ast::ElementCtor, out: &mut Vec<Option<bool>>) {
    for (_, parts) in &ctor.attrs {
        for p in parts {
            if let ast::AttrPart::Expr(e) = p {
                collect_ast_orders(e, out);
            }
        }
    }
    for c in &ctor.content {
        match c {
            ast::Content::Expr(e) => collect_ast_orders(e, out),
            ast::Content::Element(nested) => collect_ctor_orders(nested, out),
            ast::Content::Text(_) => {}
        }
    }
}

fn collect_plan_orders(e: &PlanExpr, out: &mut Vec<Option<bool>>) {
    match e {
        PlanExpr::Flwor(f) => {
            out.push(f.order_by.as_ref().map(|(_, asc)| *asc));
            match &f.strategy {
                Strategy::NestedLoop { clauses, filters } => {
                    for c in clauses {
                        match c {
                            PlanClause::For(_, src) | PlanClause::Let(_, src) => {
                                collect_plan_orders(src, out)
                            }
                        }
                    }
                    for c in filters.iter().flatten() {
                        collect_plan_orders(c, out);
                    }
                }
                Strategy::HashJoin {
                    probe_src,
                    probe_key,
                    build_src,
                    build_key,
                    hoisted,
                    residual,
                    ..
                } => {
                    collect_plan_orders(probe_src, out);
                    collect_plan_orders(build_src, out);
                    collect_plan_orders(probe_key, out);
                    collect_plan_orders(build_key, out);
                    for h in hoisted {
                        collect_plan_orders(&h.probe_key, out);
                        collect_plan_orders(&h.outer, out);
                    }
                    for r in residual {
                        collect_plan_orders(r, out);
                    }
                }
                Strategy::IndexLookup {
                    source,
                    inner_key,
                    outer_key,
                    residual,
                    ..
                } => {
                    collect_plan_orders(source, out);
                    collect_plan_orders(inner_key, out);
                    collect_plan_orders(outer_key, out);
                    for r in residual {
                        collect_plan_orders(r, out);
                    }
                }
            }
            if let Some((k, _)) = &f.order_by {
                collect_plan_orders(k, out);
            }
            collect_plan_orders(&f.ret, out);
        }
        PlanExpr::Path(p) => collect_plan_path_orders(p, out),
        PlanExpr::Aggregate(a) => collect_plan_path_orders(&a.input, out),
        PlanExpr::Sequence(parts) | PlanExpr::Or(parts) | PlanExpr::And(parts) => {
            for p in parts {
                collect_plan_orders(p, out);
            }
        }
        PlanExpr::Cmp(_, a, b) | PlanExpr::Arith(_, a, b) | PlanExpr::Before(a, b) => {
            collect_plan_orders(a, out);
            collect_plan_orders(b, out);
        }
        PlanExpr::Neg(inner) => collect_plan_orders(inner, out),
        PlanExpr::Call(_, args) => {
            for a in args {
                collect_plan_orders(a, out);
            }
        }
        PlanExpr::Some {
            bindings,
            satisfies,
        } => {
            for (_, src) in bindings {
                collect_plan_orders(src, out);
            }
            collect_plan_orders(satisfies, out);
        }
        PlanExpr::Element(ctor) => collect_plan_ctor_orders(ctor, out),
        PlanExpr::Str(_) | PlanExpr::Num(_) | PlanExpr::Empty | PlanExpr::Var(_) => {}
    }
}

fn collect_plan_path_orders(p: &PathPlan, out: &mut Vec<Option<bool>>) {
    if let PlanBase::Expr(inner) = &p.base {
        collect_plan_orders(inner, out);
    }
    for s in &p.steps {
        for pred in &s.preds {
            if let PlanPred::Expr(inner) = pred {
                collect_plan_orders(inner, out);
            }
        }
    }
}

fn collect_plan_ctor_orders(ctor: &PlanElement, out: &mut Vec<Option<bool>>) {
    for (_, parts) in &ctor.attrs {
        for p in parts {
            if let PlanAttrPart::Expr(e) = p {
                collect_plan_orders(e, out);
            }
        }
    }
    for c in &ctor.content {
        match c {
            PlanContent::Expr(e) => collect_plan_orders(e, out),
            PlanContent::Element(nested) => collect_plan_ctor_orders(nested, out),
            PlanContent::Text(_) => {}
        }
    }
}
