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
//! The eight invariants (codes are stable identifiers in audit output;
//! the retired V5, V10 and V11 are not reused):
//!
//! | code | name            | what it pins |
//! |------|-----------------|--------------|
//! | V1   | caps-access     | access annotations (`IdProbe`, `Positional`, inlined/value tails, summary and indexed counts) appear only where [`PlannerCaps`] permits, and are well-formed |
//! | V2   | ordered-index   | every indexed `Aggregate`'s element index can stab the store the plan was compiled on (its ids are in pre-order) |
//! | V3   | naive-purity    | [`PlanMode::Naive`] plans carry no access annotations, no Aggregates, no Lookups, no pushdown |
//! | V4   | join-keys       | a `Lookup`'s operator is one of `= < <= > >=`, its key lies in the key grammar over its clause variable (predicate-free paths over it under arithmetic with numeric literals), neither its source nor its outer side uses that variable or a later clause's, and a second bound has the same key signature, the opposite direction and a literal outer side |
//! | V6   | sort-presence   | a Sort operator exists exactly where the source `order by` clauses require one (AST↔plan walk) |
//! | V7   | memo-sig        | memo and `Lookup` index signatures equal their canonical recomputation |
//! | V8   | card-consistent | cardinality annotations agree with each other and with exact posting counts |
//! | V9   | var-scope       | every variable reference resolves to an enclosing binding |
//!
//! V1 and V2 are the store-dependent invariants, and both hold for the
//! store a plan was compiled on. Running the plan on another snapshot
//! of the same versioned store — as the service's plan cache does —
//! does not rely on them: an indexed `Aggregate` falls back to a
//! counting cursor walk when that snapshot's element index cannot stab, and the caps a snapshot reports are its base's at every
//! epoch.
//!
//! [`compile_with_mode`](crate::compile::compile_with_mode) runs the
//! verifier on every plan in debug builds (`debug_assertions`); release
//! callers opt in through [`verify_plan_against`], as the `plan_audit`
//! bench binary does when it sweeps Q1–Q20 × all eight backends × both
//! plan modes and prints the per-invariant matrix.

use xmark_store::{PlannerCaps, XmlStore};

use crate::ast::{self, Expr, Query};
use crate::plan::*;
use crate::planner::last_tag_estimate;

/// One of the eight verified plan invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// V1: access annotations only where [`PlannerCaps`] permits.
    CapsAccess,
    /// V2: indexed Aggregates stab an element index that can serve the
    /// store the plan was compiled on.
    OrderedIndex,
    /// V3: naive plans are annotation-free nested loops.
    NaivePurity,
    /// V4: Lookup operators, keys and outer sides are well-formed: keys
    /// in the key grammar over their own clause variable, outer sides
    /// free of it and of later clauses, a second bound the other side of
    /// the same key by a literal.
    JoinKeys,
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
    /// All invariants, in code order (V1…V9; V5 is retired).
    pub const ALL: [Invariant; 8] = [
        Invariant::CapsAccess,
        Invariant::OrderedIndex,
        Invariant::NaivePurity,
        Invariant::JoinKeys,
        Invariant::SortPresence,
        Invariant::MemoSig,
        Invariant::CardConsistent,
        Invariant::VarScope,
    ];

    /// Stable short code (`"V1"`…`"V9"`).
    pub fn code(self) -> &'static str {
        match self {
            Invariant::CapsAccess => "V1",
            Invariant::OrderedIndex => "V2",
            Invariant::NaivePurity => "V3",
            Invariant::JoinKeys => "V4",
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
            Invariant::OrderedIndex => "ordered-index",
            Invariant::NaivePurity => "naive-purity",
            Invariant::JoinKeys => "join-keys",
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
    /// A breadcrumb into the plan tree (`body/flwor/clause $t/lookup/source/step[2]`).
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
            PlanExpr::Var(v) => {
                let bound = self.scope.iter().any(|s| s == v);
                self.check(Invariant::VarScope, bound, || {
                    format!("variable ${v} is not bound in scope")
                });
            }
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
            PlanExpr::Lookup(l) => self.scoped("lookup", |s| s.lookup(l)),
            _ => e.for_each_child(&mut |c| self.expr(c)),
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
            // V2: the live element index can stab this store.
            let index = self.store.indexes().element(self.store);
            self.check(Invariant::OrderedIndex, index.ordered(), || {
                "indexed Aggregate but the element index cannot serve this store (ids not pre-order)"
                    .to_string()
            });
            if index.ordered() {
                // V8: indexed counts estimate the exact posting cardinality.
                let postings = index.count(&a.tag) as u64;
                self.check(Invariant::CardConsistent, a.est_rows == postings, || {
                    format!(
                        "indexed Aggregate est_rows {} != exact posting count {postings}",
                        a.est_rows
                    )
                });
            }
        }
        self.scoped("input", |s| s.path(&a.input));
    }

    // ---- FLWOR -----------------------------------------------------------

    fn flwor(&mut self, f: &FlworPlan) {
        let depth = self.scope.len();
        self.nested_loop(&f.clauses, &f.filters);
        // The clause walk leaves the bound variables on the scope stack
        // for the FLWOR tail (order_by key + return projection).
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
            if let PlanExpr::Lookup(l) = src {
                // The outer side runs before the later clauses bind.
                let later = clauses[d + 1..].iter().find_map(|c| {
                    let (PlanClause::For(v, _) | PlanClause::Let(v, _)) = c;
                    l.outer.uses_var(v).then_some(v)
                });
                self.check(Invariant::JoinKeys, later.is_none(), || {
                    format!(
                        "lookup outer side reads ${} of a later clause",
                        later.map_or("", String::as_str)
                    )
                });
            }
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

    fn lookup(&mut self, l: &LookupPlan) {
        let var = &l.var;
        self.check(
            Invariant::NaivePurity,
            self.mode == PlanMode::Optimized,
            || "naive plan contains a Lookup".to_string(),
        );
        // Source and outer side evaluate in the clause's scope, before
        // `$var` binds.
        self.scoped("source", |s| s.path(&l.source));
        self.scoped("outer", |s| s.expr(&l.outer));
        self.check(Invariant::JoinKeys, !l.source.uses_var(var), || {
            format!("lookup source depends on its own variable ${var}")
        });
        self.check(Invariant::JoinKeys, !l.outer.uses_var(var), || {
            format!("outer side references the looked-up variable ${var}")
        });
        self.check(Invariant::JoinKeys, l.op != ast::CmpOp::Ne, || {
            format!(
                "lookup operator {} is not one of = < <= > >=",
                l.op.symbol()
            )
        });
        self.check(
            Invariant::JoinKeys,
            key_signature(&l.key, var).is_some(),
            || format!("lookup key is outside the key grammar over ${var}"),
        );
        if let Some(second) = &l.second {
            self.scoped("second", |s| s.expr(&second.outer));
            let sig = key_signature(&second.key, var);
            let same_key = sig.is_some() && sig == key_signature(&l.key, var);
            self.check(Invariant::JoinKeys, same_key, || {
                "second lookup bound is over another key".to_string()
            });
            let directions = l.op.direction().zip(second.op.direction());
            self.check(
                Invariant::JoinKeys,
                directions.is_some_and(|(a, b)| a != b),
                || {
                    format!(
                        "second lookup bound {} does not bound {} from the other side",
                        second.op.symbol(),
                        l.op.symbol()
                    )
                },
            );
            let literal = matches!(second.outer, PlanExpr::Num(_) | PlanExpr::Str(_));
            self.check(Invariant::JoinKeys, literal, || {
                "second lookup bound probes with no literal".to_string()
            });
        }
        // V7: the index signature is "{source}|{key}" over the canonical
        // signatures, and only exists for a loop-invariant source.
        if let Some(expect) = lookup_signature(&l.source, &l.key, var) {
            self.check(
                Invariant::MemoSig,
                l.source.memo.is_some() && l.sig == expect,
                || {
                    format!(
                        "lookup sig {:?} != canonical {expect:?} over a memoized source",
                        l.sig
                    )
                },
            );
        }
        // V8: the estimate restates the source's.
        let eb = l.source.est_rows;
        self.check(Invariant::CardConsistent, l.est_rows == eb, || {
            format!("lookup est_rows {} != source estimate {eb}", l.est_rows)
        });
        let depth = self.scope.len();
        self.scope.push(var.clone());
        self.scoped("key", |s| s.expr(&l.key));
        if let Some(second) = &l.second {
            self.scoped("second key", |s| s.expr(&second.key));
        }
        self.scope.truncate(depth);
    }

    // ---- V6: sort-presence (AST ↔ plan) ----------------------------------

    /// A Sort operator must exist exactly where the source text's
    /// `order by` clauses demand one. Both trees are walked collecting
    /// every Sort's direction; the planner keeps each FLWOR's `order by`
    /// and adds only unsorted FLWORs (a bare path's selection), so the
    /// multisets must match.
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
                 order-by clauses {want:?} (true = ascending)"
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

// ---- AST ↔ plan sort collection ------------------------------------------

fn collect_ast_orders(e: &Expr, out: &mut Vec<bool>) {
    if let Expr::Flwor(f) = e {
        out.extend(f.order_by.as_ref().map(|(_, asc)| *asc));
    }
    e.for_each_child(&mut |c| collect_ast_orders(c, out));
}

fn collect_plan_orders(e: &PlanExpr, out: &mut Vec<bool>) {
    if let PlanExpr::Flwor(f) = e {
        out.extend(f.order_by.as_ref().map(|(_, asc)| *asc));
    }
    e.for_each_child(&mut |c| collect_plan_orders(c, out));
}
