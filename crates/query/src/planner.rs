//! The rule- and cost-based query planner.
//!
//! [`plan_query`] lowers a parsed [`Query`] into a [`PhysicalPlan`] in a
//! single pass that doubles as the metadata-resolution phase of Table 2:
//! every path step is resolved against the store's catalog exactly once
//! ([`XmlStore::estimate_step`]), and the resulting cardinalities feed the
//! plan choices directly. The decisions, formerly pattern-matched inside
//! the evaluator on **every execution**:
//!
//! * **Selections** — the trailing boolean predicates of the last step
//!   of an absolute path become `where` conjuncts over a variable bound
//!   to the path's items, so that equivalent spellings reach one plan:
//!   `for $v in S[p]` plans as `for $v in S where p`, and a bare `S[p]`
//!   as `for $#n in S where p return $#n` (no query can spell `#n`).
//!   `S` becomes loop-invariant, and `p` can become a Lookup. A
//!   predicate moves only if it is a comparison, `and`, `or`, `not`,
//!   `empty` or `exists`, each of its conjuncts reads the context item,
//!   it calls only built-in functions (a user function's body sees the
//!   caller's context item), and it mentions no variable that its new
//!   scope binds. Positional predicates, `[@id = "…"]` (the ID probe)
//!   and the predicates of attribute and `text()` steps stay.
//! * **Lookup** — one rule per `for` clause turns every join and range
//!   selection into index probes. For `for $v in S` with `S` absolute,
//!   predicate-free and not estimated to be a singleton, the first
//!   where-conjunct `k($v) op e` (`op` one of `= < <= > >=`, `k` a key —
//!   predicate-free paths over `$v` under arithmetic with numeric
//!   literals — and `e` free of `$v` and of every later clause's
//!   variable) is dropped and the source becomes `Lookup(S, k, op, e)`:
//!   the sorted key index over `(S, k)` is built once and probed with
//!   `e`'s items. A key on the right mirrors the operator. When the next
//!   conjunct at that depth bounds the same key from the other side by
//!   a literal (Q20's `@income < 100000 and @income >= 30000`), it
//!   becomes the Lookup's second bound. Q8 and Q10 probe with the outer
//!   scope's `$p/@id` / `$i`; Q9 becomes two Lookups, the second
//!   probing with the first one's binding; Q11 and Q12 probe
//!   `5000 * $i/text() < $p/profile/@income`; Q5, Q12's outer loop and
//!   Q20 select with constants.
//! * **Predicate pushdown** — each `where` conjunct is scheduled at the
//!   shallowest clause depth where its variables are bound (the
//!   optimization that makes the paper's Q12 cheaper than Q11).
//! * **Access paths** — `tag[@id = "…"]` becomes an ID-index probe,
//!   `tag[1]`/`tag[last()]` a positional-index probe, `…/tag/text()` an
//!   inlined-column read, and `count(…//tag)` an Aggregate over summary
//!   counts — each only when [`XmlStore::planner_caps`] says the backend
//!   affords it.
//! * **Indexed counts** — on a backend whose native descendant access
//!   walks (`PlannerCaps::element_index`), that Aggregate instead counts
//!   posting ranges of the shared element-name index wherever the index
//!   can serve the store, and records the list's **exact** cardinality
//!   as its row count, even on the statistics-free System F.
//!
//! [`PlanMode::Naive`] suppresses every rewrite and produces the pure
//! nested-loop plan the optimizer oracle executes as the specification.

use xmark_store::{PlannerCaps, PositionSpec, XmlStore};

use crate::ast::*;
use crate::compile::CompileStats;
use crate::plan::*;

/// Plan `query` against `store`, collecting compile statistics — the
/// metadata accesses included: each step's [`XmlStore::estimate_step`]
/// reports its own, so concurrent compiles against one store never see
/// each other's counts.
pub fn plan_query(
    query: &Query,
    store: &dyn XmlStore,
    mode: PlanMode,
) -> (PhysicalPlan, CompileStats) {
    let mut planner = Planner {
        store,
        mode,
        caps: store.planner_caps(),
        stats: CompileStats::default(),
        scope: Vec::new(),
    };
    let functions = query
        .functions
        .iter()
        .map(|f| {
            planner.scope.clone_from(&f.params);
            let body = planner.plan_expr(&f.body);
            planner.scope.clear();
            PlanFunction {
                name: f.name.clone(),
                params: f.params.clone(),
                body,
            }
        })
        .collect();
    let body = planner.plan_expr(&query.body);
    (
        PhysicalPlan {
            functions,
            body,
            mode,
        },
        planner.stats,
    )
}

struct Planner<'s> {
    store: &'s dyn XmlStore,
    mode: PlanMode,
    caps: PlannerCaps,
    stats: CompileStats,
    /// The variables bound around the expression being planned,
    /// innermost last.
    scope: Vec<String>,
}

impl Planner<'_> {
    fn optimized(&self) -> bool {
        self.mode == PlanMode::Optimized
    }

    fn plan_expr(&mut self, expr: &Expr) -> PlanExpr {
        match expr {
            Expr::Str(s) => PlanExpr::Str(s.clone()),
            Expr::Num(n) => PlanExpr::Num(*n),
            Expr::Empty => PlanExpr::Empty,
            Expr::Var(v) => PlanExpr::Var(v.clone()),
            Expr::Sequence(parts) => {
                PlanExpr::Sequence(parts.iter().map(|p| self.plan_expr(p)).collect())
            }
            Expr::Or(parts) => PlanExpr::Or(parts.iter().map(|p| self.plan_expr(p)).collect()),
            Expr::And(parts) => PlanExpr::And(parts.iter().map(|p| self.plan_expr(p)).collect()),
            Expr::Cmp(op, a, b) => PlanExpr::Cmp(
                *op,
                Box::new(self.plan_expr(a)),
                Box::new(self.plan_expr(b)),
            ),
            Expr::Arith(op, a, b) => PlanExpr::Arith(
                *op,
                Box::new(self.plan_expr(a)),
                Box::new(self.plan_expr(b)),
            ),
            Expr::Neg(e) => PlanExpr::Neg(Box::new(self.plan_expr(e))),
            Expr::Before(a, b) => {
                PlanExpr::Before(Box::new(self.plan_expr(a)), Box::new(self.plan_expr(b)))
            }
            Expr::Call(name, args) => self.plan_call(name, args),
            Expr::Element(ctor) => PlanExpr::Element(Box::new(self.plan_ctor(ctor))),
            Expr::Some {
                bindings,
                satisfies,
            } => {
                let depth = self.scope.len();
                let mut planned = Vec::with_capacity(bindings.len());
                for (v, e) in bindings {
                    planned.push((v.clone(), self.plan_expr(e)));
                    self.scope.push(v.clone());
                }
                let satisfies = Box::new(self.plan_expr(satisfies));
                self.scope.truncate(depth);
                PlanExpr::Some {
                    bindings: planned,
                    satisfies,
                }
            }
            Expr::Path { base, steps } => match self.selection_flwor(base, steps) {
                Some(f) => PlanExpr::Flwor(Box::new(self.plan_flwor(&f))),
                None => PlanExpr::Path(Box::new(self.plan_path(base, steps))),
            },
            Expr::Flwor(f) => PlanExpr::Flwor(Box::new(self.plan_flwor(f))),
        }
    }

    /// A bare absolute path `S[p]` as `for $#n in S where p return $#n`
    /// (see the module docs), or `None` when no predicate moves.
    fn selection_flwor(&self, base: &PathBase, steps: &[Step]) -> Option<Flwor> {
        let predicated = steps.last().is_some_and(|s| !s.preds.is_empty());
        if !self.optimized() || !matches!(base, PathBase::Root) || !predicated {
            return None;
        }
        let mut steps = steps.to_vec();
        let conjuncts = take_selection(&mut steps, SELECTION_VAR, &[SELECTION_VAR])?;
        Some(Flwor {
            clauses: vec![Clause::For(
                SELECTION_VAR.to_string(),
                Expr::Path {
                    base: PathBase::Root,
                    steps,
                },
            )],
            where_clause: Some(Expr::And(conjuncts)),
            order_by: None,
            ret: Expr::Var(SELECTION_VAR.to_string()),
        })
    }

    // ---- calls: the Aggregate lowering ----------------------------------

    /// `count(path)` whose final step is a predicate-free descendant tag
    /// test lowers to an Aggregate over `count_descendants_named` — the
    /// paper's Q6/Q7 observation that a structural summary answers counts
    /// without touching nodes.
    fn plan_call(&mut self, name: &str, args: &[Expr]) -> PlanExpr {
        if self.optimized() && name == "count" && args.len() == 1 {
            if let Expr::Path { base, steps } = &args[0] {
                if let Some(aggregate) = self.try_aggregate(base, steps) {
                    return PlanExpr::Aggregate(Box::new(aggregate));
                }
            }
        }
        PlanExpr::Call(
            name.to_string(),
            args.iter().map(|a| self.plan_expr(a)).collect(),
        )
    }

    fn try_aggregate(&mut self, base: &PathBase, steps: &[Step]) -> Option<AggregatePlan> {
        let last = steps.last()?;
        if last.axis != Axis::Descendant || !last.preds.is_empty() {
            return None;
        }
        let NodeTest::Tag(tag) = &last.test else {
            return None;
        };
        let prefix = &steps[..steps.len() - 1];
        if prefix.iter().any(|s| !s.preds.is_empty()) {
            return None;
        }
        let tag = tag.clone();
        // Plan the full path (prefix plus counted step) so the compile
        // statistics cover exactly the same catalog touches as the
        // unlowered form, then split off the counted tag.
        let mut path = self.plan_path(base, steps);
        let counted = path.steps.pop().expect("last step exists");
        path.memo = path.memo.is_some().then(|| path_signature(&path.steps));
        path.inlined_tail = None;
        path.value_tail = None;
        path.est_rows = last_tag_estimate(&path.steps);
        // Walking backends answer the count as a posting-range length of
        // the shared element-name index, whose list length is the exact
        // estimate.
        let postings = self
            .caps
            .element_index
            .then(|| self.exact_postings(&tag))
            .flatten();
        Some(AggregatePlan {
            input: path,
            tag,
            summary: self.caps.summary_counts,
            indexed: postings.is_some(),
            est_rows: postings.map_or(counted.est_rows, |n| n as u64),
        })
    }

    // ---- paths -----------------------------------------------------------

    fn plan_path(&mut self, base: &PathBase, steps: &[Step]) -> PathPlan {
        let base = match base {
            PathBase::Root => PlanBase::Root,
            PathBase::Var(v) => PlanBase::Var(v.clone()),
            PathBase::Context => PlanBase::Context,
            PathBase::Expr(e) => PlanBase::Expr(self.plan_expr(e)),
        };
        let planned: Vec<PlanStep> = steps.iter().map(|s| self.plan_step(s)).collect();
        let pred_free = steps.iter().all(|s| s.preds.is_empty());
        let memo = (matches!(base, PlanBase::Root) && pred_free).then(|| path_signature(&planned));
        let inlined_tail = self.inlined_tail_of(steps);
        let value_tail = if inlined_tail.is_none() {
            self.tail_tag_of(steps)
        } else {
            None
        };
        let est_rows = last_tag_estimate(&planned);
        PathPlan {
            base,
            steps: planned,
            memo,
            inlined_tail,
            value_tail,
            est_rows,
        }
    }

    /// Annotate `…/tag/text()` tails for System C's entity columns.
    fn inlined_tail_of(&self, steps: &[Step]) -> Option<String> {
        if !self.caps.inlined_values {
            return None;
        }
        self.tail_tag_of(steps)
    }

    /// The tag of a final predicate-free `tag/text()` tail (child axes
    /// only) — the shape both the entity columns and the shared
    /// child-value index answer. `None` in naive mode.
    fn tail_tag_of(&self, steps: &[Step]) -> Option<String> {
        if !self.optimized() || steps.len() < 2 {
            return None;
        }
        let tag_step = &steps[steps.len() - 2];
        let text_step = &steps[steps.len() - 1];
        if tag_step.axis != Axis::Child || !tag_step.preds.is_empty() {
            return None;
        }
        if text_step.axis != Axis::Child
            || text_step.test != NodeTest::Text
            || !text_step.preds.is_empty()
        {
            return None;
        }
        match &tag_step.test {
            NodeTest::Tag(tag) => Some(tag.clone()),
            _ => None,
        }
    }

    fn plan_step(&mut self, step: &Step) -> PlanStep {
        // Catalog resolution: one estimate per non-attribute tag step,
        // whose reported accesses are the Table 2 metadata column.
        let est_rows = match (&step.test, step.axis) {
            (NodeTest::Tag(_), Axis::Attribute) => 0,
            (NodeTest::Tag(tag), _) => {
                self.stats.steps_resolved += 1;
                let est = self.store.estimate_step(tag);
                self.stats.estimated_rows += est.rows;
                self.stats.metadata_accesses += est.metadata_accesses;
                est.rows
            }
            _ => 0,
        };
        PlanStep {
            axis: step.axis,
            test: step.test.clone(),
            preds: step.preds.iter().map(|p| self.plan_pred(p)).collect(),
            access: self.step_access(step),
            est_rows,
        }
    }

    /// Exact whole-document posting cardinality of `tag` from the shared
    /// element-name index, or `None` when the index cannot serve this
    /// store (ids not verified pre-order). Builds the index on the first
    /// count compiled against the store — the lazily-paid analogue of System
    /// D's "the summary is the metadata"; the plan cache and the
    /// `build_indexes()` warmups keep it off the request path.
    fn exact_postings(&self, tag: &str) -> Option<usize> {
        let index = self.store.indexes().element(self.store);
        index.ordered().then(|| index.count(tag))
    }

    fn plan_pred(&mut self, pred: &Pred) -> PlanPred {
        match pred {
            Pred::Position(k) => PlanPred::Position(*k),
            Pred::Last => PlanPred::Last,
            Pred::Expr(e) => PlanPred::Expr(self.plan_expr(e)),
        }
    }

    fn step_access(&self, step: &Step) -> StepAccess {
        if !self.optimized() || step.preds.len() != 1 {
            return StepAccess::Generic;
        }
        // `tag[@id = "literal"]` through the ID index (every mass-storage
        // system's Q1 plan).
        if self.caps.id_index && step.axis != Axis::Attribute {
            if let (NodeTest::Tag(_), Some(lit)) = (&step.test, id_literal(&step.preds[0])) {
                return StepAccess::IdProbe(lit.to_string());
            }
        }
        // `tag[1]` / `tag[last()]` through the positional index (Q2/Q3 on
        // System C).
        if self.caps.positional_index
            && step.axis == Axis::Child
            && matches!(step.test, NodeTest::Tag(_))
        {
            match step.preds[0] {
                Pred::Position(k) => return StepAccess::Positional(PositionSpec::First(k)),
                Pred::Last => return StepAccess::Positional(PositionSpec::Last),
                Pred::Expr(_) => {}
            }
        }
        StepAccess::Generic
    }

    // ---- FLWOR: nested loops over Lookups --------------------------------

    fn plan_flwor(&mut self, f: &Flwor) -> FlworPlan {
        let moved = if self.optimized() {
            move_source_selections(f)
        } else {
            None
        };
        let f = moved.as_ref().unwrap_or(f);
        let conjuncts_ast: Vec<&Expr> = match &f.where_clause {
            None => Vec::new(),
            Some(Expr::And(parts)) => parts.iter().collect(),
            Some(other) => vec![other],
        };
        // Plan every piece exactly once — the statistics pass counts each
        // catalog touch once regardless of which rewrites apply.
        let depth = self.scope.len();
        let mut sources = Vec::with_capacity(f.clauses.len());
        for c in &f.clauses {
            let (Clause::For(_, e) | Clause::Let(_, e)) = c;
            sources.push(self.plan_expr(e));
            self.scope.push(c.var().to_string());
        }
        let mut conjuncts: Vec<Option<PlanExpr>> = conjuncts_ast
            .iter()
            .map(|c| Some(self.plan_expr(c)))
            .collect();
        let depths: Vec<usize> = conjuncts_ast.iter().map(|c| schedule_depth(f, c)).collect();
        let order_by = f
            .order_by
            .as_ref()
            .map(|(k, asc)| (self.plan_expr(k), *asc));
        let ret = self.plan_expr(&f.ret);
        let mut clauses = Vec::with_capacity(f.clauses.len());
        for (i, (clause, src)) in f.clauses.iter().zip(sources).enumerate() {
            clauses.push(match clause {
                Clause::Let(v, _) => PlanClause::Let(v.clone(), src),
                Clause::For(v, _) => {
                    let found = if self.optimized() {
                        lookup_conjuncts(f, i, &conjuncts, &depths)
                    } else {
                        None
                    };
                    let src = match (found, src) {
                        // The source must be loop-invariant (absolute and
                        // predicate-free: memoized). Cost gate: a
                        // singleton source makes the index useless.
                        (Some((first, second)), PlanExpr::Path(source))
                            if source.memo.is_some() && source.est_rows != 1 =>
                        {
                            let mut bound = |p: &Probe| {
                                let conjunct = conjuncts[p.conjunct].take();
                                p.bound(conjunct.expect("one conjunct per bound"))
                            };
                            let first = bound(&first);
                            let second = second.as_ref().map(bound);
                            lookup(v, *source, first, second)
                        }
                        (_, src) => src,
                    };
                    PlanClause::For(v.clone(), src)
                }
            });
        }
        self.scope.truncate(depth);
        // Predicate pushdown over what did not become a Lookup
        // (everything at the deepest level in naive mode).
        let mut filters: Vec<Vec<PlanExpr>> = vec![Vec::new(); clauses.len() + 1];
        for (&scheduled, planned) in depths.iter().zip(conjuncts) {
            let Some(planned) = planned else {
                continue;
            };
            let depth = if self.optimized() {
                scheduled
            } else {
                f.clauses.len()
            };
            filters[depth].push(planned);
        }
        FlworPlan {
            clauses,
            filters,
            order_by,
            ret,
        }
    }
}

/// The shallowest clause depth at which every variable a conjunct uses is
/// bound — where pushdown schedules it.
fn schedule_depth(f: &Flwor, conjunct: &Expr) -> usize {
    let mut depth = 0;
    for (i, clause) in f.clauses.iter().enumerate() {
        if expr_uses_var(conjunct, clause.var()) {
            depth = i + 1;
        }
    }
    depth
}

// ---- the selection rewrite -------------------------------------------------

/// The variable a bare path's selection binds: `#` starts no name a
/// query can spell.
const SELECTION_VAR: &str = "#n";

/// The functions a moved predicate may call: the built-ins, which see
/// no context item but their arguments'.
const BUILTINS: [&str; 11] = [
    "count",
    "sum",
    "contains",
    "string",
    "number",
    "zero-or-one",
    "data",
    "distinct-values",
    "exists",
    "empty",
    "not",
];

/// `f` with the selections of its absolute `for` sources moved into its
/// `where` clause — `for $v in S[p] … where w` as
/// `for $v in S … where p and w` — or `None` when no predicate moves.
/// The moved conjuncts go first: at their depth the nested loop
/// evaluates them before `w`, as the source evaluated the predicate.
fn move_source_selections(f: &Flwor) -> Option<Flwor> {
    let mut clauses = f.clauses.clone();
    let mut conjuncts = Vec::new();
    for (i, clause) in clauses.iter_mut().enumerate() {
        if let Clause::For(
            v,
            Expr::Path {
                base: PathBase::Root,
                steps,
            },
        ) = clause
        {
            // The `where` clause sees this clause's and every later
            // clause's binding.
            let rebound: Vec<&str> = f.clauses[i..].iter().map(Clause::var).collect();
            conjuncts.extend(take_selection(steps, v, &rebound).into_iter().flatten());
        }
    }
    if conjuncts.is_empty() {
        return None;
    }
    match &f.where_clause {
        Some(Expr::And(parts)) => conjuncts.extend(parts.iter().cloned()),
        Some(other) => conjuncts.push(other.clone()),
        None => {}
    }
    Some(Flwor {
        clauses,
        where_clause: Some(Expr::And(conjuncts)),
        order_by: f.order_by.clone(),
        ret: f.ret.clone(),
    })
}

/// Take the trailing predicates of the last of `steps` that move into
/// `where` conjuncts over `$var` (see the module docs), rebased onto it,
/// in evaluation order; `None` when none moves. A predicate must not
/// mention any of `rebound`, the variables bound where it lands.
fn take_selection(steps: &mut [Step], var: &str, rebound: &[&str]) -> Option<Vec<Expr>> {
    let last = steps.last_mut()?;
    if last.axis == Axis::Attribute || last.test == NodeTest::Text {
        return None;
    }
    let moved: Vec<Option<Vec<Expr>>> = last
        .preds
        .iter()
        .map(|p| selection(p, var, rebound))
        .collect();
    // Filters commute with filters but not with a positional predicate:
    // only the run after the last one that stays can move.
    let keep = moved.iter().rposition(Option::is_none).map_or(0, |i| i + 1);
    if keep == moved.len() {
        return None;
    }
    last.preds.truncate(keep);
    Some(moved.into_iter().flatten().flatten().collect())
}

/// `pred` as `where` conjuncts over `$var`, or `None` when it stays.
fn selection(pred: &Pred, var: &str, rebound: &[&str]) -> Option<Vec<Expr>> {
    let Pred::Expr(e) = pred else {
        return None;
    };
    let boolean = match e {
        Expr::Cmp(..) | Expr::And(_) | Expr::Or(_) => true,
        Expr::Call(name, args) => {
            args.len() == 1 && matches!(name.as_str(), "not" | "empty" | "exists")
        }
        _ => false,
    };
    let calls_user_function = || {
        any_expr(
            e,
            &mut |x| matches!(x, Expr::Call(name, _) if !BUILTINS.contains(&name.as_str())),
        )
    };
    if !boolean
        || id_literal(pred).is_some()
        || rebound.iter().any(|v| mentions_var(e, v))
        || calls_user_function()
    {
        return None;
    }
    let mut e = e.clone();
    rebase_context(&mut e, var);
    let conjuncts = match e {
        Expr::And(parts) => parts,
        other => vec![other],
    };
    conjuncts
        .iter()
        .all(|c| expr_uses_var(c, var))
        .then_some(conjuncts)
}

/// Rebase onto `$var` every path in `expr` that starts at the context
/// item — but not inside step predicates, which have their own.
fn rebase_context(expr: &mut Expr, var: &str) {
    match expr {
        Expr::Path { base, .. } => match base {
            PathBase::Context => *base = PathBase::Var(var.to_string()),
            PathBase::Expr(e) => rebase_context(e, var),
            PathBase::Root | PathBase::Var(_) => {}
        },
        Expr::Flwor(f) => {
            for c in &mut f.clauses {
                let (Clause::For(_, e) | Clause::Let(_, e)) = c;
                rebase_context(e, var);
            }
            if let Some(w) = &mut f.where_clause {
                rebase_context(w, var);
            }
            if let Some((k, _)) = &mut f.order_by {
                rebase_context(k, var);
            }
            rebase_context(&mut f.ret, var);
        }
        Expr::Or(parts) | Expr::And(parts) | Expr::Sequence(parts) | Expr::Call(_, parts) => {
            parts.iter_mut().for_each(|p| rebase_context(p, var));
        }
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::Before(a, b) => {
            rebase_context(a, var);
            rebase_context(b, var);
        }
        Expr::Neg(e) => rebase_context(e, var),
        Expr::Some {
            bindings,
            satisfies,
        } => {
            bindings
                .iter_mut()
                .for_each(|(_, e)| rebase_context(e, var));
            rebase_context(satisfies, var);
        }
        Expr::Element(ctor) => rebase_ctor(ctor, var),
        Expr::Str(_) | Expr::Num(_) | Expr::Empty | Expr::Var(_) => {}
    }
}

fn rebase_ctor(ctor: &mut ElementCtor, var: &str) {
    for (_, parts) in &mut ctor.attrs {
        for part in parts {
            if let AttrPart::Expr(e) = part {
                rebase_context(e, var);
            }
        }
    }
    for c in &mut ctor.content {
        match c {
            Content::Expr(e) => rebase_context(e, var),
            Content::Element(nested) => rebase_ctor(nested, var),
            Content::Text(_) => {}
        }
    }
}

// ---- the Lookup rule -------------------------------------------------------

/// A where-conjunct the Lookup rule takes as a bound: its index, the
/// side its key is on, the operator stated key first, and the key's
/// [`key_signature`].
struct Probe {
    conjunct: usize,
    key_is_lhs: bool,
    op: CmpOp,
    key: String,
}

impl Probe {
    /// `conjunct` split into the key, the operator and the outer side.
    fn bound(&self, conjunct: PlanExpr) -> LookupBound {
        let PlanExpr::Cmp(_, a, b) = conjunct else {
            unreachable!("the rule matched a comparison conjunct")
        };
        let (key, outer) = if self.key_is_lhs { (*a, *b) } else { (*b, *a) };
        LookupBound {
            key,
            op: self.op,
            outer,
        }
    }
}

/// The Lookup bounds for clause `i`, a `for $v`: the first planned
/// where-conjunct scheduled at depth `i + 1` (`depths`), if it is
/// `k($v) op e` (or mirrored), `op` one of `= < <= > >=`, whose `k` is
/// a key over `$v` ([`key_signature`]) and whose `e` uses neither `$v`
/// nor any later clause's variable; and, as its second bound, the next
/// conjunct at that depth if it compares the same key with a literal
/// in the opposite direction. Only the first conjunct at that depth
/// qualifies as the first bound: the nested loop evaluates the
/// conjuncts there in order, so one behind it may never be evaluated,
/// while a Lookup evaluates its `e` on every open. A second bound
/// cannot raise, and nothing ran between the two, so folding it in
/// hides no error.
fn lookup_conjuncts(
    f: &Flwor,
    i: usize,
    conjuncts: &[Option<PlanExpr>],
    depths: &[usize],
) -> Option<(Probe, Option<Probe>)> {
    let Clause::For(v, _) = &f.clauses[i] else {
        return None;
    };
    let later: Vec<&str> = f.clauses[i + 1..].iter().map(Clause::var).collect();
    // A later clause rebinding `$v` owns the conjuncts' `$v`.
    if later.contains(&v.as_str()) {
        return None;
    }
    let free = |e: &PlanExpr| !e.uses_var(v) && later.iter().all(|l| !e.uses_var(l));
    let literal = |e: &PlanExpr| matches!(e, PlanExpr::Num(_) | PlanExpr::Str(_));
    let mut at_depth =
        (0..conjuncts.len()).filter(|&c| conjuncts[c].is_some() && depths[c] == i + 1);
    let first = probe(conjuncts, at_depth.next()?, v, &free)?;
    let second = at_depth
        .next()
        .and_then(|c| probe(conjuncts, c, v, &literal))
        .filter(|second| {
            let directions = first.op.direction().zip(second.op.direction());
            second.key == first.key && directions.is_some_and(|(a, b)| a != b)
        });
    Some((first, second))
}

/// Conjunct `c` as a bound of a Lookup over `$v`: a comparison other
/// than `!=` of a key over `$v` with an outer side that passes `outer`.
fn probe(
    conjuncts: &[Option<PlanExpr>],
    c: usize,
    v: &str,
    outer: &dyn Fn(&PlanExpr) -> bool,
) -> Option<Probe> {
    let Some(PlanExpr::Cmp(op, a, b)) = &conjuncts[c] else {
        return None;
    };
    let (key_is_lhs, key) = match (key_signature(a, v), key_signature(b, v)) {
        (Some(key), _) if outer(b) => (true, key),
        (_, Some(key)) if outer(a) => (false, key),
        _ => return None,
    };
    let op = if key_is_lhs { *op } else { op.mirrored() };
    (op != CmpOp::Ne).then_some(Probe {
        conjunct: c,
        key_is_lhs,
        op,
        key,
    })
}

/// Rewrite `for $var in source` with its planned bounds into a Lookup
/// source.
fn lookup(
    var: &str,
    source: PathPlan,
    first: LookupBound,
    second: Option<LookupBound>,
) -> PlanExpr {
    let sig = lookup_signature(&source, &first.key, var).expect("the rule matched a key");
    PlanExpr::Lookup(Box::new(LookupPlan {
        var: var.to_string(),
        sig,
        est_rows: source.est_rows,
        source,
        key: first.key,
        op: first.op,
        outer: first.outer,
        second,
    }))
}

/// Estimate of a step sequence: the extent of its last resolved tag step.
pub(crate) fn last_tag_estimate(steps: &[PlanStep]) -> u64 {
    steps
        .iter()
        .rev()
        .find(|s| matches!(s.test, NodeTest::Tag(_)) && s.axis != Axis::Attribute)
        .map(|s| s.est_rows)
        .unwrap_or(0)
}

/// `tag[@id = "literal"]`: extract the literal when the predicate has the
/// ID-probe shape.
fn id_literal(pred: &Pred) -> Option<&str> {
    let Pred::Expr(Expr::Cmp(CmpOp::Eq, lhs, rhs)) = pred else {
        return None;
    };
    let (attr_path, literal) = match (lhs.as_ref(), rhs.as_ref()) {
        (
            Expr::Path {
                base: PathBase::Context,
                steps,
            },
            Expr::Str(s),
        ) => (steps, s),
        (
            Expr::Str(s),
            Expr::Path {
                base: PathBase::Context,
                steps,
            },
        ) => (steps, s),
        _ => return None,
    };
    if attr_path.len() == 1
        && attr_path[0].axis == Axis::Attribute
        && attr_path[0].test == NodeTest::Tag("id".to_string())
    {
        Some(literal)
    } else {
        None
    }
}

// ---- variable-use analysis (over the AST) --------------------------------

/// Does `expr` reference the variable `var` anywhere?
pub(crate) fn expr_uses_var(expr: &Expr, var: &str) -> bool {
    any_expr(expr, &mut |e| match e {
        Expr::Var(v)
        | Expr::Path {
            base: PathBase::Var(v),
            ..
        } => v == var,
        _ => false,
    })
}

/// Does `expr` reference or bind the variable `var` anywhere?
fn mentions_var(expr: &Expr, var: &str) -> bool {
    any_expr(expr, &mut |e| match e {
        Expr::Var(v)
        | Expr::Path {
            base: PathBase::Var(v),
            ..
        } => v == var,
        Expr::Flwor(f) => f.clauses.iter().any(|c| c.var() == var),
        Expr::Some { bindings, .. } => bindings.iter().any(|(v, _)| v == var),
        _ => false,
    })
}

/// Does `test` hold for `expr` or any expression inside it, step
/// predicates and constructor content included?
fn any_expr(expr: &Expr, test: &mut impl FnMut(&Expr) -> bool) -> bool {
    let mut found = test(expr);
    expr.for_each_child(&mut |child| found = found || any_expr(child, test));
    found
}

impl Planner<'_> {
    fn plan_ctor(&mut self, ctor: &ElementCtor) -> PlanElement {
        PlanElement {
            tag: ctor.tag.clone(),
            attrs: ctor
                .attrs
                .iter()
                .map(|(name, parts)| {
                    (
                        name.clone(),
                        parts
                            .iter()
                            .map(|p| match p {
                                AttrPart::Lit(s) => PlanAttrPart::Lit(s.clone()),
                                AttrPart::Expr(e) => PlanAttrPart::Expr(self.plan_expr(e)),
                            })
                            .collect(),
                    )
                })
                .collect(),
            content: ctor
                .content
                .iter()
                .map(|c| match c {
                    Content::Text(t) => PlanContent::Text(t.clone()),
                    Content::Expr(e) => PlanContent::Expr(self.plan_expr(e)),
                    Content::Element(nested) => PlanContent::Element(self.plan_ctor(nested)),
                })
                .collect(),
        }
    }
}
