//! The physical query algebra.
//!
//! A [`PhysicalPlan`] is the output of the compile phase: the parsed query
//! lowered into an operator tree whose every access-path and join decision
//! has already been made. The executor ([`crate::stream`](mod@crate::stream) cursors) walks
//! this tree without re-discovering anything — the split the paper's
//! Table 2 measures between *compilation* (parse, metadata, optimize) and
//! *execution*.
//!
//! The operator vocabulary:
//!
//! * [`PathPlan`] — a **PathScan**: a base plus navigation steps, each
//!   annotated with its chosen [`StepAccess`] (generic streaming cursor,
//!   **IdProbe** via the ID index, positional index probe) and an
//!   inlined-tail shortcut (System C's entity columns).
//! * [`AggregatePlan`] — an **Aggregate**: `count(path//tag)` answered by
//!   [`xmark_store::XmlStore::count_descendants_named`] (System D's
//!   structural summary) or by the shared element index's posting
//!   ranges, without materializing the counted extent.
//! * [`FlworPlan`] — clause-by-clause iteration (**NestedLoop**) with a
//!   predicate-pushdown **Filter** schedule, followed by an optional
//!   **Sort** and a **Project** (the `return` expression).
//! * [`LookupPlan`] — a **Lookup**: a `for` source whose comparison
//!   conjunct (`=`, `<`, `<=`, `>` or `>=`) became a range probe of a
//!   sorted key index, optionally bounded from the other side by a
//!   second conjunct. Every join — Q8–Q10's reference chasing and
//!   Q11/Q12's value joins — is a nested loop over Lookups, and so is
//!   every selection by a loop-invariant value (Q5, Q12, Q20).
//!
//! Scalar expressions (comparisons, arithmetic, constructors, calls)
//! mirror the AST one-to-one; only the decision-bearing nodes differ.
//! [`crate::explain`] renders a plan one line per operator.

use xmark_store::PositionSpec;

use crate::ast::{ArithOp, Axis, CmpOp, NodeTest};

/// How the plan was produced (see [`crate::planner::plan_query`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Full rule- and cost-based planning.
    Optimized,
    /// Pure nested loops, generic access paths, no pushdown — the
    /// executable specification the optimizer oracle compares against.
    Naive,
}

impl std::fmt::Display for PlanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanMode::Optimized => write!(f, "optimized"),
            PlanMode::Naive => write!(f, "naive"),
        }
    }
}

/// A fully planned query: one operator tree per user-defined function plus
/// the body. Produced by [`crate::planner::plan_query`]; carried by
/// [`crate::compile::Compiled`]; executed by [`crate::stream::ResultStream`].
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Planned `declare function` bodies, in declaration order.
    pub functions: Vec<PlanFunction>,
    /// The planned query body.
    pub body: PlanExpr,
    /// The mode the planner ran in.
    pub mode: PlanMode,
}

/// A planned user-defined function.
#[derive(Debug, Clone)]
pub struct PlanFunction {
    /// Function name, including the `local:` prefix.
    pub name: String,
    /// Parameter names (without `$`).
    pub params: Vec<String>,
    /// The planned body.
    pub body: PlanExpr,
}

/// A planned expression. Scalar variants mirror [`crate::ast::Expr`];
/// `Path`, `Aggregate`, `Flwor` and `Lookup` are the operator-bearing
/// nodes.
#[derive(Debug, Clone)]
pub enum PlanExpr {
    /// String literal.
    Str(String),
    /// Numeric literal.
    Num(f64),
    /// `()`.
    Empty,
    /// Variable reference.
    Var(String),
    /// Comma sequence.
    Sequence(Vec<PlanExpr>),
    /// Disjunction.
    Or(Vec<PlanExpr>),
    /// Conjunction.
    And(Vec<PlanExpr>),
    /// General comparison.
    Cmp(CmpOp, Box<PlanExpr>, Box<PlanExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<PlanExpr>, Box<PlanExpr>),
    /// Unary minus.
    Neg(Box<PlanExpr>),
    /// Node-order comparison `<<`.
    Before(Box<PlanExpr>, Box<PlanExpr>),
    /// Function call (built-in or user-defined).
    Call(String, Vec<PlanExpr>),
    /// Direct element constructor.
    Element(Box<PlanElement>),
    /// `some … satisfies`.
    Some {
        /// Quantified bindings.
        bindings: Vec<(String, PlanExpr)>,
        /// The condition.
        satisfies: Box<PlanExpr>,
    },
    /// PathScan operator.
    Path(Box<PathPlan>),
    /// Aggregate operator (`count` over a descendant extent).
    Aggregate(Box<AggregatePlan>),
    /// FLWOR pipeline: nested loop → sort → project.
    Flwor(Box<FlworPlan>),
    /// Lookup operator (a `for` source probing a value index).
    Lookup(Box<LookupPlan>),
}

impl PlanExpr {
    /// Call `f` on each direct sub-expression, in field order: path
    /// bases and step predicates (of a PathScan, an Aggregate's input
    /// and a Lookup's source), Aggregate inputs, FLWOR clauses, filters,
    /// order key and return, a Lookup's key, outer side and second bound,
    /// and a constructor's attribute templates and content, nested
    /// constructors flattened. The one statement of the plan tree's
    /// shape for every walk that treats children alike (variable use,
    /// Sort collection, the verifier's and EXPLAIN's scalar arms). Every
    /// variant and field is matched by name, so a new one does not
    /// compile until it is visited.
    pub(crate) fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a PlanExpr)) {
        match self {
            PlanExpr::Str(_) | PlanExpr::Num(_) | PlanExpr::Empty | PlanExpr::Var(_) => {}
            PlanExpr::Sequence(parts)
            | PlanExpr::Or(parts)
            | PlanExpr::And(parts)
            | PlanExpr::Call(_, parts) => parts.iter().for_each(f),
            PlanExpr::Cmp(_, a, b) | PlanExpr::Arith(_, a, b) | PlanExpr::Before(a, b) => {
                f(a);
                f(b);
            }
            PlanExpr::Neg(inner) => f(inner),
            PlanExpr::Element(ctor) => ctor.for_each_child(f),
            PlanExpr::Some {
                bindings,
                satisfies,
            } => {
                bindings.iter().for_each(|(_, e)| f(e));
                f(satisfies);
            }
            PlanExpr::Path(p) => p.for_each_child(f),
            PlanExpr::Aggregate(a) => {
                let AggregatePlan {
                    input,
                    tag: _,
                    summary: _,
                    indexed: _,
                    est_rows: _,
                } = &**a;
                input.for_each_child(f);
            }
            PlanExpr::Flwor(flwor) => {
                let FlworPlan {
                    clauses,
                    filters,
                    order_by,
                    ret,
                } = &**flwor;
                for clause in clauses {
                    let (PlanClause::For(_, e) | PlanClause::Let(_, e)) = clause;
                    f(e);
                }
                filters.iter().flatten().for_each(&mut *f);
                if let Some((key, _ascending)) = order_by {
                    f(key);
                }
                f(ret);
            }
            PlanExpr::Lookup(l) => {
                let LookupPlan {
                    var: _,
                    source,
                    key,
                    op: _,
                    outer,
                    second,
                    sig: _,
                    est_rows: _,
                } = &**l;
                source.for_each_child(f);
                f(key);
                f(outer);
                if let Some(LookupBound { key, op: _, outer }) = second {
                    f(key);
                    f(outer);
                }
            }
        }
    }

    /// Does this expression reference `var` anywhere?
    pub(crate) fn uses_var(&self, var: &str) -> bool {
        let mut found = match self {
            PlanExpr::Var(v) => v == var,
            PlanExpr::Path(p) => p.based_on(var),
            PlanExpr::Aggregate(a) => a.input.based_on(var),
            PlanExpr::Lookup(l) => l.source.based_on(var),
            _ => false,
        };
        self.for_each_child(&mut |c| found = found || c.uses_var(var));
        found
    }
}

impl PathPlan {
    /// The base and step-predicate expressions: the PathScan's part of
    /// [`PlanExpr::for_each_child`].
    fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a PlanExpr)) {
        let PathPlan {
            base,
            steps,
            memo: _,
            inlined_tail: _,
            value_tail: _,
            est_rows: _,
        } = self;
        match base {
            PlanBase::Expr(e) => f(e),
            PlanBase::Root | PlanBase::Var(_) | PlanBase::Context => {}
        }
        for PlanStep {
            axis: _,
            test: _,
            preds,
            access: _,
            est_rows: _,
        } in steps
        {
            for pred in preds {
                match pred {
                    PlanPred::Expr(e) => f(e),
                    PlanPred::Position(_) | PlanPred::Last => {}
                }
            }
        }
    }

    /// Does the path start at `$var`? A variable base is no expression,
    /// so [`PlanExpr::uses_var`] reads it here.
    fn based_on(&self, var: &str) -> bool {
        matches!(&self.base, PlanBase::Var(v) if v == var)
    }

    /// Does this path reference `var` in its base or a predicate?
    pub(crate) fn uses_var(&self, var: &str) -> bool {
        let mut found = self.based_on(var);
        self.for_each_child(&mut |c| found = found || c.uses_var(var));
        found
    }
}

impl PlanElement {
    /// Attribute-template and content expressions, nested constructors
    /// flattened: the constructor's part of [`PlanExpr::for_each_child`].
    fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a PlanExpr)) {
        let PlanElement {
            tag: _,
            attrs,
            content,
        } = self;
        for part in attrs.iter().flat_map(|(_, parts)| parts) {
            match part {
                PlanAttrPart::Expr(e) => f(e),
                PlanAttrPart::Lit(_) => {}
            }
        }
        for c in content {
            match c {
                PlanContent::Expr(e) => f(e),
                PlanContent::Element(nested) => nested.for_each_child(f),
                PlanContent::Text(_) => {}
            }
        }
    }
}

/// Where a PathScan starts.
#[derive(Debug, Clone)]
pub enum PlanBase {
    /// The document root.
    Root,
    /// A variable binding.
    Var(String),
    /// The predicate context item.
    Context,
    /// An arbitrary expression.
    Expr(PlanExpr),
}

/// The PathScan operator: base + annotated steps.
#[derive(Debug, Clone)]
pub struct PathPlan {
    /// Where navigation starts.
    pub base: PlanBase,
    /// The steps, applied left to right.
    pub steps: Vec<PlanStep>,
    /// Memo signature when the path is loop-invariant (absolute and
    /// predicate-free): the executor materializes it once per execution.
    pub memo: Option<String>,
    /// `Some(tag)` when the final `tag/text()` tail should be attempted
    /// through [`xmark_store::XmlStore::typed_child_value`] (System C).
    pub inlined_tail: Option<String>,
    /// `Some(tag)` when the final `tag/text()` tail should be attempted
    /// through the shared typed child-value index
    /// ([`xmark_store::index::ChildValues`]) — the store-layer
    /// generalization available on every backend; entity columns
    /// (`inlined_tail`) take precedence where both apply.
    ///
    /// Kept by an ablation in which the planner never set it (perflab,
    /// `--seconds 10 --trace 0`, seeds 1–4, 4 alternating pairs per
    /// workload, medians with → without): `lookup_paged` qps 594.8 →
    /// 530.4 (4/4 pairs); `mixed_rw` qps 580.3 → 496.6 (3/4 pairs) and
    /// `lat_geo_p50_ms` 0.533 → 0.663; `lookup_mem` qps 1104 → 1070
    /// (noise); `suite_all` qps 224.1 → 222.3 (flat). A later probe of
    /// the same ablation, once commits carried the `cvals|` maps
    /// unchanged (`--seconds 10 --trace 0`, 4 alternating
    /// `lookup_paged` pairs): qps 700.5 / 731.3 / 767.4 / 788.9 with the
    /// tail against 659.3 / 659.2 / 663.5 / 671.6 without (4/4), for
    /// `space_ratio` 1.711 against 1.640. The tail stays.
    pub value_tail: Option<String>,
    /// Estimated output cardinality (0 = unknown).
    pub est_rows: u64,
}

/// One annotated navigation step.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Planned predicates, applied in order.
    pub preds: Vec<PlanPred>,
    /// The chosen access path.
    pub access: StepAccess,
    /// Estimated extent cardinality of the step's tag (0 = unknown).
    pub est_rows: u64,
}

/// A planned step predicate.
#[derive(Debug, Clone)]
pub enum PlanPred {
    /// `[3]`.
    Position(usize),
    /// `[last()]`.
    Last,
    /// `[expr]`.
    Expr(PlanExpr),
}

/// The access path chosen for one step.
#[derive(Debug, Clone)]
pub enum StepAccess {
    /// Streaming axis cursor (with per-context predicate evaluation).
    Generic,
    /// `tag[@id = "literal"]` probed through the store's ID index; the
    /// executor verifies tag and reachability, and falls back to the
    /// generic cursor if the store turns out not to index IDs.
    IdProbe(String),
    /// `tag[1]` / `tag[last()]` through the store's positional index,
    /// falling back per node where unsupported.
    Positional(PositionSpec),
}

/// The Aggregate operator: `count(prefix//tag)` without materializing.
#[derive(Debug, Clone)]
pub struct AggregatePlan {
    /// The context rows whose descendant extents are counted.
    pub input: PathPlan,
    /// The counted tag.
    pub tag: String,
    /// Whether the store answers from summary/extent arithmetic
    /// (Systems D/E) rather than a counting cursor walk.
    pub summary: bool,
    /// Whether the shared element-name index
    /// ([`xmark_store::IndexManager`]) answers the count as a
    /// posting-range length: two binary searches per context node, no
    /// walk (backends without native summaries, wherever the index can
    /// stab the store). The executor falls back to a counting cursor
    /// walk if a snapshot's index cannot stab. This is the element
    /// index's only plan form. Its win, from a probe of a planner that
    /// never set it (release, factor 0.1, warm, one run per system): Q6
    /// on System A went from 0.001 to 0.06–0.14 ms and Q7 from 0.001 to
    /// 0.02–0.03 ms; on System H, a walk through the buffer pool, Q6
    /// went to 1.9–2.0 ms and Q7 to 7.4–10.8 ms. The streaming form of
    /// the same index (a descendant step reading the posting slice)
    /// planned only Q14's and Q19's `//item` sources, each a `[memo]`
    /// path that is walked once per store and then replayed, so it was
    /// deleted.
    pub indexed: bool,
    /// Estimated extent cardinality of the counted tag (0 = unknown);
    /// an indexed count records the exact posting cardinality, even on
    /// the statistics-free System F.
    pub est_rows: u64,
}

/// The FLWOR pipeline: clause-by-clause iteration (**NestedLoop**) with a
/// predicate-pushdown **Filter** schedule → optional **Sort** → **Project**.
#[derive(Debug, Clone)]
pub struct FlworPlan {
    /// The clauses, in source order.
    pub clauses: Vec<PlanClause>,
    /// `clauses.len() + 1` filter buckets: `filters[d]` holds the
    /// where-conjuncts evaluated once `d` clauses are bound (everything
    /// sits at the deepest level in naive plans).
    pub filters: Vec<Vec<PlanExpr>>,
    /// Optional Sort operator: key and `true` for ascending.
    pub order_by: Option<(PlanExpr, bool)>,
    /// The Project operator: the `return` expression.
    pub ret: PlanExpr,
}

/// One planned `for`/`let` clause.
#[derive(Debug, Clone)]
pub enum PlanClause {
    /// `for $v in expr`.
    For(String, PlanExpr),
    /// `let $v := expr`.
    Let(String, PlanExpr),
}

/// The Lookup operator: `for $var in source where key($var) op outer`
/// answered by probing a sorted key index instead of filtering the
/// source — §7's "chasing the references basically amounted to executing
/// equi-joins on strings", Q11/Q12's value joins, which compare with
/// `>`, and the range selections of Q5, Q12 and Q20. It yields the
/// source items whose key compares true, by general comparison, against
/// any item of `outer` — and, with a `second` bound, against its outer
/// too — in source order and without duplicates. The index over
/// (`source`, `key`) is built once, serves all five operators, and is
/// shared through the store's value indexes under `sig`; `outer` is
/// evaluated in the clause's scope, once per open, and not at all over
/// an empty source.
#[derive(Debug, Clone)]
pub struct LookupPlan {
    /// The variable `key` is rooted at (the clause's own variable).
    pub var: String,
    /// The loop-invariant source: an absolute predicate-free PathScan.
    pub source: PathPlan,
    /// The key (see [`key_signature`]): predicate-free paths over
    /// `var`, combined by arithmetic with numeric literals.
    pub key: PlanExpr,
    /// The comparison, stated key first: `key op outer`. One of `=`,
    /// `<`, `<=`, `>` and `>=`.
    pub op: CmpOp,
    /// The probing expression; free of `var` and of later clauses.
    pub outer: PlanExpr,
    /// A second conjunct over the same key, bounding it from the other
    /// side by a literal (Q20's `@income < 100000 and @income >=
    /// 30000`). Each bound is existential on its own: a key of two
    /// items may meet one bound with each.
    pub second: Option<LookupBound>,
    /// Index signature `"{source}|{key}"` over the canonical signatures
    /// ([`path_signature`], [`key_signature`]) — equal sources and keys
    /// share one index, whatever the operator.
    pub sig: String,
    /// Estimated source cardinality (0 = unknown).
    pub est_rows: u64,
}

/// One bound of a [`LookupPlan`]: `key op outer`.
#[derive(Debug, Clone)]
pub struct LookupBound {
    /// The key over the Lookup's variable.
    pub key: PlanExpr,
    /// The comparison, stated key first.
    pub op: CmpOp,
    /// The probing expression.
    pub outer: PlanExpr,
}

/// A planned element constructor.
#[derive(Debug, Clone)]
pub struct PlanElement {
    /// Tag name.
    pub tag: String,
    /// Attribute-value templates.
    pub attrs: Vec<(String, Vec<PlanAttrPart>)>,
    /// Content items in order.
    pub content: Vec<PlanContent>,
}

/// Part of a planned attribute-value template.
#[derive(Debug, Clone)]
pub enum PlanAttrPart {
    /// Literal text.
    Lit(String),
    /// `{expr}`.
    Expr(PlanExpr),
}

/// Planned element-constructor content.
#[derive(Debug, Clone)]
pub enum PlanContent {
    /// Literal text.
    Text(String),
    /// `{expr}`.
    Expr(PlanExpr),
    /// A nested constructor.
    Element(PlanElement),
}

/// Canonical signature of a step sequence — the key for path memos and
/// Lookup indexes.
pub fn path_signature(steps: &[PlanStep]) -> String {
    let mut sig = String::new();
    for s in steps {
        sig.push(match s.axis {
            Axis::Child => '/',
            Axis::Descendant => 'D',
            Axis::Attribute => '@',
        });
        match &s.test {
            NodeTest::Tag(t) => sig.push_str(t),
            NodeTest::Wildcard => sig.push('*'),
            NodeTest::Text => sig.push_str("#t"),
        }
    }
    sig
}

/// Canonical signature of a Lookup key over `var`, or `None` when `key`
/// lies outside the key grammar: a predicate-free path over `$var`, or
/// `+ - * div mod` and unary minus over such paths and numeric
/// literals, with at least one path. Its arithmetic raises nothing:
/// over a non-number or a longer sequence it is the empty sequence. A
/// path key signs as its [`path_signature`]; arithmetic
/// signs fully parenthesized (`(5000 * /#t)`), which no path signature
/// can spell.
pub fn key_signature(key: &PlanExpr, var: &str) -> Option<String> {
    fn sign(e: &PlanExpr, var: &str, paths: &mut usize) -> Option<String> {
        match e {
            PlanExpr::Path(p) => {
                let over_var = matches!(&p.base, PlanBase::Var(v) if v == var)
                    && p.steps.iter().all(|s| s.preds.is_empty());
                over_var.then(|| {
                    *paths += 1;
                    path_signature(&p.steps)
                })
            }
            PlanExpr::Num(n) => Some(crate::result::format_number(*n)),
            PlanExpr::Neg(inner) => Some(format!("(-{})", sign(inner, var, paths)?)),
            PlanExpr::Arith(op, a, b) => Some(format!(
                "({} {} {})",
                sign(a, var, paths)?,
                op.symbol(),
                sign(b, var, paths)?
            )),
            _ => None,
        }
    }
    let mut paths = 0;
    let sig = sign(key, var, &mut paths)?;
    (paths > 0).then_some(sig)
}

/// The index signature of a Lookup: `"{source}|{key}"` over the
/// canonical signatures, or `None` for a key outside the grammar.
pub(crate) fn lookup_signature(source: &PathPlan, key: &PlanExpr, var: &str) -> Option<String> {
    let key = key_signature(key, var)?;
    Some(format!("{}|{key}", path_signature(&source.steps)))
}
