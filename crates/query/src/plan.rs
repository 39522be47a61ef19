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
//!   [`xmark_store::XmlStore::count_descendants_named`] without
//!   materializing the counted extent (System D's structural summary).
//! * [`FlworPlan`] — clause-by-clause iteration (**NestedLoop**) with a
//!   predicate-pushdown **Filter** schedule, followed by an optional
//!   **Sort** and a **Project** (the `return` expression).
//! * [`LookupPlan`] — a **Lookup**: a `for` source whose equality
//!   conjunct became a value-index probe. Every join (Q8–Q10's reference
//!   chasing) is a nested loop over Lookups.
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
    /// (noise); `suite_all` qps 224.1 → 222.3 (flat).
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
    /// Predicate-free `descendant::tag` served from the store's shared
    /// element-name index ([`xmark_store::IndexManager`]): the context's
    /// subtree range stabs the tag's posting list (two binary searches)
    /// and matches stream off the slice — no walk. Chosen only when the
    /// posting list is sparse relative to the store; the executor falls
    /// back to the native axis cursor if stabbing turns out invalid.
    IndexScan,
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
    /// Whether the shared element-name index answers the count as a
    /// posting-range length (backends without native summaries).
    pub indexed: bool,
    /// Estimated extent cardinality of the counted tag (0 = unknown).
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

/// The Lookup operator: `for $var in source where key($var) = outer`
/// answered by probing a value index instead of filtering the source —
/// §7's "chasing the references basically amounted to executing
/// equi-joins on strings". It yields the source items whose key equals,
/// by general `=`, any canonical key of `outer`, in source order and
/// without duplicates. The index over (`source`, `key`) is built once
/// and shared through the store's value indexes under `sig`; `outer` is
/// evaluated in the clause's scope, once per open.
#[derive(Debug, Clone)]
pub struct LookupPlan {
    /// The variable `key` is rooted at (the clause's own variable).
    pub var: String,
    /// The loop-invariant source: an absolute predicate-free PathScan.
    pub source: PathPlan,
    /// The key path, a predicate-free path over `var`.
    pub key: PathPlan,
    /// The probing expression; free of `var` and of later clauses.
    pub outer: PlanExpr,
    /// Index signature `"{source}|{key}"` over the canonical path
    /// signatures — equal sources and keys share one index.
    pub sig: String,
    /// Estimated source cardinality (0 = unknown).
    pub est_rows: u64,
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
/// Lookup indexes, and the compact rendering EXPLAIN uses.
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
