//! The physical query algebra.
//!
//! A [`PhysicalPlan`] is the output of the compile phase: the parsed query
//! lowered into an operator tree whose every access-path and join decision
//! has already been made. The executor ([`crate::eval::Evaluator`]) walks
//! this tree without re-discovering anything — the split the paper's
//! Table 2 measures between *compilation* (parse, metadata, optimize) and
//! *execution*.
//!
//! The operator vocabulary:
//!
//! * [`PathPlan`] — a **PathScan**: a base plus navigation steps, each
//!   annotated with its chosen [`StepAccess`] (generic streaming cursor,
//!   **IndexLookup** via the ID index, positional index probe) and an
//!   inlined-tail shortcut (System C's entity columns).
//! * [`AggregatePlan`] — an **Aggregate**: `count(path//tag)` answered by
//!   [`xmark_store::XmlStore::count_descendants_named`] without
//!   materializing the counted extent (System D's structural summary).
//! * [`FlworPlan`] — a binding [`Strategy`] (**NestedLoop** with a
//!   predicate-pushdown **Filter** schedule, **HashJoin**, or the
//!   decorrelated **IndexLookup** join), followed by an optional **Sort**
//!   and a **Project** (the `return` expression).
//!
//! Scalar expressions (comparisons, arithmetic, constructors, calls)
//! mirror the AST one-to-one; only the decision-bearing nodes differ.
//! [`crate::explain`] renders a plan one line per operator.

use xmark_store::PositionSpec;

use crate::ast::{ArithOp, Axis, CmpOp, NodeTest};

/// How the plan was produced (see [`crate::planner::Planner`]).
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
/// [`crate::compile::Compiled`]; executed by [`crate::eval::Evaluator`].
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
/// `Path`, `Aggregate` and `Flwor` are the operator-bearing nodes.
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
    /// FLWOR pipeline: binding strategy → sort → project.
    Flwor(Box<FlworPlan>),
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

/// The FLWOR pipeline: bind → filter → sort → project.
#[derive(Debug, Clone)]
pub struct FlworPlan {
    /// How tuples are produced.
    pub strategy: Strategy,
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

/// The binding strategy chosen for a FLWOR expression.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Clause-by-clause iteration with a Filter schedule: `filters[d]`
    /// holds the where-conjuncts evaluated once `d` clauses are bound
    /// (predicate pushdown; in naive plans everything sits at the deepest
    /// level).
    NestedLoop {
        /// The clauses, in source order.
        clauses: Vec<PlanClause>,
        /// `clauses.len() + 1` filter buckets.
        filters: Vec<Vec<PlanExpr>>,
    },
    /// Equi-join executed as a hash join (§7: "chasing the references
    /// basically amounted to executing equi-joins on strings"). The probe
    /// side is the first `for` clause so output order matches the nested
    /// loop.
    HashJoin {
        /// Probe-side (outer) variable.
        probe_var: String,
        /// Probe-side source.
        probe_src: PlanExpr,
        /// Probe-side key expression (over `probe_var`).
        probe_key: PlanExpr,
        /// Cache signature for the probe key lists when loop-invariant.
        probe_sig: Option<String>,
        /// Build-side (inner) variable.
        build_var: String,
        /// Build-side source.
        build_src: PlanExpr,
        /// Build-side key expression (over `build_var`).
        build_key: PlanExpr,
        /// Cache signature for the hash table when loop-invariant.
        build_sig: Option<String>,
        /// Probe-side residual equalities (`path($probe) = outer-expr`)
        /// hoisted out of the per-pair filter: the probe-var key lists
        /// are computed once per execution — and persisted in the store's
        /// value indexes when loop-invariant — instead of re-evaluating
        /// the path for every (pair × outer binding). Q9's correlated
        /// `$t/buyer/@person = $p/@id` is the motivating case.
        hoisted: Vec<HoistedEq>,
        /// Remaining where-conjuncts, evaluated per joined tuple.
        residual: Vec<PlanExpr>,
        /// Estimated probe/build cardinalities (0 = unknown).
        est_probe: u64,
        /// Estimated build-side cardinality (0 = unknown).
        est_build: u64,
    },
    /// Decorrelated lookup join (Q8's correlated inner query): a lookup
    /// index over `source` keyed by `inner_key`, probed with `outer_key`
    /// from the enclosing scope — the index-nested-loop plan a relational
    /// optimizer produces for reference chasing.
    IndexLookup {
        /// The bound variable.
        var: String,
        /// The indexed source (a loop-invariant PathScan).
        source: PlanExpr,
        /// Key expression over `var`.
        inner_key: PlanExpr,
        /// The probing expression from the enclosing scope.
        outer_key: PlanExpr,
        /// Cache signature of the lookup index.
        sig: String,
        /// Remaining where-conjuncts.
        residual: Vec<PlanExpr>,
        /// Estimated indexed-source cardinality (0 = unknown).
        est_build: u64,
    },
}

/// One hoisted probe-side residual equality of a hash join (see
/// [`Strategy::HashJoin`]).
#[derive(Debug, Clone)]
pub struct HoistedEq {
    /// Canonical-key path over the probe variable.
    pub probe_key: PlanExpr,
    /// The enclosing-scope side — free of both join variables, so it is
    /// evaluated once per producer open, not per pair.
    pub outer: PlanExpr,
    /// Persistence signature when the probe source is loop-invariant
    /// (same keying as the join's probe-key lists).
    pub sig: Option<String>,
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
/// join caches, and the compact rendering EXPLAIN uses.
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
