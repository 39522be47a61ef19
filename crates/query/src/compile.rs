//! Query compilation: parse → plan.
//!
//! Table 2 of the paper splits query cost into *compilation* (parsing,
//! metadata access, optimization) and *execution*, and shows that the
//! physical mapping decides the balance: System A compiled Q1 in half the
//! time of the fragmenting System B because it touches one relation
//! descriptor instead of one per path step.
//!
//! [`compile`] reproduces that phase as a real pipeline: it parses the
//! query and hands the AST to the cost-based planner
//! ([`crate::planner::plan_query`]), which resolves every path step
//! against the store's catalog ([`xmark_store::XmlStore::estimate_step`]),
//! collects the cardinality estimates, and lowers the query into a
//! [`PhysicalPlan`] with every access-path and join decision made. The
//! benchmark harness times [`parse`](crate::parse_query), [`plan`] and
//! [`execute`] separately to regenerate the paper's Table 2 as three
//! columns.

use xmark_store::XmlStore;

use crate::ast::Query;
use crate::eval::EvalError;
use crate::parse::{parse_query, ParseError};
use crate::plan::{PhysicalPlan, PlanMode};
use crate::planner::plan_query;
use crate::result::Sequence;
use crate::stream::ResultStream;

/// Compilation statistics (the "metadata" column of Table 2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Path steps resolved.
    pub steps_resolved: usize,
    /// Metadata (catalog) accesses the store reported, summed over the
    /// resolved steps' [`xmark_store::StepEstimate`]s.
    pub metadata_accesses: u64,
    /// Sum of estimated extent cardinalities (the optimizer's input).
    pub estimated_rows: u64,
}

/// A compiled query: the physical plan the planner chose plus the
/// compile statistics. Ready for repeated execution — services cache
/// this whole object keyed by query text so repeated requests skip
/// parse and plan entirely.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The physical plan (all rewrite decisions made at compile time).
    pub plan: PhysicalPlan,
    /// Compilation statistics.
    pub stats: CompileStats,
}

impl Compiled {
    /// Render the physical plan one line per operator (see
    /// [`crate::explain`]).
    pub fn explain(&self) -> String {
        crate::explain::explain_plan(&self.plan)
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The query text did not parse.
    Parse(ParseError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

/// Compile `text` for execution against `store` with the optimizing
/// planner.
pub fn compile(text: &str, store: &dyn XmlStore) -> Result<Compiled, CompileError> {
    compile_with_mode(text, store, PlanMode::Optimized)
}

/// Compile `text` with an explicit [`PlanMode`]. `PlanMode::Naive`
/// produces the pure nested-loop plan the optimizer oracle executes as
/// the specification.
pub fn compile_with_mode(
    text: &str,
    store: &dyn XmlStore,
    mode: PlanMode,
) -> Result<Compiled, CompileError> {
    let query = parse_query(text)?;
    Ok(plan(&query, store, mode))
}

/// The planning phase alone: lower an already-parsed query into a
/// [`Compiled`] against `store`. The harness calls this between separate
/// parse and execute timers to split Table 2 into three columns.
pub fn plan(query: &Query, store: &dyn XmlStore, mode: PlanMode) -> Compiled {
    let (plan, stats) = plan_query(query, store, mode);
    // Debug builds verify every plan the planner emits (see
    // [`crate::verify`]); release callers opt in through
    // [`crate::verify::verify_plan_against`], as the `plan_audit` binary
    // does.
    #[cfg(debug_assertions)]
    {
        use crate::verify::Invariant;
        let report = crate::verify::verify_plan_against(query, &plan, store);
        // V9 (var-scope) is excluded here: an unbound variable in the
        // source text flows through planning verbatim and surfaces as an
        // evaluation error by contract — it is a property of the query,
        // not a planner bug. Explicit verification still reports it.
        let planner_bugs = report
            .violations
            .iter()
            .filter(|v| v.invariant != Invariant::VarScope)
            .count();
        debug_assert!(
            planner_bugs == 0,
            "planner emitted an invariant-violating plan:\n{report}"
        );
    }
    Compiled { plan, stats }
}

/// Execute a compiled query, materializing the whole result — a thin
/// wrapper draining [`stream`]. Callers that can consume items
/// incrementally (or stop early) should prefer the stream.
pub fn execute(compiled: &Compiled, store: &dyn XmlStore) -> Result<Sequence, EvalError> {
    stream(compiled, store).collect_seq()
}

/// Open a pull-based [`ResultStream`] over a compiled query: the
/// streaming counterpart of [`execute`]. Draining it yields exactly the
/// sequence `execute` returns; `take(n)`/`exists()`/`count()` stop
/// pulling from the operator cursors as soon as the answer is known.
pub fn stream<'a>(compiled: &'a Compiled, store: &'a dyn XmlStore) -> ResultStream<'a> {
    ResultStream::new(&compiled.plan, store)
}

/// Compile and execute in one call.
pub fn run_query(text: &str, store: &dyn XmlStore) -> Result<Sequence, Box<dyn std::error::Error>> {
    let compiled = compile(text, store)?;
    Ok(execute(&compiled, store)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanClause, PlanExpr};
    use xmark_store::{EdgeStore, FragmentedStore};

    const DOC: &str = r#"<site><people><person id="person0"><name>Alice</name></person><person id="person1"><name>Bob</name></person></people></site>"#;

    #[test]
    fn compile_counts_steps_and_metadata() {
        let store = EdgeStore::load(DOC).unwrap();
        let compiled = compile(
            r#"for $b in document("x")/site/people/person return $b/name/text()"#,
            &store,
        )
        .unwrap();
        // site, people, person, name (text() is not a tag step).
        assert_eq!(compiled.stats.steps_resolved, 4);
        // System A: two metadata accesses per step.
        assert_eq!(compiled.stats.metadata_accesses, 8);
        assert!(compiled.stats.estimated_rows >= 2);
    }

    #[test]
    fn fragmented_store_touches_more_metadata() {
        let a = EdgeStore::load(DOC).unwrap();
        let b = FragmentedStore::load(DOC).unwrap();
        let q = r#"for $b in /site/people/person return $b/name/text()"#;
        let ca = compile(q, &a).unwrap();
        let cb = compile(q, &b).unwrap();
        assert!(
            cb.stats.metadata_accesses > ca.stats.metadata_accesses,
            "B must touch more metadata than A (paper Table 2)"
        );
    }

    #[test]
    fn naive_and_optimized_modes_resolve_identical_metadata() {
        // The statistics pass is strategy-independent: the naive plan must
        // report the same catalog touches (Table 2 comparability).
        let store = EdgeStore::load(DOC).unwrap();
        let q = r#"for $b in /site/people/person return $b/name/text()"#;
        let optimized = compile_with_mode(q, &store, PlanMode::Optimized).unwrap();
        let naive = compile_with_mode(q, &store, PlanMode::Naive).unwrap();
        assert_eq!(optimized.stats, naive.stats);
    }

    #[test]
    fn naive_mode_plans_pure_nested_loops() {
        let store = EdgeStore::load(DOC).unwrap();
        let q = r#"for $a in /site/people/person, $b in /site/people/person
                   where $a/@id = $b/@id return $a"#;
        let naive = compile_with_mode(q, &store, PlanMode::Naive).unwrap();
        let PlanExpr::Flwor(f) = &naive.plan.body else {
            panic!("body is a FLWOR");
        };
        // No Lookup and no pushdown: the single conjunct sits at the
        // deepest level, over plain path sources.
        assert_eq!(f.clauses.len(), 2);
        assert!(
            f.clauses
                .iter()
                .all(|c| matches!(c, PlanClause::For(_, PlanExpr::Path(_)))),
            "naive mode must not plan Lookups, got {:?}",
            f.clauses
        );
        assert!(f.filters[..2].iter().all(Vec::is_empty));
        assert_eq!(f.filters[2].len(), 1);

        let optimized = compile(q, &store).unwrap();
        let PlanExpr::Flwor(f) = &optimized.plan.body else {
            panic!("body is a FLWOR");
        };
        assert!(
            matches!(f.clauses[1], PlanClause::For(_, PlanExpr::Lookup(_))),
            "optimized mode plans the equi-join as a Lookup"
        );
        assert!(f.filters.iter().all(Vec::is_empty));
    }

    /// One query per child position of the two expression trees, `$x`
    /// in that position only; together they take every arm of
    /// `Expr::for_each_child` and `PlanExpr::for_each_child`.
    const CHILD_POSITIONS: [&str; 23] = [
        "($x, 1)",
        "$x or 1",
        "1 and $x",
        "string($x)",
        "1 = $x",
        "$x + 1",
        "1 << $x",
        "-$x",
        r#"<a b="{$x}"/>"#,
        "<a>{$x}</a>",
        "<a><b>{$x}</b></a>",
        "some $s in $x satisfies 1",
        "some $s in /site satisfies $x",
        "$x/a",
        "$y/a[$x]",
        "count($x//a)",
        "for $s in $x return 1",
        "let $s := $x return 1",
        "for $s in /site where $x return 1",
        "for $s in /site order by $x return 1",
        "for $s in /site return $x",
        "for $p in /site/people/person where $p/name = $x return 1",
        r#"for $x in /site/people/person where $x/name = "Alice" return 1"#,
    ];

    /// A FLWOR with a Sort, to put where `$x` stands.
    const SORTED: &str = "(for $s in /site order by 1 return $s)";

    /// A two-bound Lookup. The test places expressions in its slots by
    /// hand: the planner builds none whose key is not a key over its
    /// variable, whose second bound is not a literal or whose source is
    /// not absolute.
    const RANGE: &str =
        r#"for $p in /site/people/person where $p/name > "A" and $p/name < "Z" return 1"#;

    fn plan(text: &str, store: &dyn XmlStore) -> (Query, PhysicalPlan) {
        let query = parse_query(text).unwrap();
        let (plan, _) = plan_query(&query, store, PlanMode::Optimized);
        (query, plan)
    }

    /// Does V6 find the Sorts of `plan` disagree with `query`'s?
    fn sorts_differ(query: &Query, plan: &PhysicalPlan, store: &dyn XmlStore) -> bool {
        let report = crate::verify::verify_plan_against(query, plan, store);
        report.violations_of(crate::verify::Invariant::SortPresence) > 0
    }

    /// Places an expression in one child slot of `RANGE`'s Lookup.
    type Place = fn(&mut crate::plan::LookupPlan, PlanExpr);

    fn range_lookup(plan: &mut PhysicalPlan) -> &mut crate::plan::LookupPlan {
        let PlanExpr::Flwor(f) = &mut plan.body else {
            panic!("body is a FLWOR");
        };
        let PlanClause::For(_, PlanExpr::Lookup(l)) = &mut f.clauses[0] else {
            panic!("the clause is a Lookup");
        };
        l
    }

    #[test]
    fn child_visitors_reach_every_position() {
        let store = EdgeStore::load(DOC).unwrap();
        for text in CHILD_POSITIONS {
            let (query, used) = plan(text, &store);
            assert!(used.body.uses_var("x"), "{text}");
            let (_, control) = plan(&text.replace("$x", "$y"), &store);
            assert!(!control.body.uses_var("x"), "{text} with $y");
            if text.starts_with("for $x") {
                continue; // `$x` binds the Lookup's key: see below.
            }
            // V6 finds a Sort in that position, on either tree.
            let (sorted_query, sorted) = plan(&text.replace("$x", SORTED), &store);
            assert!(sorts_differ(&query, &sorted, &store), "plan: {text}");
            assert!(sorts_differ(&sorted_query, &used, &store), "AST: {text}");
        }

        let places: [(&str, Place); 5] = [
            ("key", |l, e| l.key = e),
            ("outer", |l, e| l.outer = e),
            ("second key", |l, e| l.second.as_mut().unwrap().key = e),
            ("second outer", |l, e| l.second.as_mut().unwrap().outer = e),
            ("source", |l, e| {
                l.source.base = crate::plan::PlanBase::Expr(e)
            }),
        ];
        let (query, range) = plan(RANGE, &store);
        assert!(!range.body.uses_var("x"));
        let (_, sort) = plan(SORTED, &store);
        for (name, place) in places {
            let mut used = range.clone();
            place(range_lookup(&mut used), PlanExpr::Var("x".to_string()));
            assert!(used.body.uses_var("x"), "lookup {name}");
            let mut sorted = range.clone();
            place(range_lookup(&mut sorted), sort.body.clone());
            assert!(sorts_differ(&query, &sorted, &store), "lookup {name}");
        }
    }

    #[test]
    fn compile_then_execute_roundtrip() {
        let store = EdgeStore::load(DOC).unwrap();
        let compiled = compile("count(/site/people/person)", &store).unwrap();
        let result = execute(&compiled, &store).unwrap();
        let rendered = crate::result::serialize_sequence(&store, &result);
        assert_eq!(rendered, "2");
    }

    #[test]
    fn parse_errors_surface() {
        let store = EdgeStore::load(DOC).unwrap();
        assert!(matches!(
            compile("for $x in", &store),
            Err(CompileError::Parse(_))
        ));
    }
}
