//! `EXPLAIN`: stable, one-line-per-operator plan rendering.
//!
//! [`explain_plan`] prints a [`PhysicalPlan`] as an indented operator
//! tree, output-first (Project at the top, scans at the leaves), with two
//! spaces per level. Scalar expressions are rendered inline in a compact
//! XQuery-ish form (truncated past a fixed width so the output stays
//! line-oriented); operator-bearing sub-expressions nested inside scalar
//! positions (a FLWOR under `count(…)`, say) are rendered as indented
//! children.
//!
//! The rendering is deterministic for a given (query, backend) pair —
//! plan-snapshot golden tests pin it so any planner change is visible in
//! review. Annotations carry the per-backend decisions, and appear
//! wherever a path does (operator lines *and* paths inline in scalar
//! positions), so every access-path choice is visible:
//!
//! * `~N` — the planner's cardinality estimate (omitted when unknown),
//! * `Lookup key op outer` — a `for` source answered by probing the
//!   sorted key index over its source (rendered beneath) with `outer`'s
//!   items, `op` one of `=`, `<`, `<=`, `>`, `>=`; a second bound
//!   follows as `and key op literal`,
//! * `[memo]` — loop-invariant path, materialized once per execution,
//! * `->id("x")` — ID-index probe for that step,
//! * `->pos(1)` / `->pos(last)` — positional-index probe for that step,
//! * `->inlined("tag")` — entity-column read for a `tag/text()` tail,
//! * `->vals("tag")` — a `tag/text()` tail answered from the shared typed
//!   child-value index,
//! * `[summary]` — Aggregate answered by summary/extent arithmetic,
//! * `[idx]` — Aggregate answered by a posting-range length of the shared
//!   element-name index.

use crate::ast::{Axis, NodeTest};
use crate::plan::*;

/// Maximum width of an inline scalar rendering before truncation.
const INLINE_WIDTH: usize = 96;

/// Render a whole plan, functions first, one line per operator.
pub fn explain_plan(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    for f in &plan.functions {
        out.push_str(&format!(
            "Function {}({})\n",
            f.name,
            f.params
                .iter()
                .map(|p| format!("${p}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        render_operator_or_eval(&f.body, 1, &mut out);
    }
    render_operator_or_eval(&plan.body, 0, &mut out);
    out
}

fn line(indent: usize, text: String, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str(&text);
    out.push('\n');
}

/// Render `expr` as an operator subtree; scalar roots get an `Eval` line
/// with their operator children beneath.
fn render_operator_or_eval(expr: &PlanExpr, indent: usize, out: &mut String) {
    match expr {
        PlanExpr::Flwor(_) | PlanExpr::Path(_) | PlanExpr::Aggregate(_) | PlanExpr::Lookup(_) => {
            render_operator(expr, indent, out)
        }
        other => {
            line(indent, format!("Eval {}", inline(other)), out);
            render_children(other, indent + 1, out);
        }
    }
}

/// Render an operator node (Flwor / Path / Aggregate).
fn render_operator(expr: &PlanExpr, indent: usize, out: &mut String) {
    match expr {
        PlanExpr::Flwor(f) => render_flwor(f, indent, out),
        PlanExpr::Path(p) => line(indent, path_line(p), out),
        PlanExpr::Aggregate(a) => {
            let mut text = format!("Aggregate count(//{})", a.tag);
            if a.est_rows > 0 {
                text.push_str(&format!(" ~{}", a.est_rows));
            }
            if a.summary {
                text.push_str(" [summary]");
            } else if a.indexed {
                text.push_str(" [idx]");
            }
            line(indent, text, out);
            line(indent + 1, path_line(&a.input), out);
        }
        PlanExpr::Lookup(l) => {
            line(indent, lookup_line(l), out);
            line(indent + 1, path_line(&l.source), out);
        }
        other => render_operator_or_eval(other, indent, out),
    }
}

fn render_flwor(f: &FlworPlan, indent: usize, out: &mut String) {
    line(indent, format!("Project {}", inline(&f.ret)), out);
    let mut indent = indent + 1;
    render_children(&f.ret, indent, out);
    if let Some((key, ascending)) = &f.order_by {
        line(
            indent,
            format!(
                "Sort {} {}",
                inline(key),
                if *ascending {
                    "ascending"
                } else {
                    "descending"
                }
            ),
            out,
        );
        indent += 1;
    }
    line(indent, "NestedLoop".to_string(), out);
    let indent = indent + 1;
    // Execution order: filters scheduled at depth d run after d clauses
    // are bound, before clause d itself binds.
    for (depth, scheduled) in f.filters.iter().enumerate() {
        for filter in scheduled {
            line(indent, format!("Filter@{depth} {}", inline(filter)), out);
        }
        if let Some(clause) = f.clauses.get(depth) {
            render_clause(clause, indent, out);
        }
    }
}

fn render_clause(clause: &PlanClause, indent: usize, out: &mut String) {
    let (word, var, src) = match clause {
        PlanClause::For(v, s) => ("For", v, s),
        PlanClause::Let(v, s) => ("Let", v, s),
    };
    render_source(&format!("{word} ${var}"), src, indent, out);
}

/// A binding source: PathScans and Lookups inline on the binding's own
/// line, other operators as an indented subtree, scalars inline.
fn render_source(label: &str, src: &PlanExpr, indent: usize, out: &mut String) {
    match src {
        PlanExpr::Path(p) => line(indent, format!("{label} in {}", path_line(p)), out),
        PlanExpr::Lookup(l) => {
            line(indent, format!("{label} in {}", lookup_line(l)), out);
            line(indent + 1, path_line(&l.source), out);
        }
        PlanExpr::Flwor(_) | PlanExpr::Aggregate(_) => {
            line(indent, format!("{label} in"), out);
            render_operator(src, indent + 1, out);
        }
        other => {
            line(indent, format!("{label} in {}", inline(other)), out);
            render_children(other, indent + 1, out);
        }
    }
}

/// Walk a scalar expression and render any operator-bearing
/// sub-expressions (nested FLWORs, Aggregates) as children. Paths render
/// only their base: scans are only operators in source positions.
fn render_children(expr: &PlanExpr, indent: usize, out: &mut String) {
    match expr {
        PlanExpr::Flwor(_) | PlanExpr::Aggregate(_) | PlanExpr::Lookup(_) => {
            render_operator(expr, indent, out)
        }
        PlanExpr::Path(p) => {
            if let PlanBase::Expr(e) = &p.base {
                render_children(e, indent, out);
            }
        }
        _ => expr.for_each_child(&mut |c| render_children(c, indent, out)),
    }
}

// ---- the PathScan and Lookup lines ----------------------------------------

/// `Lookup key op outer ~N`: the probed index's key, the operator, the
/// probing expression, any second bound, and the source estimate; the
/// source renders beneath.
fn lookup_line(l: &LookupPlan) -> String {
    let mut text = format!("Lookup {}", lookup_bounds(l));
    if l.est_rows > 0 {
        text.push_str(&format!(" ~{}", l.est_rows));
    }
    text
}

fn path_line(p: &PathPlan) -> String {
    let mut text = format!("PathScan {}", path_inline(p));
    if p.est_rows > 0 {
        text.push_str(&format!(" ~{}", p.est_rows));
    }
    if p.memo.is_some() {
        text.push_str(" [memo]");
    }
    text
}

/// Base + annotated steps + inlined-tail marker — the shared path
/// rendering for operator lines and inline scalar positions.
fn path_inline(p: &PathPlan) -> String {
    let mut text = match &p.base {
        PlanBase::Root => String::new(),
        PlanBase::Var(v) => format!("${v}"),
        PlanBase::Context => ".".to_string(),
        PlanBase::Expr(e) => format!("({})", inline_untruncated(e)),
    };
    text.push_str(&steps_inline(&p.steps));
    if let Some(tag) = &p.inlined_tail {
        text.push_str(&format!("->inlined({tag:?})"));
    }
    if let Some(tag) = &p.value_tail {
        text.push_str(&format!("->vals({tag:?})"));
    }
    text
}

fn steps_inline(steps: &[PlanStep]) -> String {
    let mut out = String::new();
    for s in steps {
        out.push_str(match s.axis {
            Axis::Child => "/",
            Axis::Descendant => "//",
            Axis::Attribute => "/@",
        });
        match &s.test {
            NodeTest::Tag(t) => out.push_str(t),
            NodeTest::Wildcard => out.push('*'),
            NodeTest::Text => out.push_str("text()"),
        }
        for p in &s.preds {
            match p {
                PlanPred::Position(k) => out.push_str(&format!("[{k}]")),
                PlanPred::Last => out.push_str("[last()]"),
                PlanPred::Expr(e) => out.push_str(&format!("[{}]", inline(e))),
            }
        }
        match &s.access {
            StepAccess::Generic => {}
            StepAccess::IdProbe(lit) => out.push_str(&format!("->id({lit:?})")),
            StepAccess::Positional(spec) => {
                let rendered = match spec {
                    xmark_store::PositionSpec::First(k) => format!("->pos({k})"),
                    xmark_store::PositionSpec::Last => "->pos(last)".to_string(),
                };
                out.push_str(&rendered);
            }
        }
    }
    out
}

// ---- compact inline rendering of scalar expressions ----------------------

/// Render an expression on one line, truncated to [`INLINE_WIDTH`].
fn inline(expr: &PlanExpr) -> String {
    let mut text = inline_untruncated(expr);
    if text.chars().count() > INLINE_WIDTH {
        text = text.chars().take(INLINE_WIDTH - 1).collect();
        text.push('…');
    }
    text
}

fn inline_untruncated(expr: &PlanExpr) -> String {
    match expr {
        PlanExpr::Str(s) => format!("{s:?}"),
        PlanExpr::Num(n) => crate::result::format_number(*n),
        PlanExpr::Empty => "()".to_string(),
        PlanExpr::Var(v) => format!("${v}"),
        PlanExpr::Sequence(parts) => format!("({})", join_inline(parts, ", ")),
        PlanExpr::Or(parts) => join_inline(parts, " or "),
        PlanExpr::And(parts) => join_inline(parts, " and "),
        PlanExpr::Cmp(op, a, b) => format!(
            "{} {} {}",
            inline_untruncated(a),
            op.symbol(),
            inline_untruncated(b)
        ),
        PlanExpr::Arith(op, a, b) => format!(
            "{} {} {}",
            inline_untruncated(a),
            op.symbol(),
            inline_untruncated(b)
        ),
        PlanExpr::Neg(e) => format!("-{}", inline_untruncated(e)),
        PlanExpr::Before(a, b) => {
            format!("{} << {}", inline_untruncated(a), inline_untruncated(b))
        }
        PlanExpr::Call(name, args) => format!("{name}({})", join_inline(args, ", ")),
        PlanExpr::Element(ctor) => inline_ctor(ctor),
        PlanExpr::Some {
            bindings,
            satisfies,
        } => {
            let bound = bindings
                .iter()
                .map(|(v, e)| format!("${v} in {}", inline_untruncated(e)))
                .collect::<Vec<_>>()
                .join(", ");
            format!("some {bound} satisfies {}", inline_untruncated(satisfies))
        }
        PlanExpr::Path(p) => path_inline(p),
        PlanExpr::Aggregate(a) => format!("count({}//{})", path_inline(&a.input), a.tag),
        PlanExpr::Flwor(f) => format!("flwor(… return {})", inline_untruncated(&f.ret)),
        PlanExpr::Lookup(l) => format!("lookup({}, {})", path_inline(&l.source), lookup_bounds(l)),
    }
}

/// `key op outer`, and ` and key op outer` for a second bound.
fn lookup_bounds(l: &LookupPlan) -> String {
    let bound = |key: &PlanExpr, op: crate::ast::CmpOp, outer: &PlanExpr| {
        format!(
            "{} {} {}",
            inline_untruncated(key),
            op.symbol(),
            inline(outer)
        )
    };
    let mut text = bound(&l.key, l.op, &l.outer);
    if let Some(b) = &l.second {
        text.push_str(" and ");
        text.push_str(&bound(&b.key, b.op, &b.outer));
    }
    text
}

fn join_inline(parts: &[PlanExpr], sep: &str) -> String {
    parts
        .iter()
        .map(inline_untruncated)
        .collect::<Vec<_>>()
        .join(sep)
}

fn inline_ctor(ctor: &PlanElement) -> String {
    let mut out = format!("<{}", ctor.tag);
    for (name, parts) in &ctor.attrs {
        out.push_str(&format!(" {name}=\""));
        for p in parts {
            match p {
                PlanAttrPart::Lit(s) => out.push_str(s),
                PlanAttrPart::Expr(e) => out.push_str(&format!("{{{}}}", inline_untruncated(e))),
            }
        }
        out.push('"');
    }
    if ctor.content.is_empty() {
        out.push_str("/>");
        return out;
    }
    out.push('>');
    for c in &ctor.content {
        match c {
            PlanContent::Text(t) => out.push_str(t.trim()),
            PlanContent::Expr(e) => out.push_str(&format!("{{{}}}", inline_untruncated(e))),
            PlanContent::Element(nested) => out.push_str(&inline_ctor(nested)),
        }
    }
    out.push_str(&format!("</{}>", ctor.tag));
    out
}
