//! Abstract syntax for the XQuery subset of the benchmark.
//!
//! The subset is exactly what the twenty XMark queries (§6 of the paper)
//! need: FLWOR expressions, rooted and relative path expressions with
//! child/descendant/attribute axes and positional or boolean predicates,
//! element constructors with attribute-value templates, quantified
//! expressions (`some … satisfies`), the node-order comparison `<<`
//! (Q4's `BEFORE`), arithmetic, general comparisons, the core function
//! library and user-defined functions (Q18).

/// A complete query: optional function declarations plus a body.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `declare function local:name($p1, …) { body };` declarations.
    pub functions: Vec<FunctionDecl>,
    /// The query body.
    pub body: Expr,
}

/// A user-defined function (Q18's currency conversion).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Function name, including the `local:` prefix.
    pub name: String,
    /// Parameter names (without `$`).
    pub params: Vec<String>,
    /// Function body.
    pub body: Expr,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// FLWOR expression.
    Flwor(Box<Flwor>),
    /// Logical disjunction (n-ary).
    Or(Vec<Expr>),
    /// Logical conjunction (n-ary).
    And(Vec<Expr>),
    /// General comparison with existential sequence semantics.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// A path: a base expression followed by navigation steps.
    Path {
        /// Where navigation starts.
        base: PathBase,
        /// The steps, applied left to right.
        steps: Vec<Step>,
    },
    /// Variable reference `$x`.
    Var(String),
    /// String literal.
    Str(String),
    /// Numeric literal.
    Num(f64),
    /// Function call (built-in or user-defined).
    Call(String, Vec<Expr>),
    /// Direct element constructor.
    Element(Box<ElementCtor>),
    /// `some $x in e, … satisfies cond`.
    Some {
        /// The quantified bindings.
        bindings: Vec<(String, Expr)>,
        /// The condition.
        satisfies: Box<Expr>,
    },
    /// Node-order comparison `a << b` ("a occurs before b").
    Before(Box<Expr>, Box<Expr>),
    /// Comma sequence.
    Sequence(Vec<Expr>),
    /// Empty parentheses `()`.
    Empty,
}

impl Expr {
    /// Call `f` on each direct sub-expression, in source order: path
    /// bases and step predicates, FLWOR clauses, `where`, order key and
    /// return, and a constructor's attribute templates and content,
    /// nested constructors flattened. The one statement of the syntax
    /// tree's shape for every read-only walk that treats children alike
    /// (the planner's variable analysis, Sort collection). Every variant
    /// and field is matched by name, so a new one does not compile until
    /// it is visited.
    pub(crate) fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match self {
            Expr::Str(_) | Expr::Num(_) | Expr::Empty | Expr::Var(_) => {}
            Expr::Or(parts) | Expr::And(parts) | Expr::Sequence(parts) | Expr::Call(_, parts) => {
                parts.iter().for_each(f)
            }
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::Before(a, b) => {
                f(a);
                f(b);
            }
            Expr::Neg(inner) => f(inner),
            Expr::Path { base, steps } => {
                match base {
                    PathBase::Expr(e) => f(e),
                    PathBase::Root | PathBase::Var(_) | PathBase::Context => {}
                }
                for Step {
                    axis: _,
                    test: _,
                    preds,
                } in steps
                {
                    for pred in preds {
                        match pred {
                            Pred::Expr(e) => f(e),
                            Pred::Position(_) | Pred::Last => {}
                        }
                    }
                }
            }
            Expr::Flwor(flwor) => {
                let Flwor {
                    clauses,
                    where_clause,
                    order_by,
                    ret,
                } = &**flwor;
                for clause in clauses {
                    let (Clause::For(_, e) | Clause::Let(_, e)) = clause;
                    f(e);
                }
                where_clause.iter().for_each(&mut *f);
                if let Some((key, _ascending)) = order_by {
                    f(key);
                }
                f(ret);
            }
            Expr::Some {
                bindings,
                satisfies,
            } => {
                bindings.iter().for_each(|(_, e)| f(e));
                f(satisfies);
            }
            Expr::Element(ctor) => ctor.for_each_child(f),
        }
    }
}

/// Where a path expression starts.
#[derive(Debug, Clone, PartialEq)]
pub enum PathBase {
    /// `document("…")` or a leading `/`: the document root.
    Root,
    /// A variable binding.
    Var(String),
    /// The predicate context item (relative paths inside `[...]`).
    Context,
    /// An arbitrary parenthesized expression.
    Expr(Box<Expr>),
}

/// One navigation step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicates, applied in order.
    pub preds: Vec<Pred>,
}

/// Supported axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/tag`
    Child,
    /// `//tag`
    Descendant,
    /// `/@name`
    Attribute,
}

/// Node tests.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// A tag name.
    Tag(String),
    /// `*`
    Wildcard,
    /// `text()`
    Text,
}

/// A step predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `[3]` — 1-based position among the step's results.
    Position(usize),
    /// `[last()]`.
    Last,
    /// `[expr]` — effective-boolean-value filter.
    Expr(Expr),
}

/// Comparison operators (general comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator as written.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Which side of `b` an ordered `a op b` puts `a`: `Less` for `<`
    /// and `<=`, `Greater` for `>` and `>=`, `None` for `=` and `!=`.
    /// Two comparisons of one key with opposite directions bound it
    /// from both sides.
    pub fn direction(self) -> Option<std::cmp::Ordering> {
        match self {
            CmpOp::Lt | CmpOp::Le => Some(std::cmp::Ordering::Less),
            CmpOp::Gt | CmpOp::Ge => Some(std::cmp::Ordering::Greater),
            CmpOp::Eq | CmpOp::Ne => None,
        }
    }

    /// The operator with its operands swapped: `a op b` is
    /// `b op.mirrored() a`.
    pub fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            symmetric => symmetric,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
}

impl ArithOp {
    /// The operator as written.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::Mod => "mod",
        }
    }
}

/// FLWOR internals.
#[derive(Debug, Clone, PartialEq)]
pub struct Flwor {
    /// `for`/`let` clauses, in source order.
    pub clauses: Vec<Clause>,
    /// Optional `where`.
    pub where_clause: Option<Expr>,
    /// Optional `order by` key and direction (`true` = ascending).
    pub order_by: Option<(Expr, bool)>,
    /// The `return` expression.
    pub ret: Expr,
}

/// A `for` or `let` binding.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `for $v in expr` — iterates item by item.
    For(String, Expr),
    /// `let $v := expr` — binds the whole sequence.
    Let(String, Expr),
}

impl Clause {
    /// The variable the clause binds.
    pub fn var(&self) -> &str {
        let (Clause::For(v, _) | Clause::Let(v, _)) = self;
        v
    }
}

/// A direct element constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementCtor {
    /// Tag name.
    pub tag: String,
    /// Attributes; each value is a template of literal and `{expr}` parts.
    pub attrs: Vec<(String, Vec<AttrPart>)>,
    /// Content items in order.
    pub content: Vec<Content>,
}

impl ElementCtor {
    /// Attribute-template and content expressions, nested constructors
    /// flattened: the constructor's part of [`Expr::for_each_child`].
    fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        let ElementCtor {
            tag: _,
            attrs,
            content,
        } = self;
        for part in attrs.iter().flat_map(|(_, parts)| parts) {
            match part {
                AttrPart::Expr(e) => f(e),
                AttrPart::Lit(_) => {}
            }
        }
        for c in content {
            match c {
                Content::Expr(e) => f(e),
                Content::Element(nested) => nested.for_each_child(f),
                Content::Text(_) => {}
            }
        }
    }
}

/// Part of an attribute-value template.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrPart {
    /// Literal text.
    Lit(String),
    /// `{expr}` — atomized and concatenated.
    Expr(Expr),
}

/// Element-constructor content.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// Literal text.
    Text(String),
    /// `{expr}` — the items are copied into the element.
    Expr(Expr),
    /// A nested constructor.
    Element(ElementCtor),
}
