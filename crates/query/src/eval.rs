//! The plan executor.
//!
//! The evaluator walks a [`PhysicalPlan`] produced by the compile-time
//! planner ([`crate::planner`]). It contains **no strategy decisions**:
//! which `for` clause probes a Lookup index, where predicates are
//! filtered, and which store access path answers a step were all chosen
//! when the query was compiled and are visible via [`crate::explain`].
//! What remains here is mechanism:
//!
//! * operator execution — the pipelining operators (PathScan, NestedLoop,
//!   Project) run as pull-based cursors defined in
//!   [`crate::stream`](mod@crate::stream); this module supplies the
//!   shared per-context mechanics they call into (step expansion,
//!   predicate application, order keys, and the Lookup's sorted key
//!   index, where each of `= < <= > >=` is a binary-searched range that
//!   agrees with the general comparison pair for pair),
//! * per-execution memos (loop-invariant path materialization, Lookup
//!   indexes) keyed by the signatures the planner computed,
//! * graceful fallbacks where a plan annotation turns out not to cover a
//!   node (an un-inlined value, an unsupported positional probe) — the
//!   generic cursor path always remains correct.
//!
//! One evaluation protocol: `Cursor::build` is the only way an
//! expression produces items, and `Evaluator::eval_ebv` the only way it
//! answers a boolean. Paths, FLWORs and comma sequences stream; scalar
//! forms (comparisons, arithmetic, calls, constructors, quantifiers,
//! Aggregate, Lookup) compute their value when their cursor opens.
//! Consumers that fold every item — comparison keys, arithmetic
//! operands, function arguments, constructor content, and every place
//! that needs a [`Sequence`] — pull the cursor `Evaluator::items` opens
//! with the `materializing` flag, so a path may pay its one-time index
//! builds at open. Boolean contexts (where-filters, predicates,
//! quantifiers, `and`/`or`, comparisons) pull at most two items from a
//! streaming cursor instead of draining it; `not()` drains through the
//! same code.

use std::any::Any;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use xmark_store::{ChildValues, IndexManager, Node, XmlStore};

use crate::ast::{ArithOp, Axis, CmpOp, NodeTest};
use crate::plan::*;
use crate::result::{atomize, atomized, format_number, number, xs_double, CElem, Item, Sequence};
use crate::stream::{flwor_cursor, open_path, Cursor, Items};

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Reference to an unbound variable.
    UndefinedVariable(String),
    /// Call to an unknown function.
    UnknownFunction(String),
    /// `zero-or-one` applied to a longer sequence.
    Cardinality(&'static str),
    /// A path step applied to a constructed element or atomic.
    PathOverNonNode,
    /// A syntactically valid step form the evaluator does not implement
    /// (`@*`, `@text()`). Carries the offending step's rendering.
    UnsupportedStep(String),
    /// Relative path with no context item.
    NoContext,
    /// Wrong number of arguments to a function.
    Arity(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UndefinedVariable(v) => write!(f, "undefined variable ${v}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function {n}()"),
            EvalError::Cardinality(what) => write!(f, "cardinality violation in {what}"),
            EvalError::PathOverNonNode => write!(f, "path step applied to a non-node item"),
            EvalError::UnsupportedStep(step) => {
                write!(f, "unsupported path step {step}")
            }
            EvalError::NoContext => write!(f, "relative path without a context item"),
            EvalError::Arity(n) => write!(f, "wrong number of arguments to {n}()"),
        }
    }
}

impl std::error::Error for EvalError {}

pub(crate) type EResult<T> = Result<T, EvalError>;

/// A Lookup operator's index over its source, for one execution: the
/// source items, plus two sides of sorted keys — the ones a number
/// probes and the ones any other item probes — so that each operator's
/// matches for one outer item are ranges of sorted lists, found by
/// binary search. The ranges reproduce [`general_compare`] pair for
/// pair: two numbers compare as numbers, anything else as text. Each
/// side is its own store-resident value slot, built by the first probe
/// that needs it: a selection by a number (Q5, Q12, Q20) never builds
/// the text side, and a join on ids (Q8–Q10) never builds the number
/// side.
struct KeyIndex {
    /// The source items, in source order; shared with the source's
    /// loop-invariant path memo.
    items: Arc<Sequence>,
    /// The number side, once a probe has needed it.
    numbers: OnceLock<Arc<NumberKeys>>,
    /// The text side, once a probe has needed it.
    texts: OnceLock<Arc<TextKeys>>,
}

/// The side of a [`KeyIndex`] that a number probes.
struct NumberKeys {
    /// The numeric keys by value (`-0` sorts apart from `0` but compares
    /// equal to it), with their source positions. NaN, which compares
    /// false with every number, is left out.
    nums: Vec<(f64, u32)>,
    /// The trimmed texts of the keys that are not numbers, in string
    /// order, with their source positions: a number compares with these
    /// as its [`format_number`] text.
    words: Vec<(Box<str>, u32)>,
}

impl NumberKeys {
    /// Append the source positions whose key satisfies `key op outer`,
    /// where `outer` holds the number `x`.
    fn probe(&self, op: CmpOp, x: f64, outer: &CmpKey<'_>, out: &mut Vec<u32>) {
        if !x.is_nan() {
            let cmp = |k: &(f64, u32)| k.0.partial_cmp(&x).unwrap_or(Ordering::Equal);
            for r in op_ranges(&self.nums, op, cmp) {
                out.extend(self.nums[r].iter().map(|k| k.1));
            }
        }
        if !self.words.is_empty() {
            let text = outer.text();
            for r in op_ranges(&self.words, op, |k| (*k.0).cmp(&text)) {
                out.extend(self.words[r].iter().map(|k| k.1));
            }
        }
    }

    /// Approximate resident bytes, for the store's index accounting.
    fn size_bytes(&self) -> usize {
        let words: usize = self.words.iter().map(|k| k.0.len() + 24).sum();
        self.nums.len() * 16 + words + 64
    }
}

/// The side of a [`KeyIndex`] that any item but a number probes: it
/// compares as text with every key.
struct TextKeys {
    /// Every key's trimmed text (a number's is its [`format_number`]
    /// rendering) in string order, with its source position.
    texts: Vec<(Box<str>, u32)>,
    /// Each distinct text's run in `texts`. An equality probe — every
    /// probe of Q8–Q10 — hashes instead of searching: a binary search
    /// made Q8 and Q9 up to 7 % slower.
    runs: HashMap<Box<str>, Range<usize>>,
}

impl TextKeys {
    /// Append the source positions whose key satisfies `key op text`.
    fn probe(&self, op: CmpOp, text: &str, out: &mut Vec<u32>) {
        let ranges = match op {
            CmpOp::Eq => [self.runs.get(text).cloned().unwrap_or_default(), 0..0],
            _ => op_ranges(&self.texts, op, |k| (*k.0).cmp(text)),
        };
        for r in ranges {
            out.extend(self.texts[r].iter().map(|k| k.1));
        }
    }

    /// Approximate resident bytes, for the store's index accounting.
    fn size_bytes(&self) -> usize {
        let texts: usize = self.texts.iter().map(|k| k.0.len() + 24).sum();
        let runs: usize = self.runs.keys().map(|k| k.len() + 48).sum();
        texts + runs + 64
    }
}

/// The ranges of `sorted` — ascending, `cmp` giving each key's order
/// against the outer value — whose keys satisfy `key op outer`: one
/// range, or two for `!=`. One binary search each; `=` walks its run
/// of equal keys, which it returns anyway.
fn op_ranges<T>(sorted: &[T], op: CmpOp, cmp: impl Fn(&T) -> Ordering) -> [Range<usize>; 2] {
    let below = || sorted.partition_point(|k| cmp(k) == Ordering::Less);
    let upto = || sorted.partition_point(|k| cmp(k) != Ordering::Greater);
    let end = sorted.len();
    let none = end..end;
    match op {
        CmpOp::Eq => {
            let lo = below();
            let run = sorted[lo..]
                .iter()
                .take_while(|k| cmp(k) == Ordering::Equal);
            [lo..lo + run.count(), none]
        }
        CmpOp::Ne => [0..below(), upto()..end],
        CmpOp::Lt => [0..below(), none],
        CmpOp::Le => [0..upto(), none],
        CmpOp::Gt => [upto()..end, none],
        CmpOp::Ge => [below()..end, none],
    }
}

/// Variable environment with lexical scoping, borrowing its names from
/// the plan (`'a`).
///
/// A persistent list: each binding is one reference-counted [`Frame`]
/// that points at the scope it extends. A frame holds its value inline —
/// one item for a `for`, quantifier or join binding, the whole sequence
/// for a `let` or a function parameter — so binding copies nothing.
/// Cloning an environment (every operator cursor owns one) is one count
/// bump, and `$x` read by a cursor or a path base shares the frame
/// instead of copying its items. `Arc`, not `Rc`, keeps a
/// [`crate::ResultStream`] `Send`.
#[derive(Default, Clone)]
pub(crate) struct Env<'a> {
    top: Option<Arc<Frame<'a>>>,
}

/// One binding of an [`Env`], and the scope it extends.
pub(crate) struct Frame<'a> {
    name: &'a str,
    value: Bound,
    up: Option<Arc<Frame<'a>>>,
}

/// A bound value: a single item needs no vector.
pub(crate) enum Bound {
    One(Item),
    Seq(Sequence),
}

impl Frame<'_> {
    /// The bound items.
    pub(crate) fn items(&self) -> &[Item] {
        match &self.value {
            Bound::One(item) => std::slice::from_ref(item),
            Bound::Seq(seq) => seq,
        }
    }
}

impl<'a> Env<'a> {
    pub(crate) fn push(&mut self, name: &'a str, value: Bound) {
        let up = self.top.take();
        self.top = Some(Arc::new(Frame { name, value, up }));
    }

    pub(crate) fn pop(&mut self) {
        if let Some(top) = self.top.take() {
            self.top = match Arc::try_unwrap(top) {
                Ok(frame) => frame.up,
                Err(shared) => shared.up.clone(),
            };
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<&Arc<Frame<'a>>> {
        let mut frame = self.top.as_ref();
        while let Some(f) = frame {
            if f.name == name {
                return Some(f);
            }
            frame = f.up.as_ref();
        }
        None
    }
}

/// The executor, bound to one store and one physical plan's functions.
pub(crate) struct Evaluator<'a> {
    pub(crate) store: &'a dyn XmlStore,
    /// The store's persistent index subsystem: shared element postings
    /// (indexed counts), the `@id` attribute index, and the
    /// cross-execution value indexes the Lookup operator probes.
    indexes: &'a IndexManager,
    /// Whether this execution consults (and feeds) the shared value
    /// indexes: only optimized plans do. Naive-mode executions stay fully
    /// independent of every shared structure, so the planned-vs-naive
    /// oracles compare two genuinely separate evaluations — the
    /// specification must never replay the implementation's cached
    /// results. The per-execution memos below remain as a lock-free
    /// first level either way.
    shared_values: bool,
    functions: HashMap<&'a str, &'a PlanFunction>,
    /// Per-execution (L1) memo for loop-invariant absolute paths — the
    /// materialization every system in the paper performs before joining.
    /// Filled when a [`Cursor::Tee`] drains to the end or a store-resident
    /// (L2) `path|` slot is hit; every later open of the path replays it
    /// ([`crate::stream::open_path`]).
    path_cache: RefCell<HashMap<String, Arc<Sequence>>>,
    /// Per-execution (L1) memo for Lookup indexes, keyed by the planner's
    /// signatures: the source items and the sides fetched so far. Each
    /// side comes from the store-resident value indexes (L2) when those
    /// are enabled, so after warmup an execution performs zero builds —
    /// only probes.
    index_cache: RefCell<HashMap<&'a str, Arc<KeyIndex>>>,
    /// Per-execution memo of resolved child-value indexes by tag, peek
    /// misses (`None`) included, so the per-open resolution never
    /// touches the manager's locks on the hot path.
    child_values_cache: RefCell<HashMap<String, Option<Arc<ChildValues>>>>,
    /// Items pulled through operator cursors (path-step expansions and
    /// clause bindings). The probe behind the early-termination tests:
    /// `exists()`/`take(n)` must pull strictly fewer items than a full
    /// evaluation.
    pulls: Cell<u64>,
}

impl<'a> Evaluator<'a> {
    /// Create an executor for `plan` against `store`.
    pub(crate) fn new(store: &'a dyn XmlStore, plan: &'a PhysicalPlan) -> Self {
        Evaluator {
            store,
            indexes: store.indexes(),
            shared_values: plan.mode == crate::plan::PlanMode::Optimized,
            functions: plan
                .functions
                .iter()
                .map(|f| (f.name.as_str(), f))
                .collect(),
            path_cache: RefCell::new(HashMap::new()),
            index_cache: RefCell::new(HashMap::new()),
            child_values_cache: RefCell::new(HashMap::new()),
            pulls: Cell::new(0),
        }
    }

    /// Items pulled through operator cursors so far (see
    /// [`crate::stream::ResultStream::pulls`]).
    pub(crate) fn pulls(&self) -> u64 {
        self.pulls.get()
    }

    /// Record `n` items pulled through an operator cursor.
    pub(crate) fn count_pulls(&self, n: u64) {
        self.pulls.set(self.pulls.get() + n);
    }

    /// The items of `expr`, pulled one at a time by a consumer that folds
    /// every one of them: comparison keys, arithmetic operands, function
    /// arguments, constructor content, and every `Sequence` the executor
    /// needs. The cursor opens `materializing`, so a memoized path's
    /// complete drain publishes it.
    pub(crate) fn items<'e>(
        &'e self,
        expr: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> Items<'e, 'a> {
        Cursor::build(self, expr, env, ctx, true).iter(self)
    }

    /// Effective boolean value of `expr`, short-circuiting: this pulls at
    /// most two items from the operand's cursor instead of draining it —
    /// an existential predicate like `[bidder]` stops at the first child.
    ///
    /// Consequence (shared with the `exists`/`empty` fast paths and
    /// permitted by XQuery's errors-and-optimization rules): an
    /// evaluation error lurking in the *un-pulled tail* of the operand is
    /// never raised — `exists((/site/a, $undefined))` answers `true`
    /// from the first item without touching `$undefined`. Pinned by
    /// `short_circuits_skip_errors_in_unpulled_tails`.
    pub(crate) fn eval_ebv(
        &self,
        expr: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<bool> {
        match expr {
            PlanExpr::Or(parts) => {
                for p in parts {
                    if self.eval_ebv(p, env, ctx)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            PlanExpr::And(parts) => {
                for p in parts {
                    if !self.eval_ebv(p, env, ctx)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            // Both operands are keyed in full, left first: no early exit,
            // so pull counts and the error reported do not depend on which
            // pair matches.
            PlanExpr::Cmp(op, lhs, rhs) => {
                let mut sides = [InlineOne::default(), InlineOne::default()];
                for (keys, side) in sides.iter_mut().zip([lhs, rhs]) {
                    match &**side {
                        // A literal is keyed in place, with no cursor.
                        PlanExpr::Num(n) => keys.push(CmpKey::Num(*n)),
                        PlanExpr::Str(s) => keys.push(CmpKey::from_text(Cow::Borrowed(s))),
                        side => {
                            for item in self.items(side, env, ctx) {
                                keys.push(CmpKey::of(self.store, item?));
                            }
                        }
                    }
                }
                let [l, r] = &sides;
                Ok(general_compare(*op, l.as_slice(), r.as_slice()))
            }
            PlanExpr::Call(name, args) => match self.bool_call(name, args, env, ctx) {
                Some(answer) => answer,
                None => self.ebv_of(Cursor::build(self, expr, env, ctx, false), false),
            },
            // `order by` cannot change whether any tuple exists, so the
            // EBV cursor for a FLWOR skips the Sort buffer entirely.
            PlanExpr::Flwor(f) => self.ebv_of(flwor_cursor(f, env, ctx, true), false),
            _ => self.ebv_of(Cursor::build(self, expr, env, ctx, false), false),
        }
    }

    /// The effective boolean value of the items `cur` yields. It pulls at
    /// most two, or, with `drain`, every item, as `not()` does.
    fn ebv_of(&self, mut cur: Cursor<'a>, drain: bool) -> EResult<bool> {
        let Some(first) = cur.next(self).transpose()? else {
            return Ok(false);
        };
        // A node first, or a second item of any kind, makes the sequence
        // true; a singleton atom follows the atomic EBV rules.
        let answer = match first {
            Item::Node(_) | Item::Elem(_) => true,
            _ if cur.next(self).transpose()?.is_some() => true,
            Item::Bool(b) => b,
            Item::Num(n) => n != 0.0 && !n.is_nan(),
            Item::Str(s) => !s.is_empty(),
        };
        if drain {
            for item in cur.iter(self) {
                item?;
            }
        }
        Ok(answer)
    }

    /// The frame binding `$name`.
    pub(crate) fn binding<'e>(&self, env: &'e Env<'a>, name: &str) -> EResult<&'e Arc<Frame<'a>>> {
        env.get(name)
            .ok_or_else(|| EvalError::UndefinedVariable(name.to_string()))
    }

    /// The numeric value of `expr` if it is exactly one item that has one
    /// (the operand rule of arithmetic).
    pub(crate) fn singleton_number(
        &self,
        expr: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Option<f64>> {
        let mut items = self.items(expr, env, ctx);
        let only = items.next().transpose()?;
        let mut more = false;
        for item in items {
            item?;
            more = true;
        }
        Ok(only
            .filter(|_| !more)
            .and_then(|item| number(self.store, &item)))
    }

    /// Arithmetic: empty unless both operands are single numbers.
    pub(crate) fn arith(
        &self,
        op: ArithOp,
        lhs: &'a PlanExpr,
        rhs: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Option<Item>> {
        let l = self.singleton_number(lhs, env, ctx)?;
        let r = self.singleton_number(rhs, env, ctx)?;
        let (Some(a), Some(b)) = (l, r) else {
            return Ok(None);
        };
        Ok(Some(Item::Num(match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Mod => a % b,
        })))
    }

    /// `lhs << rhs`: whether some node of `lhs` precedes some node of
    /// `rhs`, i.e. the earliest of the first before the latest of the
    /// second.
    pub(crate) fn before(
        &self,
        lhs: &'a PlanExpr,
        rhs: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<bool> {
        // Compare order *keys*, not raw ids: MVCC snapshots number
        // inserted nodes above the base range but interleave them by rank.
        let mut order_keys = |side: &'a PlanExpr| -> EResult<Vec<_>> {
            let mut keys = Vec::new();
            for item in self.items(side, env, ctx) {
                if let Item::Node(n) = item? {
                    keys.push(self.store.doc_order_key(n));
                }
            }
            Ok(keys)
        };
        let earliest = order_keys(lhs)?.into_iter().min();
        let latest = order_keys(rhs)?.into_iter().max();
        Ok(matches!((earliest, latest), (Some(a), Some(b)) if a < b))
    }

    /// The at most one item of `expr`: pulls at most two, and a second
    /// is a cardinality error in `what`.
    fn zero_or_one(
        &self,
        what: &'static str,
        expr: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Option<Item>> {
        let mut items = self.items(expr, env, ctx);
        let first = items.next().transpose()?;
        if first.is_some() && items.next().transpose()?.is_some() {
            return Err(EvalError::Cardinality(what));
        }
        Ok(first)
    }

    // ---- FLWOR support ---------------------------------------------------

    /// The Lookup operator: the source items whose key compares true
    /// against any item of the outer expression (and against any item of
    /// the second bound's, if there is one) — in source order, each
    /// once. Blocking: the index sides a probe needs are built (or
    /// fetched) before it. Over an empty source the outer expression is
    /// never evaluated, as the nested loop never evaluates its `where`.
    pub(crate) fn lookup(
        &self,
        l: &'a LookupPlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Sequence> {
        let index = self.key_index(l, env, ctx)?;
        if index.items.is_empty() {
            return Ok(Vec::new());
        }
        let mut matched = self.probe(l, &index, l.op, &l.outer, env, ctx)?;
        if let Some(second) = l.second.as_ref().filter(|_| !matched.is_empty()) {
            // Each bound is existential on its own: intersect positions,
            // not keys.
            let within = self.probe(l, &index, second.op, &second.outer, env, ctx)?;
            matched.retain(|pos| within.binary_search(pos).is_ok());
        }
        Ok(matched
            .into_iter()
            .map(|pos| index.items[pos as usize].clone())
            .collect())
    }

    /// The sorted, distinct source positions whose key satisfies
    /// `key op o` for some item `o` of `outer`.
    fn probe(
        &self,
        l: &'a LookupPlan,
        index: &KeyIndex,
        op: CmpOp,
        outer: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Vec<u32>> {
        let mut matched: Vec<u32> = Vec::new();
        for item in self.items(outer, env, ctx) {
            let outer = CmpKey::of(self.store, item?);
            match outer.num() {
                Some(x) => self
                    .number_keys(l, index, env, ctx)?
                    .probe(op, x, &outer, &mut matched),
                None => self
                    .text_keys(l, index, env, ctx)?
                    .probe(op, &outer.text(), &mut matched),
            }
        }
        matched.sort_unstable();
        matched.dedup();
        Ok(matched)
    }

    /// This execution's index over `l`'s source (the per-execution memo,
    /// L1, lock-free), its sides not yet fetched.
    fn key_index(
        &self,
        l: &'a LookupPlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Arc<KeyIndex>> {
        if let Some(cached) = self.index_cache.borrow().get(l.sig.as_str()) {
            return Ok(Arc::clone(cached));
        }
        let items = match open_path(self, &l.source, env, ctx, true) {
            Cursor::Shared(items, _) => items,
            walk => {
                let items = walk.iter(self).collect::<EResult<Sequence>>()?;
                // The complete drain published a memoized source: share
                // the memo's copy.
                let memo = l.source.memo.as_deref();
                memo.and_then(|sig| self.cached_path(sig))
                    .unwrap_or_else(|| Arc::new(items))
            }
        };
        let index = Arc::new(KeyIndex {
            items,
            numbers: OnceLock::new(),
            texts: OnceLock::new(),
        });
        self.index_cache
            .borrow_mut()
            .insert(l.sig.as_str(), Arc::clone(&index));
        Ok(index)
    }

    /// The number side of `index`, fetched from — or built exactly once
    /// into — the store-resident value slot `num|{sig}` (L2,
    /// [`IndexManager`]), so that after warmup repeated executions and
    /// every worker of a service pool probe one shared structure, and
    /// Lookups over the same source and key (Q11's and Q12's, Q20's
    /// three bands) share it.
    fn number_keys<'i>(
        &self,
        l: &'a LookupPlan,
        index: &'i KeyIndex,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<&'i NumberKeys> {
        if let Some(side) = index.numbers.get() {
            return Ok(side);
        }
        let side = self.key_side(&format!("num|{}", l.sig), || {
            let mut nums = Vec::new();
            let mut words = Vec::new();
            self.each_key(l, &index.items, env, ctx, |key, pos| match key.num() {
                Some(n) if n.is_nan() => {}
                Some(n) => nums.push((n, pos)),
                None => words.push((Box::<str>::from(key.text()), pos)),
            })?;
            nums.sort_by(|a, b| a.0.total_cmp(&b.0));
            words.sort_by(|a, b| a.0.cmp(&b.0));
            let side = NumberKeys { nums, words };
            let bytes = side.size_bytes();
            Ok((side, bytes))
        })?;
        Ok(index.numbers.get_or_init(|| side))
    }

    /// The text side of `index`, in the value slot `txt|{sig}` (see
    /// [`Evaluator::number_keys`]).
    fn text_keys<'i>(
        &self,
        l: &'a LookupPlan,
        index: &'i KeyIndex,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<&'i TextKeys> {
        if let Some(side) = index.texts.get() {
            return Ok(side);
        }
        let side = self.key_side(&format!("txt|{}", l.sig), || {
            let mut texts = Vec::new();
            self.each_key(l, &index.items, env, ctx, |key, pos| {
                texts.push((Box::<str>::from(key.text()), pos));
            })?;
            texts.sort_by(|a, b| a.0.cmp(&b.0));
            let mut runs: HashMap<Box<str>, Range<usize>> = HashMap::new();
            for (i, (text, _)) in texts.iter().enumerate() {
                runs.entry(text.clone()).or_insert(i..i).end = i + 1;
            }
            let side = TextKeys { texts, runs };
            let bytes = side.size_bytes();
            Ok((side, bytes))
        })?;
        Ok(index.texts.get_or_init(|| side))
    }

    /// The value slot `slot`, built by `build` on its first use. Only
    /// optimized plans hold Lookups, so the slot is always shared.
    fn key_side<T: Any + Send + Sync>(
        &self,
        slot: &str,
        build: impl FnOnce() -> EResult<(T, usize)>,
    ) -> EResult<Arc<T>> {
        let erased = self.indexes.value_or_build(slot, || {
            let (side, bytes) = build()?;
            Ok::<_, EvalError>((Arc::new(side) as Arc<dyn Any + Send + Sync>, bytes))
        })?;
        Ok(erased
            .downcast::<T>()
            // lint: allow(R1) the slot names "num|…" and "txt|…" are
            // written only here, each with one side type
            .expect("a key-index slot holds its side"))
    }

    /// Call `each` with every key of `l` over `items` — the key evaluated
    /// with the clause variable bound to each item — and the item's
    /// source position.
    fn each_key(
        &self,
        l: &'a LookupPlan,
        items: &Sequence,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
        mut each: impl FnMut(CmpKey<'a>, u32),
    ) -> EResult<()> {
        for (pos, item) in items.iter().enumerate() {
            env.push(&l.var, Bound::One(item.clone()));
            let keys = self.items(&l.key, env, ctx);
            env.pop();
            for key in keys {
                each(CmpKey::of(self.store, key?), pos as u32);
            }
        }
        Ok(())
    }

    /// Evaluate the Sort operator's key for the current tuple: at most
    /// one item.
    pub(crate) fn order_key(
        &self,
        f: &'a FlworPlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Option<OrderKey>> {
        let Some((key_expr, _)) = &f.order_by else {
            return Ok(None);
        };
        let key = self.zero_or_one("order by", key_expr, env, ctx)?;
        Ok(key.map(|item| {
            let text = atomize(self.store, &item);
            let num = xs_double(text.trim());
            OrderKey { text, num }
        }))
    }

    pub(crate) fn eval_some(
        &self,
        bindings: &'a [(String, PlanExpr)],
        depth: usize,
        satisfies: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<bool> {
        if depth == bindings.len() {
            return self.eval_ebv(satisfies, env, ctx);
        }
        let (var, source) = &bindings[depth];
        // Pull bindings lazily: the quantifier stops at the first witness
        // without draining the binding sequence.
        let mut cur = Cursor::build(self, source, env, ctx, false);
        while let Some(next) = cur.next(self) {
            let item = next?;
            self.count_pulls(1);
            env.push(var, Bound::One(item));
            let found = self.eval_some(bindings, depth + 1, satisfies, env, ctx);
            env.pop();
            if found? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    // ---- PathScan --------------------------------------------------------

    /// The memoized path sequence for `sig`, if already materialized —
    /// this execution (L1) or any earlier one (the store-resident L2).
    ///
    /// The L2 `path|` slot earns its keep. Deleting only the L2 halves
    /// of this method and [`Evaluator::publish_path`] (`perflab run
    /// --workload lookup_mem --seconds 10 --trace 0`, 7 alternating
    /// pairs) read `lat_geo_p50_ms` a median 1.16× worse, two pairs past
    /// its 0.2 bound, and `qps` 0.97×, for `space_ratio` 1.917 against
    /// 1.946 with the memo. The loss is Q15, whose plan is one memoized
    /// path: warm on System E at factor 0.1 it went from 0.035 to
    /// 0.52 ms, and a ~15× rise in one query alone moves the fifteen
    /// queries' geometric mean by 15^(1/15) ≈ 1.20×. A warm Q15 thus
    /// replays its answer; README's scorecard notes that its §7
    /// Q16/Q15 verdict rests on that replay. A Lookup's key index also
    /// takes its source items from this memo.
    pub(crate) fn cached_path(&self, sig: &str) -> Option<Arc<Sequence>> {
        if let Some(cached) = self.path_cache.borrow().get(sig) {
            return Some(Arc::clone(cached));
        }
        if self.shared_values {
            if let Some(erased) = self.indexes.value_if_built(&format!("path|{sig}")) {
                let shared = erased
                    .downcast::<Sequence>()
                    // lint: allow(R1) slot key "path|…" is written only by
                    // cache_path, so the type is fixed by construction
                    .expect("value slot path|… holds a Sequence");
                self.path_cache
                    .borrow_mut()
                    .insert(sig.to_string(), Arc::clone(&shared));
                return Some(shared);
            }
        }
        None
    }

    /// Record a fully materialized loop-invariant path in both memo
    /// levels: a [`Cursor::Tee`] calls this when it drains to completion.
    /// Why the store-wide level stays: [`Evaluator::cached_path`].
    pub(crate) fn publish_path(&self, sig: &str, seq: Arc<Sequence>) {
        self.path_cache
            .borrow_mut()
            .insert(sig.to_string(), Arc::clone(&seq));
        if self.shared_values {
            let bytes = seq.len() * std::mem::size_of::<Item>() + 24;
            let result: Result<_, std::convert::Infallible> =
                self.indexes.value_or_build(&format!("path|{sig}"), || {
                    Ok((Arc::clone(&seq) as Arc<dyn Any + Send + Sync>, bytes))
                });
            let _ = result;
        }
    }

    /// Resolve a root-based path's base nodes and the index of the first
    /// unapplied step (the root base consumes its first step specially:
    /// the first step matches against the root *element* itself).
    pub(crate) fn root_base(
        &self,
        p: &'a PathPlan,
        env: &mut Env<'a>,
    ) -> EResult<(Vec<Node>, usize)> {
        let root = self.store.root();
        let Some(first) = p.steps.first() else {
            return Ok((vec![root], 0));
        };
        let mut nodes = Vec::new();
        match (&first.axis, &first.test) {
            (Axis::Child, NodeTest::Tag(tag)) => {
                if self.store.tag_of(root) == Some(tag) {
                    nodes.push(root);
                }
            }
            (Axis::Descendant, NodeTest::Tag(tag)) => {
                if self.store.tag_of(root) == Some(tag) {
                    nodes.push(root);
                }
                nodes.extend(self.store.descendants_named_iter(root, tag));
            }
            // Rare forms (`/*`, `/@x`): evaluate the step against the
            // root element generically.
            _ => return Ok((vec![root], 0)),
        }
        self.apply_predicates(&mut nodes, &first.preds, env)?;
        Ok((nodes, 1))
    }

    /// The child-value index for `tag`, memoized per execution. `None`
    /// means only a naive plan (no shared values) or, with `build`
    /// false, a peek miss. With `build` false this only *peeks* at an
    /// already-built index — the contract of a streaming cursor open,
    /// which must not pay an extent walk before its first item;
    /// materializing (blocking) consumers pass `build` true and pay the
    /// one-time build where a full drain is already owed.
    pub(crate) fn child_values(&self, tag: &str, build: bool) -> Option<Arc<ChildValues>> {
        if !self.shared_values {
            return None;
        }
        // A remembered peek miss answers only peeks: a materializing
        // consumer still builds, and its build replaces the miss.
        if let Some(cached) = self.child_values_cache.borrow().get(tag) {
            if cached.is_some() || !build {
                return cached.clone();
            }
        }
        let resolved = if build {
            Some(self.indexes.child_values(self.store, tag))
        } else {
            self.indexes.child_values_if_built(tag)
        };
        self.child_values_cache
            .borrow_mut()
            .insert(tag.to_string(), resolved.clone());
        resolved
    }

    /// `…/tag/text()` over inlined columns. Returns `Some` only if *every*
    /// context node could be answered from the entity tables. Answers
    /// follow context order, so the contexts must not nest.
    pub(crate) fn try_inlined_tail(
        &self,
        current: &[Item],
        tag: &str,
    ) -> EResult<Option<Sequence>> {
        let mut out = Vec::new();
        for item in current {
            let Item::Node(n) = item else {
                return Err(EvalError::PathOverNonNode);
            };
            match self.store.typed_child_value(*n, tag) {
                Some(Some(v)) => out.push(Item::str(v)),
                Some(None) => {}
                None => return Ok(None),
            }
        }
        Ok(Some(out))
    }

    /// Execute a planned ID probe: the access path behind every
    /// mass-storage system's Q1. Returns `None` (falling back to the
    /// generic cursor) if the step has no tag test.
    pub(crate) fn id_probe(
        &self,
        current: &[Item],
        step: &'a PlanStep,
        literal: &str,
    ) -> EResult<Option<Sequence>> {
        let NodeTest::Tag(tag) = &step.test else {
            return Ok(None);
        };
        let Some(node) = self.store.lookup_id(literal) else {
            return Ok(Some(Vec::new()));
        };
        // Verify the hit is the right tag and actually below the context.
        if self.store.tag_of(node) != Some(tag) {
            return Ok(Some(Vec::new()));
        }
        let reachable = current.iter().any(|item| match item {
            Item::Node(c) => {
                if *c == self.store.root() {
                    true
                } else {
                    self.store.parent(node) == Some(*c) || {
                        let mut cur = node;
                        let mut found = false;
                        while let Some(p) = self.store.parent(cur) {
                            if p == *c {
                                found = true;
                                break;
                            }
                            cur = p;
                        }
                        found
                    }
                }
            }
            _ => false,
        });
        Ok(Some(if reachable {
            vec![Item::Node(node)]
        } else {
            Vec::new()
        }))
    }

    /// Apply one step to a whole context sequence: per-context expansion
    /// plus document order and set semantics across merged contexts.
    pub(crate) fn apply_step(
        &self,
        current: &[Item],
        step: &'a PlanStep,
        env: &mut Env<'a>,
    ) -> EResult<Sequence> {
        let mut out: Sequence = Vec::new();
        let multi_context = current.len() > 1;
        for item in current {
            let Item::Node(n) = item else {
                return Err(EvalError::PathOverNonNode);
            };
            self.expand_step(*n, step, env, &mut out)?;
        }
        // Document order + set semantics across merged contexts. Node
        // handles are not document order on a snapshot, whose inserted
        // nodes sit above the base id range: sort by the store's key.
        if multi_context && out.iter().all(|i| matches!(i, Item::Node(_))) {
            out.sort_by_cached_key(|i| match i {
                Item::Node(n) => self.store.doc_order_key(*n),
                _ => 0,
            });
            out.dedup();
        }
        Ok(out)
    }

    /// Expand one step for a single context node, appending the matches
    /// to `out` with this context's predicates already applied —
    /// predicates are per-context (positional `[1]` selects within each
    /// node's children, not across the merged output). Shared by the
    /// path cursor's blocking stages (through [`Evaluator::apply_step`])
    /// and its lazy stages (one context at a time).
    pub(crate) fn expand_step(
        &self,
        n: Node,
        step: &'a PlanStep,
        env: &mut Env<'a>,
        out: &mut Sequence,
    ) -> EResult<()> {
        // Where this context node's matches begin.
        let context_start = out.len();
        match (&step.axis, &step.test) {
            (Axis::Attribute, NodeTest::Tag(name)) => {
                out.extend(self.store.attribute(n, name).map(Item::str));
            }
            (Axis::Attribute, test) => {
                // `@*` / `@text()`: a real step form we don't implement —
                // say so, instead of the misleading `PathOverNonNode`.
                let rendered = match test {
                    NodeTest::Wildcard => "@*",
                    NodeTest::Text => "@text()",
                    NodeTest::Tag(_) => unreachable!("handled by the arm above"),
                };
                return Err(EvalError::UnsupportedStep(rendered.to_string()));
            }
            (Axis::Child, NodeTest::Text) => {
                for c in self.store.children_iter(n) {
                    if self.store.is_text_node(c) {
                        out.push(Item::Node(c));
                    }
                }
            }
            (Axis::Child, NodeTest::Wildcard) => {
                for c in self.store.children_iter(n) {
                    if self.store.tag_of(c).is_some() {
                        out.push(Item::Node(c));
                    }
                }
            }
            (Axis::Child, NodeTest::Tag(tag)) => {
                // Planned positional probe (Q2/Q3 on System C), with
                // per-node fallback where the index does not apply.
                if let StepAccess::Positional(spec) = &step.access {
                    if let Some(hit) = self.store.positional_child(n, tag, *spec) {
                        if let Some(node) = hit {
                            out.push(Item::Node(node));
                        }
                        return Ok(());
                    }
                }
                if step.preds.is_empty() {
                    // The hot path: stream matches straight into the
                    // output — no intermediate Vec<Node> per step.
                    out.extend(self.store.children_named_iter(n, tag).map(Item::Node));
                    return Ok(());
                }
                let matched = self.tag_step_nodes(n, step, tag, env)?;
                out.extend(matched.into_iter().map(Item::Node));
                return Ok(());
            }
            (Axis::Descendant, NodeTest::Tag(tag)) => {
                if step.preds.is_empty() {
                    out.extend(self.store.descendants_named_iter(n, tag).map(Item::Node));
                    return Ok(());
                }
                let matched = self.tag_step_nodes(n, step, tag, env)?;
                out.extend(matched.into_iter().map(Item::Node));
                return Ok(());
            }
            (Axis::Descendant, NodeTest::Text) => {
                collect_descendant_text(self.store, n, out);
            }
            (Axis::Descendant, NodeTest::Wildcard) => {
                // Pre-order walk: each child list goes on the stack
                // reversed, so matches come out in document order.
                let mut stack: Vec<Node> = self.store.children_iter(n).collect();
                stack.reverse();
                while let Some(c) = stack.pop() {
                    if self.store.tag_of(c).is_some() {
                        out.push(Item::Node(c));
                        let before = stack.len();
                        stack.extend(self.store.children_iter(c));
                        stack[before..].reverse();
                    }
                }
            }
        }
        // Predicates for the non-tag axes above, applied to this context
        // node's matches only.
        if !step.preds.is_empty() {
            let mut nodes: Vec<Node> = out
                .drain(context_start..)
                .filter_map(|i| match i {
                    Item::Node(n) => Some(n),
                    _ => None,
                })
                .collect();
            self.apply_predicates(&mut nodes, &step.preds, env)?;
            out.extend(nodes.into_iter().map(Item::Node));
        }
        Ok(())
    }

    /// The `tag` children or descendants (per `step.axis`) of one context
    /// node, with the step's predicates applied.
    pub(crate) fn tag_step_nodes(
        &self,
        n: Node,
        step: &'a PlanStep,
        tag: &'a str,
        env: &mut Env<'a>,
    ) -> EResult<Vec<Node>> {
        let mut nodes: Vec<Node> = match step.axis {
            Axis::Descendant => self.store.descendants_named_iter(n, tag).collect(),
            _ => self.store.children_named_iter(n, tag).collect(),
        };
        self.apply_predicates(&mut nodes, &step.preds, env)?;
        Ok(nodes)
    }

    /// Filter `nodes` through `preds` in place, one predicate after the
    /// other.
    fn apply_predicates(
        &self,
        nodes: &mut Vec<Node>,
        preds: &'a [PlanPred],
        env: &mut Env<'a>,
    ) -> EResult<()> {
        for pred in preds {
            match pred {
                PlanPred::Position(k) => {
                    let hit = k.checked_sub(1).and_then(|i| nodes.get(i).copied());
                    nodes.clear();
                    nodes.extend(hit);
                }
                PlanPred::Last => {
                    let last = nodes.last().copied();
                    nodes.clear();
                    nodes.extend(last);
                }
                PlanPred::Expr(e) => {
                    let mut kept = 0;
                    for i in 0..nodes.len() {
                        let n = nodes[i];
                        // Short-circuit: an existential predicate stops at
                        // its first witness instead of draining the axis.
                        if self.eval_ebv(e, env, Some(&Item::Node(n)))? {
                            nodes[kept] = n;
                            kept += 1;
                        }
                    }
                    nodes.truncate(kept);
                }
            }
        }
        Ok(())
    }

    // ---- Aggregate -------------------------------------------------------

    /// `count(prefix//tag)` without node materialization: summary/extent
    /// arithmetic where the backend has it (the paper's Q6/Q7 on System
    /// D), a posting-range length of the shared element index on walking
    /// backends, and a counting cursor walk as the last resort. Blocking
    /// by nature: the answer is one number.
    pub(crate) fn aggregate(
        &self,
        a: &'a AggregatePlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<f64> {
        let contexts = open_path(self, &a.input, env, ctx, true);
        let index = a.indexed.then(|| self.indexes.element(self.store));
        let mut total = 0usize;
        for item in contexts.iter(self) {
            let Item::Node(n) = item? else {
                return Err(EvalError::PathOverNonNode);
            };
            let indexed = index.and_then(|index| index.count_in(&a.tag, n));
            total += match indexed {
                Some(count) => count,
                None => self.store.count_descendants_named(n, &a.tag),
            };
        }
        Ok(total as f64)
    }

    // ---- functions ---------------------------------------------------------

    /// The boolean built-ins, answered without a cursor; `None` for every
    /// other call and for a wrong arity. Existence checks pull at most
    /// one item; `not()` drains its argument.
    fn bool_call(
        &self,
        name: &str,
        args: &'a [PlanExpr],
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> Option<EResult<bool>> {
        match (name, args) {
            ("exists" | "empty", [arg]) => {
                let mut cur = Cursor::build(self, arg, env, ctx, false);
                let found = cur.next(self).transpose().map(|first| first.is_some());
                Some(found.map(|found| found == (name == "exists")))
            }
            ("not", [arg]) => {
                let cur = Cursor::build(self, arg, env, ctx, true);
                Some(self.ebv_of(cur, true).map(|b| !b))
            }
            _ => None,
        }
    }

    /// A function call's cursor. Each built-in matches its arity before
    /// any argument is evaluated: a wrong one is a static error.
    pub(crate) fn call(
        &self,
        name: &'a str,
        args: &'a [PlanExpr],
        env: &mut Env<'a>,
        ctx: Option<&Item>,
        materializing: bool,
    ) -> EResult<Cursor<'a>> {
        let item = match (name, args) {
            ("exists" | "empty" | "not", _) => match self.bool_call(name, args, env, ctx) {
                Some(answer) => Item::Bool(answer?),
                None => return Err(EvalError::Arity(name.to_string())),
            },
            ("count", [arg]) => {
                let mut n = 0usize;
                for item in self.items(arg, env, ctx) {
                    item?;
                    n += 1;
                }
                Item::Num(n as f64)
            }
            ("sum", [arg]) => {
                let numbers = self.items(arg, env, ctx);
                let numbers =
                    numbers.filter_map(|item| item.map(|i| number(self.store, &i)).transpose());
                Item::Num(numbers.sum::<EResult<f64>>()?)
            }
            ("contains", [hay, needle]) => {
                let hay = self.zero_or_one("contains", hay, env, ctx)?;
                let needle = self.zero_or_one("contains", needle, env, ctx)?;
                let needle = atomized_or_empty(self.store, &needle);
                Item::Bool(atomized_or_empty(self.store, &hay).contains(&*needle))
            }
            ("string", [arg]) => {
                let arg = self.zero_or_one("string", arg, env, ctx)?;
                Item::str(atomized_or_empty(self.store, &arg))
            }
            // XQuery `fn:number`: unparseable input (and the empty
            // sequence) is NaN, not the empty sequence.
            ("number", [arg]) => {
                let arg = self.zero_or_one("number", arg, env, ctx)?;
                Item::Num(arg.and_then(|i| number(self.store, &i)).unwrap_or(f64::NAN))
            }
            ("zero-or-one", [arg]) => {
                return Ok(Cursor::One(self.zero_or_one(
                    "zero-or-one",
                    arg,
                    env,
                    ctx,
                )?));
            }
            ("data" | "distinct-values", [arg]) => {
                let mut seen = HashSet::new();
                let mut out = Vec::new();
                for item in self.items(arg, env, ctx) {
                    let value = atomize(self.store, &item?);
                    if name == "data" || seen.insert(value.clone()) {
                        out.push(Item::str(value));
                    }
                }
                return Ok(Cursor::Materialized(out.into_iter()));
            }
            (
                "count" | "sum" | "contains" | "string" | "number" | "zero-or-one" | "data"
                | "distinct-values",
                _,
            ) => return Err(EvalError::Arity(name.to_string())),
            _ => return self.call_function(name, args, env, ctx, materializing),
        };
        Ok(Cursor::One(Some(item)))
    }

    /// A user function's body, opened with the call's `materializing`
    /// flag and its parameters bound to the drained arguments.
    fn call_function(
        &self,
        name: &'a str,
        args: &'a [PlanExpr],
        env: &mut Env<'a>,
        ctx: Option<&Item>,
        materializing: bool,
    ) -> EResult<Cursor<'a>> {
        let Some(decl) = self.functions.get(name) else {
            return Err(EvalError::UnknownFunction(name.to_string()));
        };
        if decl.params.len() != args.len() {
            return Err(EvalError::Arity(name.to_string()));
        }
        let mut values = Vec::with_capacity(args.len());
        for arg in args {
            values.push(self.items(arg, env, ctx).collect::<EResult<Sequence>>()?);
        }
        for (param, value) in decl.params.iter().zip(values) {
            env.push(param, Bound::Seq(value));
        }
        let body = Cursor::build(self, &decl.body, env, ctx, materializing);
        for _ in &decl.params {
            env.pop();
        }
        Ok(body)
    }

    // ---- constructors ------------------------------------------------------

    pub(crate) fn build_element(
        &self,
        ctor: &'a PlanElement,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<CElem> {
        let mut attrs = Vec::with_capacity(ctor.attrs.len());
        for (name, parts) in &ctor.attrs {
            let mut value = String::new();
            for part in parts {
                match part {
                    PlanAttrPart::Lit(s) => value.push_str(s),
                    PlanAttrPart::Expr(e) => {
                        // AVT: items joined with single spaces.
                        for (i, item) in self.items(e, env, ctx).enumerate() {
                            if i > 0 {
                                value.push(' ');
                            }
                            value.push_str(&atomized(self.store, &item?));
                        }
                    }
                }
            }
            attrs.push((name.clone(), value));
        }
        let mut children = Vec::new();
        for content in &ctor.content {
            match content {
                PlanContent::Text(t) => children.push(Item::str(t)),
                PlanContent::Expr(e) => {
                    for item in self.items(e, env, ctx) {
                        children.push(item?);
                    }
                }
                PlanContent::Element(nested) => {
                    children.push(Item::Elem(Arc::new(self.build_element(nested, env, ctx)?)));
                }
            }
        }
        Ok(CElem {
            tag: ctor.tag.clone(),
            attrs,
            children,
        })
    }
}

/// XQuery general comparison over keyed operands: true if any pair
/// matches. A pair compares numerically when both sides are numbers,
/// else as trimmed text — the string fallback must trim too, or
/// whitespace-padded text nodes would fail equality against their
/// trimmed value.
fn general_compare(op: CmpOp, l: &[CmpKey<'_>], r: &[CmpKey<'_>]) -> bool {
    l.iter().any(|a| {
        r.iter().any(|b| match (a.num(), b.num()) {
            (Some(x), Some(y)) => compare_ord(op, x.partial_cmp(&y)),
            _ => compare_ord(op, Some(a.text().cmp(&b.text()))),
        })
    })
}

/// One general-comparison operand item, keyed once. A number stays a
/// number and is rendered with [`format_number`] only on the string
/// fallback — exact, since `xs_double(&format_number(n))` is `n` for
/// every `f64` (`-0` reads back as `0`, which compares equal). Anything
/// else is its atomized text, lent where the item or the store holds it,
/// with the number that text spells.
enum CmpKey<'a> {
    Num(f64),
    Text(Cow<'a, str>, Option<f64>),
    Shared(Arc<str>, Option<f64>),
}

impl<'a> CmpKey<'a> {
    fn of(store: &'a dyn XmlStore, item: Item) -> CmpKey<'a> {
        match item {
            Item::Num(n) => CmpKey::Num(n),
            Item::Str(s) => {
                let num = xs_double(s.trim());
                CmpKey::Shared(s, num)
            }
            Item::Node(n) => CmpKey::from_text(crate::result::node_string_value(store, n)),
            Item::Bool(b) => CmpKey::from_text(Cow::Borrowed(if b { "true" } else { "false" })),
            Item::Elem(_) => CmpKey::from_text(Cow::Owned(atomize(store, &item))),
        }
    }

    fn from_text(text: Cow<'a, str>) -> CmpKey<'a> {
        let num = xs_double(text.trim());
        CmpKey::Text(text, num)
    }

    fn num(&self) -> Option<f64> {
        match self {
            CmpKey::Num(n) => Some(*n),
            CmpKey::Text(_, num) | CmpKey::Shared(_, num) => *num,
        }
    }

    /// The trimmed text the string fallback compares.
    fn text(&self) -> Cow<'_, str> {
        match self {
            CmpKey::Num(n) => Cow::Owned(format_number(*n)),
            CmpKey::Text(text, _) => Cow::Borrowed(text.trim()),
            CmpKey::Shared(text, _) => Cow::Borrowed(text.trim()),
        }
    }
}

/// A list that holds a lone element inline: zero or one element needs
/// no vector. Comparison operands and path stages are mostly that short.
#[derive(Default)]
pub(crate) enum InlineOne<T> {
    #[default]
    Zero,
    One(T),
    Many(Vec<T>),
}

impl<T> InlineOne<T> {
    pub(crate) fn push(&mut self, x: T) {
        self.push_within(x, 4);
    }

    /// Push `x` into a list expected to reach `total` elements: a second
    /// element moves both into a vector of that capacity.
    pub(crate) fn push_within(&mut self, x: T, total: usize) {
        *self = match std::mem::take(self) {
            InlineOne::Zero => InlineOne::One(x),
            InlineOne::One(first) => {
                let mut xs = Vec::with_capacity(total.max(2));
                xs.extend([first, x]);
                InlineOne::Many(xs)
            }
            InlineOne::Many(mut xs) => {
                xs.push(x);
                InlineOne::Many(xs)
            }
        };
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            InlineOne::Zero => &[],
            InlineOne::One(x) => std::slice::from_ref(x),
            InlineOne::Many(xs) => xs,
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            InlineOne::Zero => &mut [],
            InlineOne::One(x) => std::slice::from_mut(x),
            InlineOne::Many(xs) => xs,
        }
    }
}

/// XQuery order key: numeric when the value parses, else string.
pub(crate) struct OrderKey {
    text: String,
    num: Option<f64>,
}

pub(crate) fn compare_keys(a: Option<&OrderKey>, b: Option<&OrderKey>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less, // empty least
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => match (x.num, y.num) {
            (Some(nx), Some(ny)) => nx.total_cmp(&ny),
            _ => x.text.cmp(&y.text),
        },
    }
}

fn compare_ord(op: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    match ord {
        None => false,
        Some(o) => match op {
            CmpOp::Eq => o == Equal,
            CmpOp::Ne => o != Equal,
            CmpOp::Lt => o == Less,
            CmpOp::Le => o != Greater,
            CmpOp::Gt => o == Greater,
            CmpOp::Ge => o != Less,
        },
    }
}

fn collect_descendant_text(store: &dyn XmlStore, n: Node, out: &mut Sequence) {
    for c in store.children_iter(n) {
        if store.is_text_node(c) {
            out.push(Item::Node(c));
        } else {
            collect_descendant_text(store, c, out);
        }
    }
}

/// An optional item's atomized value, lent where [`atomized`] can; the
/// empty sequence's is empty.
fn atomized_or_empty<'s>(store: &'s dyn XmlStore, item: &'s Option<Item>) -> Cow<'s, str> {
    match item {
        Some(item) => atomized(store, item),
        None => Cow::Borrowed(""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, execute};
    use crate::result::serialize_sequence;
    use xmark_store::NaiveStore;

    const DOC: &str = r#"<site><regions><europe><item id="item0"><name>gold ring</name><description><text>pure gold</text></description></item><item id="item1"><name>cup</name><description><text>plain tin</text></description></item></europe></regions><people><person id="person0"><name>Alice</name><profile income="95000.00"><age>30</age></profile></person><person id="person1"><name>Bob</name><homepage>http://b</homepage></person></people><open_auctions><open_auction id="open_auction0"><initial>10.00</initial><bidder><personref person="person0"/><increase>5.00</increase></bidder><bidder><personref person="person1"/><increase>20.00</increase></bidder><current>35.00</current></open_auction></open_auctions></site>"#;

    fn run(q: &str) -> String {
        let store = NaiveStore::load(DOC).unwrap();
        let compiled = compile(q, &store).unwrap();
        let result = execute(&compiled, &store).unwrap();
        serialize_sequence(&store, &result)
    }

    fn run_err(q: &str) -> EvalError {
        let store = NaiveStore::load(DOC).unwrap();
        let compiled = compile(q, &store).unwrap();
        execute(&compiled, &store).unwrap_err()
    }

    #[test]
    fn q1_shape_exact_match() {
        let out = run(
            r#"for $b in document("x")/site/people/person[@id = "person0"] return $b/name/text()"#,
        );
        assert_eq!(out, "Alice");
    }

    #[test]
    fn positional_access() {
        let out = run(
            r#"for $b in /site/open_auctions/open_auction return <i>{$b/bidder[1]/increase/text()}</i>"#,
        );
        assert_eq!(out, "<i>5.00</i>");
        let out = run(
            r#"for $b in /site/open_auctions/open_auction return <i>{$b/bidder[last()]/increase/text()}</i>"#,
        );
        assert_eq!(out, "<i>20.00</i>");
    }

    #[test]
    fn where_with_arithmetic() {
        let out = run(
            r#"for $b in /site/open_auctions/open_auction where zero-or-one($b/bidder[1]/increase/text()) * 2 <= $b/bidder[last()]/increase/text() return <hit/>"#,
        );
        assert_eq!(out, "<hit/>");
    }

    #[test]
    fn descendant_counting() {
        assert_eq!(run("count(/site//item)"), "2");
        assert_eq!(run("count(/site//nothing)"), "0");
        assert_eq!(
            run("for $p in /site return count($p//item) + count($p//person)"),
            "4"
        );
    }

    #[test]
    fn contains_fulltext() {
        let out = run(
            r#"for $i in /site//item where contains(string($i/description), "gold") return $i/name/text()"#,
        );
        assert_eq!(out, "gold ring");
    }

    #[test]
    fn missing_elements() {
        let out = run(
            r#"for $p in /site/people/person where empty($p/homepage/text()) return <person name="{$p/name/text()}"/>"#,
        );
        assert_eq!(out, r#"<person name="Alice"/>"#);
    }

    #[test]
    fn join_on_values() {
        let out = run(
            r#"for $p in /site/people/person let $a := for $t in /site/open_auctions/open_auction/bidder/personref where $t/@person = $p/@id return $t return <n name="{$p/name/text()}">{count($a)}</n>"#,
        );
        assert_eq!(out, "<n name=\"Alice\">1</n>\n<n name=\"Bob\">1</n>");
    }

    #[test]
    fn order_by_sorts() {
        let out =
            run(r#"for $i in /site//item order by zero-or-one($i/name) return $i/name/text()"#);
        assert_eq!(out, "cup\ngold ring");
        let out = run(
            r#"for $i in /site//item order by zero-or-one($i/name) descending return $i/name/text()"#,
        );
        assert_eq!(out, "gold ring\ncup");
    }

    #[test]
    fn quantified_before() {
        let out = run(
            r#"for $b in /site/open_auctions/open_auction where some $x in $b/bidder/personref[@person = "person0"], $y in $b/bidder/personref[@person = "person1"] satisfies $x << $y return <yes/>"#,
        );
        assert_eq!(out, "<yes/>");
        let out = run(
            r#"for $b in /site/open_auctions/open_auction where some $x in $b/bidder/personref[@person = "person1"], $y in $b/bidder/personref[@person = "person0"] satisfies $x << $y return <yes/>"#,
        );
        assert_eq!(out, "");
    }

    #[test]
    fn udf_application() {
        let out = run(
            "declare function local:convert($v) { 2.20371 * $v }; for $i in /site/open_auctions/open_auction return local:convert(zero-or-one($i/initial/text()))",
        );
        let value: f64 = out.parse().unwrap();
        assert!((value - 22.0371).abs() < 1e-9);
    }

    #[test]
    fn predicate_on_attributes_numeric() {
        assert_eq!(
            run(r#"count(/site/people/person/profile[@income >= 90000])"#),
            "1"
        );
        assert_eq!(
            run(r#"count(/site/people/person/profile[@income < 90000])"#),
            "0"
        );
    }

    #[test]
    fn distinct_values_dedups() {
        let out = run(
            r#"for $x in distinct-values(/site/open_auctions/open_auction/bidder/personref/@person) return <p>{$x}</p>"#,
        );
        assert_eq!(out, "<p>person0</p>\n<p>person1</p>");
    }

    #[test]
    fn reconstruction_copies_subtrees() {
        let out = run(
            r#"for $i in /site/regions/europe/item[@id = "item1"] return <item name="{$i/name/text()}">{$i/description}</item>"#,
        );
        assert_eq!(
            out,
            r#"<item name="cup"><description><text>plain tin</text></description></item>"#
        );
    }

    #[test]
    fn arithmetic_with_empty_is_empty() {
        assert_eq!(
            run("count(2 * /site/people/person[@id = \"ghost\"]/name)"),
            "0"
        );
    }

    #[test]
    fn sum_and_number_functions() {
        assert_eq!(
            run("sum(/site/open_auctions/open_auction/bidder/increase)"),
            "25"
        );
        assert_eq!(run("sum(())"), "0");
        assert_eq!(
            run("number(/site/open_auctions/open_auction/initial)"),
            "10"
        );
    }

    #[test]
    fn number_of_unparseable_is_nan() {
        // XQuery: number("x") is NaN, not the empty sequence.
        assert_eq!(run("number(/site/people/person[1]/name)"), "NaN");
        assert_eq!(run("count(number(/site/people/person[1]/name))"), "1");
        // The empty sequence coerces to NaN too.
        assert_eq!(run("number(/site/ghosts)"), "NaN");
        // NaN formats canonically and compares unequal to everything,
        // including itself.
        assert_eq!(crate::result::format_number(f64::NAN), "NaN");
        assert_eq!(
            run("number(/site/people/person[1]/name) = number(/site/people/person[1]/name)"),
            "false"
        );
        assert_eq!(run("number(/site/ghosts) = 0"), "false");
        assert_eq!(run("number(/site/ghosts) < 0"), "false");
    }

    #[test]
    fn general_compare_trims_both_paths() {
        // Whitespace-padded text nodes equal their trimmed value in both
        // the numeric branch and the string fallback (which used to
        // compare untrimmed).
        let doc = r#"<a><n>  42  </n><s>  gold  </s></a>"#;
        let store = NaiveStore::load(doc).unwrap();
        for (q, expected) in [
            (r#"/a/n = "42""#, "true"),
            (r#"/a/n = 42"#, "true"),
            (r#"/a/s = "gold""#, "true"),
            (r#"/a/s = "  gold  ""#, "true"),
            (r#"/a/s = "silver""#, "false"),
            (r#"/a/s < "halt""#, "true"),
        ] {
            let compiled = compile(q, &store).unwrap();
            let result = execute(&compiled, &store).unwrap();
            assert_eq!(serialize_sequence(&store, &result), expected, "query {q}");
        }
    }

    #[test]
    fn numbers_are_xml_schema_doubles_only() {
        // Rust's `f64::from_str` also reads `nan`, `inf` and `Infinity`
        // in any case; XQuery reads only the `xs:double` forms, so those
        // words compare as the text they are.
        let doc = r#"<a><t>Nan</t><v>Infinity</v><u>INF</u><w> 1e3 </w></a>"#;
        let store = NaiveStore::load(doc).unwrap();
        for (q, expected) in [
            (r#"/a/t = "Nan""#, "true"),
            (r#"/a/t != "Nan""#, "false"),
            (r#"/a/v = "inf""#, "false"),
            (r#"/a/v = "Infinity""#, "true"),
            (r#"/a/u = "INF""#, "true"),
            (r#"/a/u > 1000000"#, "true"),
            (r#"/a/w = 1000"#, "true"),
            (r#"number("inf")"#, "NaN"),
            (r#"number("+inf")"#, "NaN"),
            (r#"number("Infinity")"#, "NaN"),
            (r#"number("INF")"#, "INF"),
            (r#"number("-INF")"#, "-INF"),
            (r#"number(" .5 ")"#, "0.5"),
            (r#"number("5.")"#, "5"),
            (r#"number("1e")"#, "NaN"),
            (r#"number(".")"#, "NaN"),
        ] {
            let compiled = compile(q, &store).unwrap();
            let result = execute(&compiled, &store).unwrap();
            assert_eq!(serialize_sequence(&store, &result), expected, "query {q}");
        }
    }

    #[test]
    fn join_keys_agree_with_comparison_on_number_spellings() {
        // `inf` and `Infinity` are two different words, not one number:
        // the Lookup's key index must not pair them, or the join would
        // disagree with the comparison the nested loop evaluates.
        let doc = r#"<site><people><person id="inf"><name>A</name></person><person id="Infinity"><name>B</name></person><person id="1e1"><name>C</name></person></people><open_auctions><open_auction><bidder><personref person="Infinity"/></bidder><bidder><personref person="10"/></bidder></open_auction></open_auctions></site>"#;
        let q = r#"for $p in /site/people/person let $a := for $t in /site/open_auctions/open_auction/bidder/personref where $t/@person = $p/@id return $t return <n name="{$p/name/text()}">{count($a)}</n>"#;
        let store = NaiveStore::load(doc).unwrap();
        let expected = "<n name=\"A\">0</n>\n<n name=\"B\">1</n>\n<n name=\"C\">1</n>";
        for mode in [PlanMode::Optimized, PlanMode::Naive] {
            let compiled = crate::compile::compile_with_mode(q, &store, mode).unwrap();
            if mode == PlanMode::Optimized {
                let plan = crate::explain::explain_plan(&compiled.plan);
                assert!(
                    plan.contains("Lookup"),
                    "the value join must run as a Lookup:\n{plan}"
                );
            }
            let result = execute(&compiled, &store).unwrap();
            assert_eq!(serialize_sequence(&store, &result), expected, "{mode:?}");
        }
    }

    #[test]
    fn unsupported_attribute_steps_are_named() {
        for (q, step) in [
            ("/site/people/person/@*", "@*"),
            ("/site/people/person/@text()", "@text()"),
        ] {
            match run_err(q) {
                EvalError::UnsupportedStep(s) => {
                    assert_eq!(s, step);
                    assert!(
                        EvalError::UnsupportedStep(s).to_string().contains(step),
                        "message names the step"
                    );
                }
                other => panic!("expected UnsupportedStep for {q}, got {other:?}"),
            }
        }
    }

    #[test]
    fn exists_and_not() {
        assert_eq!(run("exists(/site/people/person)"), "true");
        assert_eq!(run("exists(/site/ghosts)"), "false");
        assert_eq!(run("not(empty(/site/people/person))"), "true");
    }

    #[test]
    fn short_circuits_skip_errors_in_unpulled_tails() {
        // Short-circuiting means an error in the never-pulled tail of an
        // existence check is not raised (XQuery allows this: errors need
        // not surface from unevaluated subexpressions). The eager
        // contract still reports it.
        assert_eq!(run("exists((/site/people/person, $undefined))"), "true");
        assert_eq!(run("empty((/site/people/person, $undefined))"), "false");
        assert!(matches!(
            run_err("(/site/people/person, $undefined)"),
            EvalError::UndefinedVariable(_)
        ));
        // An empty head cannot satisfy the check, so the tail is pulled
        // and its error does surface.
        assert!(matches!(
            run_err("exists((/site/nosuch, $undefined))"),
            EvalError::UndefinedVariable(_)
        ));
    }

    #[test]
    fn exists_and_empty_reject_wrong_arity() {
        // The streaming fast path only fires for the unary form; wrong
        // arities still fall through to the arity check.
        assert!(matches!(run_err("exists(1, 2)"), EvalError::Arity(_)));
        assert!(matches!(run_err("empty(1, 2)"), EvalError::Arity(_)));
    }

    #[test]
    fn data_atomizes_attributes() {
        assert_eq!(run("data(/site/people/person/profile/@income)"), "95000.00");
    }

    #[test]
    fn zero_or_one_rejects_long_sequences() {
        assert!(matches!(
            run_err("zero-or-one(/site/people/person)"),
            EvalError::Cardinality("zero-or-one")
        ));
    }

    #[test]
    fn single_item_functions_reject_a_second_item() {
        // Two names, two increases: each consumer takes at most one item.
        let two_names = "/site/people/person/name";
        let two_increases = "$a/bidder/increase";
        let auctions = "for $a in /site/open_auctions/open_auction";
        for (query, what) in [
            (format!("string({two_names})"), "string"),
            (format!("contains({two_names}, \"A\")"), "contains"),
            (format!("contains(\"Alice\", {two_names})"), "contains"),
            (
                format!("{auctions} return number({two_increases})"),
                "number",
            ),
            (
                format!("{auctions} order by {two_increases} return $a"),
                "order by",
            ),
        ] {
            assert_eq!(run_err(&query), EvalError::Cardinality(what), "{query}");
        }
        // One item is fine, and the empty sequence is the empty string.
        assert_eq!(run("string(/site/people/person[1]/name)"), "Alice");
        assert_eq!(run("string(/site/ghosts)"), "");
        assert_eq!(run("contains(/site/people/person[2]/name, \"o\")"), "true");
    }

    #[test]
    fn wrong_arity_is_reported() {
        assert!(matches!(run_err("count(1, 2)"), EvalError::Arity(_)));
        // Wrong arity is a static error: it is reported before any
        // argument is evaluated.
        for f in ["count", "sum", "string"] {
            let query = format!("{f}(1, $undefined)");
            assert_eq!(run_err(&query), EvalError::Arity(f.to_string()), "{query}");
        }
    }

    #[test]
    fn wildcard_and_descendant_text_steps() {
        assert_eq!(
            run("count(/site/regions/europe/item[@id = \"item0\"]/*)"),
            "2"
        );
        let out = run(r#"for $t in /site/regions/europe/item[@id = "item0"]//text() return $t"#);
        assert_eq!(out, "gold ring\npure gold");
    }

    #[test]
    fn positional_predicates_on_wildcard_steps_are_per_context() {
        // Two persons, so `person/*[1]` is the *first child of each*, not
        // the first node of the merged output (a former bug: predicates
        // drained the accumulated output across context nodes).
        assert_eq!(run("count(/site/people/person)"), "2");
        assert_eq!(run("count(/site/people/person/*[1])"), "2");
        let out = run(r#"for $n in /site/people/person/*[1] return $n/text()"#);
        assert_eq!(out, "Alice\nBob");
        // Same per-context rule on text() steps.
        assert_eq!(run("count(/site/people/person/name/text()[1])"), "2");
    }

    #[test]
    fn or_expressions_shortcircuit() {
        assert_eq!(
            run(
                r#"count(for $p in /site/people/person where $p/@id = "person0" or $p/homepage return $p)"#
            ),
            "2"
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            run_err("$undefined"),
            EvalError::UndefinedVariable(_)
        ));
        assert!(matches!(
            run_err("nosuchfn(1)"),
            EvalError::UnknownFunction(_)
        ));
    }

    /// The comparison `general_compare` replaced, kept as the reference
    /// model: every operand item atomized to a string on every pair, its
    /// number read back from that string.
    fn string_round_trip_compare(store: &dyn XmlStore, op: CmpOp, l: &[Item], r: &[Item]) -> bool {
        for a in l {
            let sa = atomize(store, a);
            let ta = sa.trim();
            let na = xs_double(ta);
            for b in r {
                let sb = atomize(store, b);
                let tb = sb.trim();
                let matched = match (na, xs_double(tb)) {
                    (Some(x), Some(y)) => compare_ord(op, x.partial_cmp(&y)),
                    _ => compare_ord(op, Some(ta.cmp(tb))),
                };
                if matched {
                    return true;
                }
            }
        }
        false
    }

    const NUMS: [f64; 16] = [
        0.0,
        -0.0,
        42.0,
        7.5,
        -3.0,
        0.1,
        5.0,
        0.5,
        1000.0,
        1e15,
        1.5e16,
        -2.5e17,
        1e300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    const WORDS: [&str; 26] = [
        "42", "  42  ", "7.5", " 7.5", "-3", "+5", ".5", "5.", "0", "-0", "1000", "1e3", "1E3",
        "1e15", "NaN", "INF", "-INF", "inf", "Infinity", "nan", "+INF", "", "gold", "  gold ",
        "silver", "1e",
    ];

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// One drawn operand item: a number, a word as a string item (keyed
    /// as an item or, like a query literal, in place), or a word as a
    /// text node.
    #[derive(Debug, Clone)]
    enum Draw {
        Num(f64),
        Str(usize, bool),
        Text(usize),
    }

    fn draw() -> impl proptest::Strategy<Value = Draw> {
        use proptest::prelude::*;
        prop_oneof![
            (0..NUMS.len()).prop_map(|i| Draw::Num(NUMS[i])),
            (-2000i64..2000).prop_map(|n| Draw::Num(n as f64)),
            (-2000.0f64..2000.0).prop_map(Draw::Num),
            (0..WORDS.len(), any::<bool>()).prop_map(|(i, literal)| Draw::Str(i, literal)),
            (0..WORDS.len()).prop_map(Draw::Text),
        ]
    }

    /// A store holding one `<t>` text node per non-empty word.
    fn word_store() -> NaiveStore {
        let body: String = WORDS.iter().map(|w| format!("<t>{w}</t>")).collect();
        NaiveStore::load(&format!("<a>{body}</a>")).unwrap()
    }

    /// The items the reference model compares, and the keys the typed
    /// comparison compares, for one drawn operand.
    fn operand<'s>(store: &'s NaiveStore, draws: &[Draw]) -> (Vec<Item>, Vec<CmpKey<'s>>) {
        let texts: Vec<Node> = store
            .descendants_named_iter(store.root(), "t")
            .map(|t| store.children_iter(t).next().unwrap_or(t))
            .collect();
        let mut items = Vec::new();
        let mut keys = Vec::new();
        for d in draws {
            let item = match *d {
                Draw::Num(n) => Item::Num(n),
                Draw::Str(i, true) => {
                    keys.push(CmpKey::from_text(Cow::Borrowed(WORDS[i])));
                    items.push(Item::str(WORDS[i]));
                    continue;
                }
                Draw::Str(i, false) => Item::str(WORDS[i]),
                Draw::Text(i) if WORDS[i].is_empty() => Item::str(""),
                Draw::Text(i) => Item::Node(texts[i]),
            };
            keys.push(CmpKey::of(store, item.clone()));
            items.push(item);
        }
        (items, keys)
    }

    #[test]
    fn result_streams_stay_send() {
        // Environments share frames through `Arc`, so a stream (and the
        // cursors and environments it owns) can move to another thread.
        fn send<T: Send>() {}
        send::<crate::ResultStream<'static>>();
    }

    #[test]
    fn word_store_holds_one_text_node_per_word() {
        let store = word_store();
        for (i, t) in store.descendants_named_iter(store.root(), "t").enumerate() {
            let text = store.children_iter(t).next().and_then(|c| store.text(c));
            assert_eq!(text.as_deref().unwrap_or(""), WORDS[i]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        #[test]
        fn typed_comparison_matches_the_string_round_trip(
            l in proptest::collection::vec(draw(), 0..4usize),
            r in proptest::collection::vec(draw(), 0..4usize),
        ) {
            let store = word_store();
            let (l_items, l_keys) = operand(&store, &l);
            let (r_items, r_keys) = operand(&store, &r);
            for op in OPS {
                proptest::prop_assert_eq!(
                    general_compare(op, &l_keys, &r_keys),
                    string_round_trip_compare(&store, op, &l_items, &r_items),
                    "{:?} {:?} {:?}",
                    l,
                    op,
                    r
                );
            }
        }
    }
}
