//! The plan executor.
//!
//! [`Evaluator`] walks a [`PhysicalPlan`] produced by the compile-time
//! planner ([`crate::planner`]). It contains **no strategy decisions**:
//! which FLWOR runs as a hash join, where predicates are filtered, and
//! which store access path answers a step were all chosen when the query
//! was compiled and are visible via [`crate::explain`]. What remains here
//! is mechanism:
//!
//! * operator execution — the pipelining operators (PathScan, NestedLoop,
//!   HashJoin probe sides, IndexLookup probes, Project) run as pull-based
//!   cursors defined in [`crate::stream`]; this module supplies the
//!   shared per-context mechanics they call into (step expansion,
//!   predicate application, join build sides, order keys),
//! * per-execution memos (loop-invariant path materialization, join hash
//!   tables, probe key lists) keyed by the signatures the planner
//!   computed,
//! * graceful fallbacks where a plan annotation turns out not to cover a
//!   node (an un-inlined value, an unsupported positional probe) — the
//!   generic cursor path always remains correct.
//!
//! Scalar contexts (comparison operands, arithmetic, function arguments)
//! still evaluate to materialized [`Sequence`]s via [`Evaluator::eval`];
//! boolean contexts (where-filters, predicates, quantifiers, `and`/`or`)
//! go through the short-circuiting `eval_ebv`, which pulls at most two
//! items from a streaming cursor instead of draining the operand.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use xmark_store::{ChildValues, DescendantsNamed, IndexManager, Node, XmlStore};

use crate::ast::{Axis, CmpOp, NodeTest};
use crate::plan::*;
use crate::result::{atomize, number, CElem, Item, Sequence};
use crate::stream::{flwor_cursor, path_cursor, Cursor};

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

/// A lookup index for join operators: canonical key → (source position,
/// item) pairs in source order.
pub(crate) type JoinIndex = HashMap<String, Vec<(usize, Item)>>;

/// Variable environment with lexical scoping, borrowing its names from
/// the plan (`'a`).
///
/// Bindings hold `&'a str` names and `Arc<Sequence>` values, so pushing
/// a binding and cloning an environment (operator cursors own a snapshot
/// each, once per tuple) copy a few pointers — no per-tuple name
/// allocations, and never the bound sequences.
#[derive(Default, Clone)]
pub(crate) struct Env<'a> {
    bindings: Vec<(&'a str, Arc<Sequence>)>,
}

impl<'a> Env<'a> {
    pub(crate) fn push(&mut self, name: &'a str, value: Arc<Sequence>) {
        self.bindings.push((name, value));
    }

    pub(crate) fn pop(&mut self) {
        self.bindings.pop();
    }

    pub(crate) fn get(&self, name: &str) -> Option<&Arc<Sequence>> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }
}

/// The executor, bound to one store and one physical plan's functions.
pub struct Evaluator<'a> {
    pub(crate) store: &'a dyn XmlStore,
    /// The store's persistent index subsystem: shared element postings
    /// (IndexScan), the `@id` attribute index, and the cross-execution
    /// value indexes the join operators probe.
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
    /// Memo for loop-invariant absolute paths — the materialization every
    /// system in the paper performs before joining.
    path_cache: RefCell<HashMap<String, Arc<Sequence>>>,
    /// Per-execution (L1) memo for IndexLookup indexes and HashJoin build
    /// sides, keyed by the planner's signatures. Populated from the
    /// store-resident value indexes (L2) when those are enabled, so after
    /// warmup an execution performs zero builds — only probes.
    index_cache: RefCell<HashMap<String, Arc<JoinIndex>>>,
    /// Per-execution (L1) memo for hash-join probe-side key lists,
    /// aligned with the cached source sequence.
    key_cache: RefCell<HashMap<String, Arc<Vec<Vec<String>>>>>,
    /// The element index, resolved once per execution (see
    /// [`Evaluator::index_postings`]).
    element_index: std::cell::OnceCell<&'a xmark_store::ElementIndex>,
    /// Per-execution memo of resolved child-value indexes by tag, so the
    /// per-open resolution never touches the manager's locks on the hot
    /// path.
    child_values_cache: RefCell<HashMap<String, Arc<ChildValues>>>,
    /// Items pulled through operator cursors (path-step expansions and
    /// clause bindings). The probe behind the early-termination tests:
    /// `exists()`/`take(n)` must pull strictly fewer items than a full
    /// evaluation.
    pulls: Cell<u64>,
    /// Memoized-path signatures already opened by a streaming cursor
    /// this execution. A second open proves the loop-invariant path is
    /// being re-evaluated (an inner FLWOR clause restarted per outer
    /// binding), at which point it materializes into `path_cache`; first
    /// opens stay lazy so one-shot top-level paths keep their
    /// time-to-first-item.
    streamed_paths: RefCell<HashSet<String>>,
}

impl<'a> Evaluator<'a> {
    /// Create an executor for `plan` against `store`.
    pub fn new(store: &'a dyn XmlStore, plan: &'a PhysicalPlan) -> Self {
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
            key_cache: RefCell::new(HashMap::new()),
            element_index: std::cell::OnceCell::new(),
            child_values_cache: RefCell::new(HashMap::new()),
            pulls: Cell::new(0),
            streamed_paths: RefCell::new(HashSet::new()),
        }
    }

    /// Execute the plan body, materializing the whole result — equivalent
    /// to draining [`crate::stream::ResultStream`].
    pub fn run(&self, plan: &'a PhysicalPlan) -> EResult<Sequence> {
        let mut env = Env::default();
        self.eval(&plan.body, &mut env, None)
    }

    /// Items pulled through operator cursors so far (see
    /// [`crate::stream::ResultStream::pulls`]).
    pub fn pulls(&self) -> u64 {
        self.pulls.get()
    }

    /// Record `n` items pulled through an operator cursor.
    pub(crate) fn count_pulls(&self, n: u64) {
        self.pulls.set(self.pulls.get() + n);
    }

    /// Drain a cursor into a materialized sequence.
    pub(crate) fn drain(&self, mut cur: Cursor<'a>) -> EResult<Sequence> {
        let mut out = Vec::new();
        while let Some(r) = cur.next(self) {
            out.push(r?);
        }
        Ok(out)
    }

    pub(crate) fn eval(
        &self,
        expr: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Sequence> {
        match expr {
            PlanExpr::Str(s) => Ok(vec![Item::str(s)]),
            PlanExpr::Num(n) => Ok(vec![Item::Num(*n)]),
            PlanExpr::Empty => Ok(Vec::new()),
            PlanExpr::Var(name) => env
                .get(name)
                .map(|s| s.as_ref().clone())
                .ok_or_else(|| EvalError::UndefinedVariable(name.clone())),
            PlanExpr::Sequence(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(self.eval(p, env, ctx)?);
                }
                Ok(out)
            }
            PlanExpr::Or(parts) => {
                for p in parts {
                    if self.eval_ebv(p, env, ctx)? {
                        return Ok(vec![Item::Bool(true)]);
                    }
                }
                Ok(vec![Item::Bool(false)])
            }
            PlanExpr::And(parts) => {
                for p in parts {
                    if !self.eval_ebv(p, env, ctx)? {
                        return Ok(vec![Item::Bool(false)]);
                    }
                }
                Ok(vec![Item::Bool(true)])
            }
            PlanExpr::Cmp(op, lhs, rhs) => {
                let l = self.eval(lhs, env, ctx)?;
                let r = self.eval(rhs, env, ctx)?;
                Ok(vec![Item::Bool(self.general_compare(*op, &l, &r))])
            }
            PlanExpr::Before(lhs, rhs) => {
                let l = self.eval(lhs, env, ctx)?;
                let r = self.eval(rhs, env, ctx)?;
                let before = l.iter().any(|a| {
                    r.iter().any(|b| match (a, b) {
                        // Compare order *keys*, not raw ids: MVCC
                        // snapshots number inserted nodes above the base
                        // range but interleave them by rank.
                        (Item::Node(x), Item::Node(y)) => {
                            self.store.doc_order_key(*x) < self.store.doc_order_key(*y)
                        }
                        _ => false,
                    })
                });
                Ok(vec![Item::Bool(before)])
            }
            PlanExpr::Arith(op, lhs, rhs) => {
                let l = self.eval(lhs, env, ctx)?;
                let r = self.eval(rhs, env, ctx)?;
                let (Some(a), Some(b)) = (
                    singleton_number(self.store, &l),
                    singleton_number(self.store, &r),
                ) else {
                    return Ok(Vec::new());
                };
                use crate::ast::ArithOp;
                let v = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                    ArithOp::Mod => a % b,
                };
                Ok(vec![Item::Num(v)])
            }
            PlanExpr::Neg(inner) => {
                let v = self.eval(inner, env, ctx)?;
                Ok(match singleton_number(self.store, &v) {
                    Some(n) => vec![Item::Num(-n)],
                    None => Vec::new(),
                })
            }
            PlanExpr::Path(p) => self.eval_path(p, env, ctx),
            PlanExpr::Aggregate(a) => self.eval_aggregate(a, env, ctx),
            PlanExpr::Flwor(f) => self.drain(flwor_cursor(f, env, ctx, false)),
            PlanExpr::Some {
                bindings,
                satisfies,
            } => {
                let found = self.eval_some(bindings, 0, satisfies, env, ctx)?;
                Ok(vec![Item::Bool(found)])
            }
            PlanExpr::Call(name, args) => self.eval_call(name, args, env, ctx),
            PlanExpr::Element(ctor) => {
                let elem = self.build_element(ctor, env, ctx)?;
                Ok(vec![Item::Elem(Arc::new(elem))])
            }
        }
    }

    /// Effective boolean value of `expr`, short-circuiting: for the
    /// streamable operators (paths, FLWORs, comma sequences) this pulls at
    /// most two items from a cursor instead of draining the operand — an
    /// existential predicate like `[bidder]` stops at the first child.
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
            PlanExpr::Path(_) | PlanExpr::Flwor(_) | PlanExpr::Sequence(_) => {
                // `order by` cannot change whether any tuple exists, so the
                // EBV cursor for a FLWOR skips the Sort buffer entirely.
                let mut cur = match expr {
                    PlanExpr::Flwor(f) => flwor_cursor(f, env, ctx, true),
                    _ => Cursor::build(self, expr, env, ctx),
                };
                let Some(first) = cur.next(self).transpose()? else {
                    return Ok(false);
                };
                match first {
                    Item::Node(_) | Item::Elem(_) => Ok(true),
                    atom => {
                        // A second item of any kind makes the sequence true;
                        // a singleton atom follows the atomic EBV rules.
                        if cur.next(self).transpose()?.is_some() {
                            Ok(true)
                        } else {
                            Ok(ebv(&[atom]))
                        }
                    }
                }
            }
            _ => Ok(ebv(&self.eval(expr, env, ctx)?)),
        }
    }

    // ---- FLWOR support ---------------------------------------------------

    /// Fetch — or build exactly once — the hash table `canonical key →
    /// (index, item)` over the items of `src`, keyed by `key_expr`
    /// evaluated with `var` bound to each item. Blocking by nature: the
    /// build side of a hash join buffers before the first probe.
    ///
    /// Lookup order: the per-execution memo (L1, lock-free), then the
    /// store-resident value index (L2, [`IndexManager`]) when the planner
    /// produced a loop-invariance signature and the backend persists
    /// values — so after warmup, repeated executions (and every worker of
    /// a service pool) probe one shared structure and never rebuild.
    pub(crate) fn join_build_side(
        &self,
        var: &'a str,
        src: &'a PlanExpr,
        key_expr: &'a PlanExpr,
        sig: Option<&str>,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Arc<JoinIndex>> {
        if let Some(sig) = sig {
            if let Some(cached) = self.index_cache.borrow().get(sig) {
                return Ok(Arc::clone(cached));
            }
        }
        let rc = match sig.filter(|_| self.shared_values) {
            Some(sig) => {
                let erased = self.indexes.value_or_build(&format!("idx|{sig}"), || {
                    let map = self.build_join_index(var, src, key_expr, env, ctx)?;
                    let bytes = join_index_bytes(&map);
                    Ok::<_, EvalError>((Arc::new(map) as Arc<dyn Any + Send + Sync>, bytes))
                })?;
                erased
                    .downcast::<JoinIndex>()
                    // lint: allow(R1) slot key "idx|…" is written only by the
                    // closure above, so the type is fixed by construction
                    .expect("value slot idx|… holds a JoinIndex")
            }
            None => Arc::new(self.build_join_index(var, src, key_expr, env, ctx)?),
        };
        if let Some(sig) = sig {
            self.index_cache
                .borrow_mut()
                .insert(sig.to_string(), Arc::clone(&rc));
        }
        Ok(rc)
    }

    /// The IndexLookup operator's index over `source`: canonical key →
    /// (position, item) pairs in source order. Identical structure and
    /// identical caching discipline to a hash-join build side, so it *is*
    /// one — the planner's signature makes it persistent.
    pub(crate) fn lookup_index(
        &self,
        var: &'a str,
        source: &'a PlanExpr,
        inner_key: &'a PlanExpr,
        sig: &str,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Arc<JoinIndex>> {
        self.join_build_side(var, source, inner_key, Some(sig), env, ctx)
    }

    /// The actual build walk behind [`Evaluator::join_build_side`].
    fn build_join_index(
        &self,
        var: &'a str,
        src: &'a PlanExpr,
        key_expr: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<JoinIndex> {
        let source = self.eval(src, env, ctx)?;
        let mut map: JoinIndex = HashMap::with_capacity(source.len());
        for (i, item) in source.into_iter().enumerate() {
            env.push(var, Arc::new(vec![item.clone()]));
            let keys = self.eval(key_expr, env, ctx);
            env.pop();
            for key in keys? {
                if let Some(canonical) = canonical_key(&atomize(self.store, &key)) {
                    map.entry(canonical).or_default().push((i, item.clone()));
                }
            }
        }
        Ok(map)
    }

    /// Per-item canonical key lists for the probe side, memoized like the
    /// build sides: per-execution first, store-resident when
    /// loop-invariant (aligned with the deterministic source sequence).
    pub(crate) fn join_probe_keys(
        &self,
        var: &'a str,
        key_expr: &'a PlanExpr,
        sig: Option<&str>,
        left: &[Item],
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Arc<Vec<Vec<String>>>> {
        if let Some(sig) = sig {
            if let Some(cached) = self.key_cache.borrow().get(sig) {
                if cached.len() == left.len() {
                    return Ok(Arc::clone(cached));
                }
            }
        }
        let rc = match sig.filter(|_| self.shared_values) {
            Some(sig) => {
                let erased = self.indexes.value_or_build(&format!("keys|{sig}"), || {
                    let keys = self.build_probe_keys(var, key_expr, left, env, ctx)?;
                    let bytes: usize = keys
                        .iter()
                        .flatten()
                        .map(|k| k.capacity() + 24)
                        .sum::<usize>()
                        + keys.capacity() * 24;
                    Ok::<_, EvalError>((Arc::new(keys) as Arc<dyn Any + Send + Sync>, bytes))
                })?;
                let shared = erased
                    .downcast::<Vec<Vec<String>>>()
                    // lint: allow(R1) slot key "keys|…" is written only by the
                    // closure above, so the type is fixed by construction
                    .expect("value slot keys|… holds probe key lists");
                if shared.len() == left.len() {
                    shared
                } else {
                    // Defensive: a probe side whose cardinality diverged
                    // from the shared structure rebuilds locally.
                    Arc::new(self.build_probe_keys(var, key_expr, left, env, ctx)?)
                }
            }
            None => Arc::new(self.build_probe_keys(var, key_expr, left, env, ctx)?),
        };
        if let Some(sig) = sig {
            self.key_cache
                .borrow_mut()
                .insert(sig.to_string(), Arc::clone(&rc));
        }
        Ok(rc)
    }

    /// The actual key-evaluation walk behind [`Evaluator::join_probe_keys`].
    fn build_probe_keys(
        &self,
        var: &'a str,
        key_expr: &'a PlanExpr,
        left: &[Item],
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Vec<Vec<String>>> {
        let mut keys = Vec::with_capacity(left.len());
        for item in left {
            env.push(var, Arc::new(vec![item.clone()]));
            let evaluated = self.eval(key_expr, env, ctx);
            env.pop();
            keys.push(
                evaluated?
                    .iter()
                    .filter_map(|k| canonical_key(&atomize(self.store, k)))
                    .collect::<Vec<String>>(),
            );
        }
        Ok(keys)
    }

    /// Canonicalize an atomized value for join lookup (`None` = NaN,
    /// which matches nothing).
    pub(crate) fn canonical_join_key(&self, item: &Item) -> Option<String> {
        canonical_key(&atomize(self.store, item))
    }

    /// Evaluate the Sort operator's key for the current tuple.
    pub(crate) fn order_key(
        &self,
        f: &'a FlworPlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Option<OrderKey>> {
        match &f.order_by {
            Some((key_expr, _)) => {
                let key_seq = self.eval(key_expr, env, ctx)?;
                Ok(key_seq.first().map(|item| {
                    let s = atomize(self.store, item);
                    let n = s.trim().parse::<f64>().ok();
                    OrderKey { text: s, num: n }
                }))
            }
            None => Ok(None),
        }
    }

    fn eval_some(
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
        let mut cur = Cursor::build(self, source, env, ctx);
        while let Some(next) = cur.next(self) {
            let item = next?;
            self.count_pulls(1);
            env.push(var, Arc::new(vec![item]));
            let found = self.eval_some(bindings, depth + 1, satisfies, env, ctx);
            env.pop();
            if found? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    // ---- PathScan --------------------------------------------------------

    /// The shared element index, resolved (and hit-counted) once per
    /// execution instead of once per expanded context node — IndexScan
    /// expansion is the hottest path in the executor and must not
    /// contend on the manager's counters across worker threads.
    fn element_index(&self) -> &'a xmark_store::ElementIndex {
        self.element_index
            .get_or_init(|| self.indexes.element(self.store))
    }

    /// The shared element index's posting slice for `tag` under `n`, or
    /// `None` when subtree stabbing cannot serve this store.
    pub(crate) fn index_postings(&self, n: Node, tag: &str) -> Option<&'a [u32]> {
        self.element_index().postings_in(tag, n)
    }

    /// The descendant cursor for one planned step: an IndexScan streams
    /// the stabbed posting slice; everything else (and the fallback when
    /// stabbing is invalid) walks the store's native axis cursor.
    pub(crate) fn descendant_iter(
        &self,
        n: Node,
        tag: &'a str,
        access: &StepAccess,
    ) -> DescendantsNamed<'a> {
        if matches!(access, StepAccess::IndexScan) {
            if let Some(slice) = self.index_postings(n, tag) {
                return DescendantsNamed::Extent(slice.iter());
            }
        }
        self.store.descendants_named_iter(n, tag)
    }

    /// Materializing path evaluation with the loop-invariant memo; drains
    /// a [`crate::stream`] path cursor on a miss and publishes the result
    /// to the store-resident value index, so later executions replay a
    /// shared sequence instead of re-walking the store.
    pub(crate) fn eval_path(
        &self,
        p: &'a PathPlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Sequence> {
        if let Some(sig) = &p.memo {
            if let Some(cached) = self.cached_path(sig) {
                return Ok(cached.as_ref().clone());
            }
            let result = self.drain(path_cursor(self, p, env, ctx, true))?;
            let shared = Arc::new(result);
            self.publish_path(sig, Arc::clone(&shared));
            return Ok(shared.as_ref().clone());
        }
        self.drain(path_cursor(self, p, env, ctx, true))
    }

    /// The memoized path sequence for `sig`, if already materialized —
    /// this execution (L1) or any earlier one (the store-resident L2).
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
    /// levels. Streaming cursors call this when a lazy first open drains
    /// to completion (the tee in [`crate::stream`]); `eval_path` calls it
    /// on every materializing miss.
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

    /// Note a streaming open of the memoized path `sig`, returning
    /// whether it had been opened before this execution — the signal that
    /// the loop-invariant path is being re-evaluated and should
    /// materialize into the cache instead of re-walking the store.
    pub(crate) fn note_streamed_path(&self, sig: &str) -> bool {
        !self.streamed_paths.borrow_mut().insert(sig.to_string())
    }

    /// Resolve a path's base items and the index of the first unapplied
    /// step (the root base consumes its first step specially: the first
    /// step matches against the root *element* itself).
    pub(crate) fn root_base(
        &self,
        p: &'a PathPlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<(Sequence, usize)> {
        let steps = &p.steps;
        let mut start_index = 0;
        let current: Sequence = match &p.base {
            PlanBase::Root => {
                let root = self.store.root();
                match steps.first() {
                    None => vec![Item::Node(root)],
                    Some(first) => {
                        start_index = 1;
                        let mut seq: Sequence = Vec::new();
                        match (&first.axis, &first.test) {
                            (Axis::Child, NodeTest::Tag(tag)) => {
                                if self.store.tag_of(root) == Some(tag) {
                                    seq.push(Item::Node(root));
                                }
                            }
                            (Axis::Descendant, NodeTest::Tag(tag)) => {
                                if self.store.tag_of(root) == Some(tag) {
                                    seq.push(Item::Node(root));
                                }
                                seq.extend(
                                    self.descendant_iter(root, tag, &first.access)
                                        .map(Item::Node),
                                );
                            }
                            _ => {
                                // Rare forms (`/*`, `/@x`): evaluate the
                                // step against the root element generically.
                                start_index = 0;
                                seq.push(Item::Node(root));
                            }
                        }
                        if start_index == 1 && !first.preds.is_empty() {
                            let nodes: Vec<Node> = seq
                                .into_iter()
                                .filter_map(|i| match i {
                                    Item::Node(n) => Some(n),
                                    _ => None,
                                })
                                .collect();
                            seq = self
                                .apply_predicates(nodes, &first.preds, env)?
                                .into_iter()
                                .map(Item::Node)
                                .collect();
                        }
                        seq
                    }
                }
            }
            PlanBase::Var(name) => env
                .get(name)
                .map(|s| s.as_ref().clone())
                .ok_or_else(|| EvalError::UndefinedVariable(name.clone()))?,
            PlanBase::Context => vec![ctx.ok_or(EvalError::NoContext)?.clone()],
            PlanBase::Expr(e) => self.eval(e, env, ctx)?,
        };
        Ok((current, start_index))
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
        if let Some(cached) = self.child_values_cache.borrow().get(tag) {
            return Some(Arc::clone(cached));
        }
        let resolved = if build {
            self.indexes.child_values(self.store, tag)
        } else {
            // A peek miss is not cached: a later materializing consumer
            // may still build within this execution.
            self.indexes.child_values_if_built(tag)?
        };
        self.child_values_cache
            .borrow_mut()
            .insert(tag.to_string(), Arc::clone(&resolved));
        Some(resolved)
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
        // Document order + set semantics across merged contexts.
        if multi_context && out.iter().all(|i| matches!(i, Item::Node(_))) {
            out.sort_by(node_order);
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
                if let Some(v) = self.store.attribute(n, name) {
                    out.push(Item::str(v));
                }
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
                let matched: Vec<Node> = self.store.children_named_iter(n, tag).collect();
                let filtered = self.apply_predicates(matched, &step.preds, env)?;
                out.extend(filtered.into_iter().map(Item::Node));
                return Ok(());
            }
            (Axis::Descendant, NodeTest::Tag(tag)) => {
                // IndexScan and native walks share this arm: the helper
                // streams the stabbed posting slice when the plan chose
                // the shared element index.
                if step.preds.is_empty() {
                    out.extend(self.descendant_iter(n, tag, &step.access).map(Item::Node));
                    return Ok(());
                }
                let matched: Vec<Node> = self.descendant_iter(n, tag, &step.access).collect();
                let filtered = self.apply_predicates(matched, &step.preds, env)?;
                out.extend(filtered.into_iter().map(Item::Node));
                return Ok(());
            }
            (Axis::Descendant, NodeTest::Text) => {
                collect_descendant_text(self.store, n, out);
            }
            (Axis::Descendant, NodeTest::Wildcard) => {
                let mut stack: Vec<Node> = self.store.children_iter(n).collect();
                while let Some(c) = stack.pop() {
                    if self.store.tag_of(c).is_some() {
                        out.push(Item::Node(c));
                        stack.extend(self.store.children_iter(c));
                    }
                }
                out[context_start..].sort_by(node_order);
            }
        }
        // Predicates for the non-tag axes above, applied to this context
        // node's matches only.
        if !step.preds.is_empty() {
            let nodes: Vec<Node> = out
                .drain(context_start..)
                .filter_map(|i| match i {
                    Item::Node(n) => Some(n),
                    _ => None,
                })
                .collect();
            let filtered = self.apply_predicates(nodes, &step.preds, env)?;
            out.extend(filtered.into_iter().map(Item::Node));
        }
        Ok(())
    }

    fn apply_predicates(
        &self,
        mut nodes: Vec<Node>,
        preds: &'a [PlanPred],
        env: &mut Env<'a>,
    ) -> EResult<Vec<Node>> {
        for pred in preds {
            nodes = match pred {
                PlanPred::Position(k) => {
                    if *k >= 1 && *k <= nodes.len() {
                        vec![nodes[*k - 1]]
                    } else {
                        Vec::new()
                    }
                }
                PlanPred::Last => match nodes.last() {
                    Some(&n) => vec![n],
                    None => Vec::new(),
                },
                PlanPred::Expr(e) => {
                    let mut kept = Vec::new();
                    for n in nodes {
                        let item = Item::Node(n);
                        // Short-circuit: an existential predicate stops at
                        // its first witness instead of draining the axis.
                        if self.eval_ebv(e, env, Some(&item))? {
                            kept.push(n);
                        }
                    }
                    kept
                }
            };
        }
        Ok(nodes)
    }

    // ---- Aggregate -------------------------------------------------------

    /// `count(prefix//tag)` without node materialization: summary/extent
    /// arithmetic where the backend has it (the paper's Q6/Q7 on System
    /// D), a posting-range length of the shared element index on walking
    /// backends, and a counting cursor walk as the last resort. Blocking
    /// by nature: the answer is one number.
    fn eval_aggregate(
        &self,
        a: &'a AggregatePlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Sequence> {
        let contexts = self.eval_path(&a.input, env, ctx)?;
        let mut total = 0usize;
        for item in contexts {
            let Item::Node(n) = item else {
                return Err(EvalError::PathOverNonNode);
            };
            let indexed = a
                .indexed
                .then(|| self.element_index().count_in(&a.tag, n))
                .flatten();
            total += match indexed {
                Some(count) => count,
                None => self.store.count_descendants_named(n, &a.tag),
            };
        }
        Ok(vec![Item::Num(total as f64)])
    }

    // ---- functions ---------------------------------------------------------

    fn eval_call(
        &self,
        name: &'a str,
        args: &'a [PlanExpr],
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> EResult<Sequence> {
        // `exists`/`empty` are existence checks: pull at most one item
        // from the argument instead of materializing it.
        if let ("exists" | "empty", [arg]) = (name, args) {
            let mut cur = Cursor::build(self, arg, env, ctx);
            let has_item = cur.next(self).transpose()?.is_some();
            return Ok(vec![Item::Bool(if name == "exists" {
                has_item
            } else {
                !has_item
            })]);
        }

        let mut evaluated: Vec<Sequence> = Vec::with_capacity(args.len());
        for a in args {
            evaluated.push(self.eval(a, env, ctx)?);
        }

        match name {
            "count" => {
                expect_arity(name, &evaluated, 1)?;
                Ok(vec![Item::Num(evaluated[0].len() as f64)])
            }
            "sum" => {
                expect_arity(name, &evaluated, 1)?;
                let total: f64 = evaluated[0]
                    .iter()
                    .filter_map(|i| number(self.store, i))
                    .sum();
                Ok(vec![Item::Num(total)])
            }
            "not" => {
                expect_arity(name, &evaluated, 1)?;
                Ok(vec![Item::Bool(!ebv(&evaluated[0]))])
            }
            "empty" => {
                expect_arity(name, &evaluated, 1)?;
                Ok(vec![Item::Bool(evaluated[0].is_empty())])
            }
            "exists" => {
                expect_arity(name, &evaluated, 1)?;
                Ok(vec![Item::Bool(!evaluated[0].is_empty())])
            }
            "contains" => {
                expect_arity(name, &evaluated, 2)?;
                let hay = join_atomized(self.store, &evaluated[0]);
                let needle = join_atomized(self.store, &evaluated[1]);
                Ok(vec![Item::Bool(hay.contains(&needle))])
            }
            "string" => {
                expect_arity(name, &evaluated, 1)?;
                Ok(vec![Item::str(join_atomized(self.store, &evaluated[0]))])
            }
            "data" => {
                expect_arity(name, &evaluated, 1)?;
                Ok(evaluated[0]
                    .iter()
                    .map(|i| Item::str(atomize(self.store, i)))
                    .collect())
            }
            "distinct-values" => {
                expect_arity(name, &evaluated, 1)?;
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for i in &evaluated[0] {
                    let v = atomize(self.store, i);
                    if seen.insert(v.clone()) {
                        out.push(Item::str(v));
                    }
                }
                Ok(out)
            }
            "zero-or-one" => {
                expect_arity(name, &evaluated, 1)?;
                if evaluated[0].len() > 1 {
                    return Err(EvalError::Cardinality("zero-or-one"));
                }
                Ok(evaluated[0].clone())
            }
            "number" => {
                expect_arity(name, &evaluated, 1)?;
                // XQuery `fn:number`: unparseable input (and the empty
                // sequence) is NaN, not the empty sequence.
                let n = evaluated[0]
                    .first()
                    .and_then(|i| number(self.store, i))
                    .unwrap_or(f64::NAN);
                Ok(vec![Item::Num(n)])
            }
            _ => {
                let Some(decl) = self.functions.get(name) else {
                    return Err(EvalError::UnknownFunction(name.to_string()));
                };
                if decl.params.len() != evaluated.len() {
                    return Err(EvalError::Arity(name.to_string()));
                }
                for (param, value) in decl.params.iter().zip(evaluated) {
                    env.push(param, Arc::new(value));
                }
                let result = self.eval(&decl.body, env, ctx);
                for _ in &decl.params {
                    env.pop();
                }
                result
            }
        }
    }

    // ---- constructors ------------------------------------------------------

    fn build_element(
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
                        let seq = self.eval(e, env, ctx)?;
                        // AVT: items joined with single spaces.
                        for (i, item) in seq.iter().enumerate() {
                            if i > 0 {
                                value.push(' ');
                            }
                            value.push_str(&atomize(self.store, item));
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
                PlanContent::Expr(e) => children.extend(self.eval(e, env, ctx)?),
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

    fn general_compare(&self, op: CmpOp, l: &[Item], r: &[Item]) -> bool {
        for a in l {
            let sa = atomize(self.store, a);
            let ta = sa.trim();
            let na = ta.parse::<f64>().ok();
            for b in r {
                let sb = atomize(self.store, b);
                let tb = sb.trim();
                // Both branches compare the *trimmed* values: the numeric
                // path already parsed from trimmed text, so the string
                // fallback must trim too, or whitespace-padded text nodes
                // would fail equality against their trimmed value.
                let matched = match (na, tb.parse::<f64>().ok()) {
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

fn node_order(a: &Item, b: &Item) -> std::cmp::Ordering {
    match (a, b) {
        (Item::Node(x), Item::Node(y)) => x.cmp(y),
        _ => std::cmp::Ordering::Equal,
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

/// Effective boolean value.
pub fn ebv(seq: &[Item]) -> bool {
    match seq.first() {
        None => false,
        Some(Item::Bool(b)) => *b && seq.len() == 1 || seq.len() > 1,
        Some(Item::Num(n)) if seq.len() == 1 => *n != 0.0 && !n.is_nan(),
        Some(Item::Str(s)) if seq.len() == 1 => !s.is_empty(),
        Some(_) => true,
    }
}

fn singleton_number(store: &dyn XmlStore, seq: &[Item]) -> Option<f64> {
    match seq {
        [item] => number(store, item),
        _ => None,
    }
}

fn join_atomized(store: &dyn XmlStore, seq: &[Item]) -> String {
    let mut out = String::new();
    for (i, item) in seq.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&atomize(store, item));
    }
    out
}

/// Approximate resident bytes of a join index, for the store's index
/// accounting (keys, entry overhead, and per-posting item slots).
fn join_index_bytes(map: &JoinIndex) -> usize {
    map.iter()
        .map(|(k, v)| k.capacity() + 48 + v.len() * 48)
        .sum()
}

/// Canonical hash-join key, aligned with the general comparison the
/// nested-loop specification evaluates: numeric values normalize ("40"
/// and "40.0" join, "-0" joins "0"), non-numeric values compare
/// *trimmed* exactly like the string fallback. `None` for NaN — NaN
/// equals nothing, so a NaN key must never enter or probe a join index.
fn canonical_key(s: &str) -> Option<String> {
    match s.trim().parse::<f64>() {
        Ok(n) if n.is_nan() => None,
        Ok(n) => Some(crate::result::format_number(if n == 0.0 { 0.0 } else { n })),
        Err(_) => Some(s.trim().to_string()),
    }
}

fn expect_arity(name: &str, args: &[Sequence], n: usize) -> EResult<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(EvalError::Arity(name.to_string()))
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
        assert_eq!(run("number(/site/people/person/name)"), "NaN");
        assert_eq!(run("count(number(/site/people/person/name))"), "1");
        // The empty sequence coerces to NaN too.
        assert_eq!(run("number(/site/ghosts)"), "NaN");
        // NaN formats canonically and compares unequal to everything,
        // including itself.
        assert_eq!(crate::result::format_number(f64::NAN), "NaN");
        assert_eq!(
            run("number(/site/people/person/name) = number(/site/people/person/name)"),
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
    fn wrong_arity_is_reported() {
        assert!(matches!(run_err("count(1, 2)"), EvalError::Arity(_)));
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
}
