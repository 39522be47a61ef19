//! Pull-based query execution: Volcano-style operator cursors and the
//! public [`ResultStream`].
//!
//! The materializing contract ("every operator returns a [`Sequence`]")
//! makes memory scale with result size and time-to-first-byte scale with
//! total query time, and forbids short-circuiting consumers. This module
//! replaces it at the operator level: each pipelining operator is a
//! cursor whose `next()` produces one [`Item`] at a time, pulling from
//! its input cursor on demand.
//!
//! **Pipelining operators** (never buffer the stream):
//!
//! * PathScan steps over the store's streaming axis cursors,
//! * NestedLoop clause iteration (for-clause sources are themselves
//!   cursors, so `take(1)` over a FLWOR pulls one binding),
//! * HashJoin probe emission and IndexLookup probe emission,
//! * Project (the `return` expression streams per tuple).
//!
//! **Blocking operators** (buffer internally, still expose a cursor):
//!
//! * Sort (`order by`) collects all tuples before emitting,
//! * Aggregate produces a single number,
//! * HashJoin build sides and IndexLookup indexes (memoized per
//!   execution under the planner's signatures),
//! * a PathScan step whose *input* may contain nested
//!   (ancestor/descendant) context nodes: merged output must be
//!   re-sorted into document order, which needs the whole step result.
//!   The cursor tracks this statically — child steps from non-nested
//!   contexts stay lazy, descendant steps mark their output as
//!   potentially nested, and so does a base of more than one item,
//!   whose order is unknown (the first step sorts and deduplicates it).
//!
//! # One pull granularity
//!
//! `next()` is the only pull protocol, from the store's axis cursors up
//! to [`ResultStream`]. Every consumer — the early-terminating ones
//! ([`take`], [`exists`], FLWOR binding iteration, effective-boolean-value
//! probes) and the full drains ([`count`], [`collect_seq`], [`write_to`])
//! — loops over it, so a cursor never fetches more than the one item it
//! returns: `take(n)` pulls nothing past item `n`, `exists()` pulls at
//! most one, and `write_to` hands the sink its first byte after the
//! first item. A stream may be advanced with
//! [`next_item`](ResultStream::next_item) and then drained; the drain
//! yields exactly the remaining suffix.
//!
//! [`ResultStream`] is the public face: an iterator over
//! `Result<Item, EvalError>` with early-terminating [`take`],
//! [`exists`] and [`count`] fast paths and sink-generic
//! [`write_to`] serialization.
//!
//! [`take`]: ResultStream::take
//! [`exists`]: ResultStream::exists
//! [`count`]: ResultStream::count
//! [`collect_seq`]: ResultStream::collect_seq
//! [`write_to`]: ResultStream::write_to

use std::fmt;
use std::sync::Arc;

use xmark_store::{ChildValues, ChildrenNamed, DescendantsNamed, Node, XmlStore};

use crate::ast::{Axis, NodeTest};
use crate::eval::{compare_keys, EResult, Env, EvalError, Evaluator, JoinIndex, OrderKey};
use crate::plan::*;
use crate::result::{write_item, Item, Sequence};

// ---- the operator cursor ---------------------------------------------------

/// One operator cursor. `next` pulls the next item, consulting the
/// evaluator for sub-expression evaluation and the per-execution memos.
pub(crate) enum Cursor<'a> {
    /// Exhausted (or empty to begin with).
    Done,
    /// An error to report once, then fused.
    Failed(Option<EvalError>),
    /// A fully materialized sequence (scalar expressions, and the
    /// re-open of a memoized path).
    Materialized(std::vec::IntoIter<Item>),
    /// A shared sequence streamed without cloning the vector (variable
    /// bindings, path-memo hits).
    Shared(Arc<Sequence>, usize),
    /// A lazy first open of a loop-invariant path that records what it
    /// emits: one complete drain publishes the materialization to the
    /// path memos (including the store-resident value index), so every
    /// later open — in this execution or any future one — replays a
    /// [`Cursor::Shared`] instead of re-walking the store. Early
    /// termination simply drops the buffer.
    Tee {
        sig: &'a str,
        inner: Box<Cursor<'a>>,
        buf: Option<Sequence>,
    },
    /// Comma sequence: parts streamed one after another.
    Concat {
        parts: &'a [PlanExpr],
        env: Env<'a>,
        ctx: Option<Item>,
        idx: usize,
        cur: Option<Box<Cursor<'a>>>,
    },
    /// PathScan operator.
    Path(Box<PathCursor<'a>>),
    /// FLWOR pipeline: binding strategy → (optional Sort) → Project.
    Flwor(Box<FlworCursor<'a>>),
}

impl<'a> Cursor<'a> {
    /// Build the cursor for an expression. Streamable operators get real
    /// cursors; everything else evaluates eagerly into a
    /// [`Cursor::Materialized`].
    pub(crate) fn build(
        ev: &Evaluator<'a>,
        expr: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
    ) -> Cursor<'a> {
        match expr {
            PlanExpr::Empty => Cursor::Done,
            PlanExpr::Var(name) => match env.get(name) {
                Some(seq) => Cursor::Shared(Arc::clone(seq), 0),
                None => Cursor::Failed(Some(EvalError::UndefinedVariable(name.clone()))),
            },
            PlanExpr::Sequence(parts) => Cursor::Concat {
                parts,
                env: env.clone(),
                ctx: ctx.cloned(),
                idx: 0,
                cur: None,
            },
            PlanExpr::Path(p) => {
                if let Some(sig) = &p.memo {
                    if let Some(cached) = ev.cached_path(sig) {
                        return Cursor::Shared(cached, 0);
                    }
                    // A second open within one execution proves the
                    // loop-invariant path is being re-evaluated (an inner
                    // clause restarted per outer binding): materialize it
                    // into the path cache so every later open replays the
                    // sequence instead of re-walking the store. First
                    // opens stay lazy — a one-shot top-level path keeps
                    // its time-to-first-item — but tee what they emit, so
                    // one complete drain publishes the materialization
                    // for every later execution against this store.
                    if ev.note_streamed_path(sig) {
                        return match ev.eval_path(p, env, ctx) {
                            Ok(seq) => Cursor::Materialized(seq.into_iter()),
                            Err(e) => Cursor::Failed(Some(e)),
                        };
                    }
                    return Cursor::Tee {
                        sig,
                        inner: Box::new(path_cursor(ev, p, env, ctx, false)),
                        buf: Some(Vec::new()),
                    };
                }
                path_cursor(ev, p, env, ctx, false)
            }
            PlanExpr::Flwor(f) => flwor_cursor(f, env, ctx, false),
            other => match ev.eval(other, env, ctx) {
                Ok(seq) => Cursor::Materialized(seq.into_iter()),
                Err(e) => Cursor::Failed(Some(e)),
            },
        }
    }

    /// Pull the next item.
    pub(crate) fn next(&mut self, ev: &Evaluator<'a>) -> Option<EResult<Item>> {
        match self {
            Cursor::Done => None,
            Cursor::Failed(e) => {
                let err = e.take()?;
                *self = Cursor::Done;
                Some(Err(err))
            }
            Cursor::Materialized(iter) => iter.next().map(Ok),
            Cursor::Shared(seq, pos) => {
                let item = seq.get(*pos)?.clone();
                *pos += 1;
                Some(Ok(item))
            }
            Cursor::Tee { sig, inner, buf } => match inner.next(ev) {
                Some(Ok(item)) => {
                    if let Some(buffered) = buf {
                        buffered.push(item.clone());
                    }
                    Some(Ok(item))
                }
                Some(Err(e)) => {
                    *buf = None; // a failed walk must not be published
                    Some(Err(e))
                }
                None => {
                    if let Some(buffered) = buf.take() {
                        ev.publish_path(sig, Arc::new(buffered));
                    }
                    None
                }
            },
            Cursor::Concat {
                parts,
                env,
                ctx,
                idx,
                cur,
            } => loop {
                if let Some(c) = cur {
                    match c.next(ev) {
                        Some(r) => return Some(r),
                        None => *cur = None,
                    }
                }
                let part = parts.get(*idx)?;
                *idx += 1;
                *cur = Some(Box::new(Cursor::build(ev, part, env, ctx.as_ref())));
            },
            Cursor::Path(p) => p.next(ev),
            Cursor::Flwor(f) => f.next(ev),
        }
    }
}

/// Build the PathScan cursor for `p` (no memo handling — callers check
/// the path cache first). `materializing` marks callers that will drain
/// the cursor anyway (scalar contexts, the path memo): only they may
/// pay one-time index builds at open; a streaming open must keep its
/// O(first item) cost and only peeks at already-built structures.
pub(crate) fn path_cursor<'a>(
    ev: &Evaluator<'a>,
    p: &'a PathPlan,
    env: &mut Env<'a>,
    ctx: Option<&Item>,
    materializing: bool,
) -> Cursor<'a> {
    match PathCursor::build(ev, p, env, ctx, materializing) {
        Ok(cursor) => cursor,
        Err(e) => Cursor::Failed(Some(e)),
    }
}

/// Build the FLWOR cursor for `f`. `for_ebv` skips the Sort operator —
/// an effective-boolean-value consumer only asks whether *any* tuple
/// exists, which sorting cannot change.
pub(crate) fn flwor_cursor<'a>(
    f: &'a FlworPlan,
    env: &mut Env<'a>,
    ctx: Option<&Item>,
    for_ebv: bool,
) -> Cursor<'a> {
    Cursor::Flwor(Box::new(FlworCursor::build(f, env, ctx, for_ebv)))
}

// ---- PathScan --------------------------------------------------------------

/// Where a streaming path's items originate.
enum PathSource<'a> {
    /// Materialized base items (variable, context and expression bases,
    /// root-child firsts).
    Items(std::vec::IntoIter<Item>),
    /// `//tag` from the document root, streamed off the store's
    /// descendant cursor (the root element itself may match first).
    RootDescendants {
        pending: Option<Node>,
        iter: DescendantsNamed<'a>,
    },
}

impl<'a> PathSource<'a> {
    fn next(&mut self, ev: &Evaluator<'a>) -> Option<Item> {
        match self {
            PathSource::Items(iter) => iter.next(),
            PathSource::RootDescendants { pending, iter } => {
                let node = pending.take().or_else(|| iter.next())?;
                ev.count_pulls(1);
                Some(Item::Node(node))
            }
        }
    }
}

/// The in-flight expansion of one context node under a lazy step.
enum Expansion<'a> {
    /// Unpredicated `child::tag`, streamed off the store cursor.
    Children(ChildrenNamed<'a>),
    /// Unpredicated `descendant::tag`, streamed off the store cursor.
    Descendants(DescendantsNamed<'a>),
    /// Everything else: this context's matches, predicates applied,
    /// buffered per context (bounded by one node's matches).
    Queue(std::vec::IntoIter<Item>),
}

/// One planned step in the streaming pipeline.
enum Stage<'a> {
    /// Pipelining step: expands one upstream context at a time. Only
    /// legal when the upstream can never interleave (no nested context
    /// nodes), so lazy emission order *is* document order.
    Lazy {
        step: &'a PlanStep,
        active: Option<Expansion<'a>>,
    },
    /// Blocking stage: drains the upstream once, applies `op` to the
    /// whole context set, then replays the result.
    Blocking {
        op: BlockingOp<'a>,
        out: Option<std::vec::IntoIter<Item>>,
    },
    /// Planned `…/tag/text()` tail over the shared typed child-value
    /// index, covering the final two steps — **pipelining**: one
    /// upstream context is expanded at a time (its text nodes come
    /// straight off the index), so early termination never drains the
    /// upstream. Only pushed when the upstream cannot nest and the
    /// index resolved at open time; otherwise the two generic steps
    /// are planned instead.
    ValueTail {
        values: Arc<ChildValues>,
        active: Option<std::vec::IntoIter<Item>>,
    },
}

/// What a [`Stage::Blocking`] applies to its drained context set.
enum BlockingOp<'a> {
    /// One generic step: per-context expansion, then document order and
    /// set semantics across the merged contexts.
    Step(&'a PlanStep),
    /// Planned `tag[@id = "…"]` probe over the whole context set, with
    /// generic fallback when the store has no ID index.
    IdProbe {
        step: &'a PlanStep,
        literal: &'a str,
    },
    /// Planned `…/tag/text()` tail over inlined entity columns, covering
    /// the final two steps; generic fallback when a context node is not
    /// covered. Only planned over contexts that cannot nest, so the
    /// per-context answers concatenate in document order.
    InlinedTail {
        tag: &'a str,
        first: &'a PlanStep,
        second: &'a PlanStep,
    },
}

impl<'a> BlockingOp<'a> {
    fn apply(&self, ev: &Evaluator<'a>, current: &[Item], env: &mut Env<'a>) -> EResult<Sequence> {
        match *self {
            BlockingOp::Step(step) => ev.apply_step(current, step, env),
            BlockingOp::IdProbe { step, literal } => match ev.id_probe(current, step, literal)? {
                Some(seq) => Ok(seq),
                None => ev.apply_step(current, step, env),
            },
            BlockingOp::InlinedTail { tag, first, second } => {
                match ev.try_inlined_tail(current, tag)? {
                    Some(seq) => Ok(seq),
                    None => {
                        let mid = ev.apply_step(current, first, env)?;
                        ev.apply_step(&mid, second, env)
                    }
                }
            }
        }
    }
}

/// The PathScan operator as a pull pipeline: a base source plus one
/// [`Stage`] per remaining step.
pub(crate) struct PathCursor<'a> {
    env: Env<'a>,
    source: PathSource<'a>,
    stages: Vec<Stage<'a>>,
}

impl<'a> PathCursor<'a> {
    /// Lower a path plan into a cursor. Bases are resolved eagerly; a
    /// base of more than one item enters the pipeline as possibly
    /// nested, so its first step runs as a blocking stage that sorts and
    /// deduplicates it.
    fn build(
        ev: &Evaluator<'a>,
        p: &'a PathPlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
        materializing: bool,
    ) -> EResult<Cursor<'a>> {
        let steps = &p.steps;

        // Resolve the base. The root base consumes its first step
        // specially; `//tag` stays lazy unless predicated.
        let (source, start_index, mut nested) = match (&p.base, steps.first()) {
            (PlanBase::Root, Some(first))
                if matches!(
                    (&first.axis, &first.test),
                    (Axis::Descendant, NodeTest::Tag(_))
                ) && first.preds.is_empty() =>
            {
                let NodeTest::Tag(tag) = &first.test else {
                    unreachable!("guarded by the match arm");
                };
                let root = ev.store.root();
                let pending = (ev.store.tag_of(root) == Some(tag)).then_some(root);
                (
                    PathSource::RootDescendants {
                        pending,
                        // IndexScan steps stream the stabbed posting slice
                        // of the shared element index instead of walking.
                        iter: ev.descendant_iter(root, tag, &first.access),
                    },
                    1,
                    // The root may contain later matches, and same-tag
                    // descendants can nest.
                    true,
                )
            }
            _ => {
                let (items, start_index) = ev.root_base(p, env, ctx)?;
                // A zero-or-one-item base cannot contain an
                // ancestor/descendant pair; a longer one may hold any
                // order, duplicates included.
                let nested = items.len() > 1;
                (PathSource::Items(items.into_iter()), start_index, nested)
            }
        };

        // Lower the remaining steps into stages, tracking whether the
        // flowing context set may contain ancestor/descendant pairs (or,
        // straight off a multi-item base, any order) — the one condition
        // under which lazy concatenation is not document order.
        let mut stages = Vec::with_capacity(steps.len().saturating_sub(start_index));
        let mut i = start_index;
        while i < steps.len() {
            let step = &steps[i];
            if i + 2 == steps.len() && !nested {
                if let Some(tag) = &p.inlined_tail {
                    stages.push(Stage::Blocking {
                        op: BlockingOp::InlinedTail {
                            tag: tag.as_str(),
                            first: step,
                            second: &steps[i + 1],
                        },
                        out: None,
                    });
                    i += 2;
                    continue;
                }
                if let Some(tag) = &p.value_tail {
                    if let Some(values) = ev.child_values(tag, materializing) {
                        stages.push(Stage::ValueTail {
                            values,
                            active: None,
                        });
                        i += 2;
                        continue;
                    }
                }
            }
            if let StepAccess::IdProbe(literal) = &step.access {
                stages.push(Stage::Blocking {
                    op: BlockingOp::IdProbe {
                        step,
                        literal: literal.as_str(),
                    },
                    out: None,
                });
                nested = false; // the probe yields at most one node
                i += 1;
                continue;
            }
            stages.push(if nested {
                Stage::Blocking {
                    op: BlockingOp::Step(step),
                    out: None,
                }
            } else {
                Stage::Lazy { step, active: None }
            });
            nested = match (&step.axis, &step.test) {
                // Text nodes are leaves; attribute steps yield strings.
                (_, NodeTest::Text) | (Axis::Attribute, _) => false,
                // Same-tag (or any-tag) descendants can nest.
                (Axis::Descendant, _) => true,
                // Children of non-nested contexts cannot nest; children
                // of nested contexts still can.
                (Axis::Child, _) => nested,
            };
            i += 1;
        }

        Ok(Cursor::Path(Box::new(PathCursor {
            env: env.clone(),
            source,
            stages,
        })))
    }

    fn next(&mut self, ev: &Evaluator<'a>) -> Option<EResult<Item>> {
        pull_through(ev, &mut self.source, &mut self.stages, &mut self.env)
    }
}

/// Pull one item out of the stage pipeline `stages` fed by `source`.
/// Recursion over the stage slice: the last stage pulls its contexts from
/// the stages before it.
fn pull_through<'a>(
    ev: &Evaluator<'a>,
    source: &mut PathSource<'a>,
    stages: &mut [Stage<'a>],
    env: &mut Env<'a>,
) -> Option<EResult<Item>> {
    let Some((stage, upstream)) = stages.split_last_mut() else {
        return source.next(ev).map(Ok);
    };
    match stage {
        Stage::Lazy { step, active } => loop {
            if let Some(exp) = active {
                match exp {
                    Expansion::Children(iter) => {
                        if let Some(n) = iter.next() {
                            ev.count_pulls(1);
                            return Some(Ok(Item::Node(n)));
                        }
                    }
                    Expansion::Descendants(iter) => {
                        if let Some(n) = iter.next() {
                            ev.count_pulls(1);
                            return Some(Ok(Item::Node(n)));
                        }
                    }
                    Expansion::Queue(iter) => {
                        if let Some(item) = iter.next() {
                            return Some(Ok(item));
                        }
                    }
                }
                *active = None;
            }
            match pull_through(ev, source, upstream, env)? {
                Err(e) => return Some(Err(e)),
                Ok(Item::Node(n)) => match expand(ev, n, step, env) {
                    Ok(exp) => *active = Some(exp),
                    Err(e) => return Some(Err(e)),
                },
                Ok(_) => return Some(Err(EvalError::PathOverNonNode)),
            }
        },
        Stage::Blocking { op, out } => {
            let iter = match out {
                Some(iter) => iter,
                None => {
                    let result = drain_upstream(ev, source, upstream, env)
                        .and_then(|current| op.apply(ev, &current, env));
                    let seq = match result {
                        Ok(seq) => seq,
                        Err(e) => return Some(Err(e)),
                    };
                    ev.count_pulls(seq.len() as u64);
                    out.insert(seq.into_iter())
                }
            };
            iter.next().map(Ok)
        }
        Stage::ValueTail { values, active } => loop {
            if let Some(iter) = active {
                if let Some(item) = iter.next() {
                    return Some(Ok(item));
                }
                *active = None;
            }
            match pull_through(ev, source, upstream, env)? {
                Err(e) => return Some(Err(e)),
                Ok(Item::Node(n)) => {
                    let items: Vec<Item> = values
                        .get(n)
                        .iter()
                        .map(|&id| Item::Node(Node(id)))
                        .collect();
                    ev.count_pulls(items.len() as u64);
                    *active = Some(items.into_iter());
                }
                Ok(_) => return Some(Err(EvalError::PathOverNonNode)),
            }
        },
    }
}

/// Drain everything the upstream pipeline still has — the entry into a
/// blocking stage.
fn drain_upstream<'a>(
    ev: &Evaluator<'a>,
    source: &mut PathSource<'a>,
    upstream: &mut [Stage<'a>],
    env: &mut Env<'a>,
) -> EResult<Sequence> {
    let mut out = Vec::new();
    while let Some(r) = pull_through(ev, source, upstream, env) {
        out.push(r?);
    }
    Ok(out)
}

/// Expand one context node under a lazy step: big extents stream off the
/// store's axis cursors; predicated or specialized steps buffer this one
/// context's matches.
fn expand<'a>(
    ev: &Evaluator<'a>,
    n: Node,
    step: &'a PlanStep,
    env: &mut Env<'a>,
) -> EResult<Expansion<'a>> {
    if step.preds.is_empty() {
        match (&step.axis, &step.test, &step.access) {
            (Axis::Child, NodeTest::Tag(tag), StepAccess::Generic) => {
                return Ok(Expansion::Children(ev.store.children_named_iter(n, tag)));
            }
            // IndexScan descendants stream off the shared posting slice;
            // generic ones off the native axis cursor — same enum.
            (Axis::Descendant, NodeTest::Tag(tag), StepAccess::Generic | StepAccess::IndexScan) => {
                return Ok(Expansion::Descendants(ev.descendant_iter(
                    n,
                    tag,
                    &step.access,
                )));
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    ev.expand_step(n, step, env, &mut out)?;
    ev.count_pulls(out.len() as u64);
    Ok(Expansion::Queue(out.into_iter()))
}

// ---- FLWOR -----------------------------------------------------------------

/// The FLWOR operator pipeline: a tuple [`Producer`] (the binding
/// strategy), an optional Sort buffer, and the streaming Project.
pub(crate) struct FlworCursor<'a> {
    f: &'a FlworPlan,
    producer: Producer<'a>,
    mode: FlworMode<'a>,
}

enum FlworMode<'a> {
    /// No Sort: tuples stream straight through the Project expression.
    Stream { ret: Option<Box<Cursor<'a>>> },
    /// Sort: all tuples buffer with their keys, then emit in key order.
    Sorted {
        ascending: bool,
        buf: Option<std::vec::IntoIter<Item>>,
    },
}

impl<'a> FlworCursor<'a> {
    fn build(
        f: &'a FlworPlan,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
        for_ebv: bool,
    ) -> FlworCursor<'a> {
        let producer = Producer::build(f, env, ctx);
        let mode = match &f.order_by {
            Some((_, ascending)) if !for_ebv => FlworMode::Sorted {
                ascending: *ascending,
                buf: None,
            },
            _ => FlworMode::Stream { ret: None },
        };
        FlworCursor { f, producer, mode }
    }

    fn next(&mut self, ev: &Evaluator<'a>) -> Option<EResult<Item>> {
        match &mut self.mode {
            FlworMode::Stream { ret } => loop {
                if let Some(cursor) = ret {
                    match cursor.next(ev) {
                        Some(r) => return Some(r),
                        None => *ret = None,
                    }
                }
                match self.producer.advance(ev) {
                    Err(e) => return Some(Err(e)),
                    Ok(false) => return None,
                    Ok(true) => {
                        let f = self.f;
                        let (env, ctx) = self.producer.tuple_scope();
                        let ctx = ctx.cloned();
                        *ret = Some(Box::new(Cursor::build(ev, &f.ret, env, ctx.as_ref())));
                    }
                }
            },
            FlworMode::Sorted { ascending, buf } => {
                let iter = match buf {
                    Some(iter) => iter,
                    None => {
                        // Sort is a blocking operator: collect every
                        // tuple's key and projected items, then emit in
                        // key order.
                        let mut tuples: Vec<(Option<OrderKey>, Sequence)> = Vec::new();
                        loop {
                            match self.producer.advance(ev) {
                                Err(e) => return Some(Err(e)),
                                Ok(false) => break,
                                Ok(true) => {
                                    let f = self.f;
                                    let (env, ctx) = self.producer.tuple_scope();
                                    let ctx = ctx.cloned();
                                    let key = match ev.order_key(f, env, ctx.as_ref()) {
                                        Ok(k) => k,
                                        Err(e) => return Some(Err(e)),
                                    };
                                    let seq = match ev.eval(&f.ret, env, ctx.as_ref()) {
                                        Ok(s) => s,
                                        Err(e) => return Some(Err(e)),
                                    };
                                    tuples.push((key, seq));
                                }
                            }
                        }
                        tuples.sort_by(|a, b| {
                            let ord = compare_keys(a.0.as_ref(), b.0.as_ref());
                            if *ascending {
                                ord
                            } else {
                                ord.reverse()
                            }
                        });
                        let flat: Sequence = tuples.into_iter().flat_map(|(_, seq)| seq).collect();
                        buf.insert(flat.into_iter())
                    }
                };
                iter.next().map(Ok)
            }
        }
    }
}

/// The binding strategies as tuple producers: `advance` binds the next
/// tuple's variables in the owned environment (filters and residual
/// predicates already applied) and returns whether one exists.
enum Producer<'a> {
    Loop(NestedLoopProducer<'a>),
    Hash(HashJoinProducer<'a>),
    Lookup(IndexLookupProducer<'a>),
}

impl<'a> Producer<'a> {
    fn build(f: &'a FlworPlan, env: &mut Env<'a>, ctx: Option<&Item>) -> Producer<'a> {
        match &f.strategy {
            Strategy::NestedLoop { clauses, filters } => Producer::Loop(NestedLoopProducer {
                clauses,
                filters,
                env: env.clone(),
                ctx: ctx.cloned(),
                stack: Vec::with_capacity(clauses.len()),
                started: false,
                done: false,
            }),
            Strategy::HashJoin {
                probe_var,
                probe_src,
                probe_key,
                probe_sig,
                build_var,
                build_src,
                build_key,
                build_sig,
                hoisted,
                residual,
                ..
            } => Producer::Hash(HashJoinProducer {
                probe_var,
                probe_src,
                probe_key,
                probe_sig: probe_sig.as_deref(),
                build_var,
                build_src,
                build_key,
                build_sig: build_sig.as_deref(),
                hoisted,
                residual,
                env: env.clone(),
                ctx: ctx.cloned(),
                state: None,
                probe_bound: false,
                build_bound: false,
                done: false,
            }),
            Strategy::IndexLookup {
                var,
                source,
                inner_key,
                outer_key,
                sig,
                residual,
                ..
            } => Producer::Lookup(IndexLookupProducer {
                var,
                source,
                inner_key,
                outer_key,
                sig,
                residual,
                env: env.clone(),
                ctx: ctx.cloned(),
                matched: None,
                bound: false,
                done: false,
            }),
        }
    }

    fn advance(&mut self, ev: &Evaluator<'a>) -> EResult<bool> {
        match self {
            Producer::Loop(p) => p.advance(ev),
            Producer::Hash(p) => p.advance(ev),
            Producer::Lookup(p) => p.advance(ev),
        }
    }

    /// The environment (with the current tuple's bindings) and outer
    /// context the Project/Sort expressions evaluate in.
    fn tuple_scope(&mut self) -> (&mut Env<'a>, Option<&Item>) {
        match self {
            Producer::Loop(p) => (&mut p.env, p.ctx.as_ref()),
            Producer::Hash(p) => (&mut p.env, p.ctx.as_ref()),
            Producer::Lookup(p) => (&mut p.env, p.ctx.as_ref()),
        }
    }
}

/// Clause-by-clause iteration executing the planner's Filter schedule.
/// For-clause sources are cursors: bindings are pulled one at a time, so
/// downstream early termination (`take`, `exists`) stops the whole
/// pipeline after the current binding.
struct NestedLoopProducer<'a> {
    clauses: &'a [PlanClause],
    /// `clauses.len() + 1` filter buckets; bucket `d` is evaluated once
    /// `d` clauses are bound.
    filters: &'a [Vec<PlanExpr>],
    env: Env<'a>,
    ctx: Option<Item>,
    /// One entry per *started* clause; `For` entries hold the live source
    /// cursor. An entry's binding is pushed in `env` while it is on the
    /// stack.
    stack: Vec<ClauseState<'a>>,
    started: bool,
    done: bool,
}

enum ClauseState<'a> {
    For(Cursor<'a>),
    Let,
}

impl<'a> NestedLoopProducer<'a> {
    fn filters_pass(&mut self, ev: &Evaluator<'a>, depth: usize) -> EResult<bool> {
        for filter in &self.filters[depth] {
            if !ev.eval_ebv(filter, &mut self.env, self.ctx.as_ref())? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn advance(&mut self, ev: &Evaluator<'a>) -> EResult<bool> {
        if self.done {
            return Ok(false);
        }
        let n = self.clauses.len();
        let mut depth; // next clause index to start
        if !self.started {
            self.started = true;
            if !self.filters_pass(ev, 0)? {
                self.done = true;
                return Ok(false);
            }
            depth = 0;
        } else {
            match self.retreat(ev)? {
                Some(d) => depth = d,
                None => {
                    self.done = true;
                    return Ok(false);
                }
            }
        }
        // Descend: start clauses depth..n, backtracking on exhaustion or
        // filter failure.
        while depth < n {
            let d = depth;
            match &self.clauses[d] {
                PlanClause::Let(var, src) => {
                    let seq = ev.eval(src, &mut self.env, self.ctx.as_ref())?;
                    self.env.push(var, Arc::new(seq));
                    self.stack.push(ClauseState::Let);
                    if self.filters_pass(ev, d + 1)? {
                        depth = d + 1;
                    } else {
                        match self.retreat(ev)? {
                            Some(nd) => depth = nd,
                            None => {
                                self.done = true;
                                return Ok(false);
                            }
                        }
                    }
                }
                PlanClause::For(var, src) => {
                    let cursor = Cursor::build(ev, src, &mut self.env, self.ctx.as_ref());
                    match self.bind_next(ev, d, var, cursor)? {
                        Some(nd) => depth = nd,
                        None => match self.retreat(ev)? {
                            Some(nd) => depth = nd,
                            None => {
                                self.done = true;
                                return Ok(false);
                            }
                        },
                    }
                }
            }
        }
        Ok(true)
    }

    /// Pull bindings from clause `d`'s cursor until one passes the
    /// filter bucket; push it (cursor and binding) and return the next
    /// depth to start, or `None` when the cursor runs dry.
    fn bind_next(
        &mut self,
        ev: &Evaluator<'a>,
        d: usize,
        var: &'a str,
        mut cursor: Cursor<'a>,
    ) -> EResult<Option<usize>> {
        loop {
            match cursor.next(ev) {
                None => return Ok(None),
                Some(Err(e)) => return Err(e),
                Some(Ok(item)) => {
                    ev.count_pulls(1);
                    self.env.push(var, Arc::new(vec![item]));
                    self.stack.push(ClauseState::For(cursor));
                    if self.filters_pass(ev, d + 1)? {
                        return Ok(Some(d + 1));
                    }
                    let Some(ClauseState::For(c)) = self.stack.pop() else {
                        unreachable!("pushed a For entry above");
                    };
                    self.env.pop();
                    cursor = c;
                }
            }
        }
    }

    /// Advance the deepest advanceable clause, unwinding exhausted ones.
    /// Returns the next depth to descend from, or `None` when the whole
    /// iteration is exhausted.
    fn retreat(&mut self, ev: &Evaluator<'a>) -> EResult<Option<usize>> {
        loop {
            match self.stack.pop() {
                None => return Ok(None),
                Some(ClauseState::Let) => {
                    self.env.pop();
                }
                Some(ClauseState::For(cursor)) => {
                    self.env.pop();
                    let d = self.stack.len(); // this clause's index
                    let PlanClause::For(var, _) = &self.clauses[d] else {
                        unreachable!("For state at a For clause");
                    };
                    if let Some(next) = self.bind_next(ev, d, var, cursor)? {
                        return Ok(Some(next));
                    }
                }
            }
        }
    }
}

/// Equi-join as a hash join. The build side buffers (memoized under the
/// planner's signature); the probe side streams tuple by tuple.
struct HashJoinProducer<'a> {
    probe_var: &'a str,
    probe_src: &'a PlanExpr,
    probe_key: &'a PlanExpr,
    probe_sig: Option<&'a str>,
    build_var: &'a str,
    build_src: &'a PlanExpr,
    build_key: &'a PlanExpr,
    build_sig: Option<&'a str>,
    hoisted: &'a [HoistedEq],
    residual: &'a [PlanExpr],
    env: Env<'a>,
    ctx: Option<Item>,
    state: Option<HashJoinState>,
    probe_bound: bool,
    build_bound: bool,
    done: bool,
}

struct HashJoinState {
    table: Arc<JoinIndex>,
    left: Vec<Item>,
    probe_keys: Arc<Vec<Vec<String>>>,
    /// Per hoisted conjunct: canonical key lists aligned with `left`
    /// (computed once per execution, persisted when loop-invariant).
    hoisted_keys: Vec<Arc<Vec<Vec<String>>>>,
    /// Per hoisted conjunct: the outer side's canonical keys, evaluated
    /// once per producer open instead of once per pair.
    hoisted_outer: Vec<Vec<String>>,
    /// Next probe item index.
    li: usize,
    /// Distinct matched build items for the current probe item, in build
    /// order.
    matched: std::vec::IntoIter<Item>,
}

impl<'a> HashJoinProducer<'a> {
    fn advance(&mut self, ev: &Evaluator<'a>) -> EResult<bool> {
        if self.done {
            return Ok(false);
        }
        if self.state.is_none() {
            // Build side: hash the (canonicalized) keys of the inner
            // source. When loop-invariant, the table is built once per
            // execution and reused — the hoisting a relational optimizer
            // performs when the join sits inside a correlated subquery
            // (Q9). The probe key lists are memoized the same way.
            let table = ev.join_build_side(
                self.build_var,
                self.build_src,
                self.build_key,
                self.build_sig,
                &mut self.env,
                self.ctx.as_ref(),
            )?;
            let left = ev.eval(self.probe_src, &mut self.env, self.ctx.as_ref())?;
            let probe_keys = ev.join_probe_keys(
                self.probe_var,
                self.probe_key,
                self.probe_sig,
                &left,
                &mut self.env,
                self.ctx.as_ref(),
            )?;
            let mut hoisted_keys = Vec::with_capacity(self.hoisted.len());
            let mut hoisted_outer = Vec::with_capacity(self.hoisted.len());
            for h in self.hoisted {
                hoisted_keys.push(ev.join_probe_keys(
                    self.probe_var,
                    &h.probe_key,
                    h.sig.as_deref(),
                    &left,
                    &mut self.env,
                    self.ctx.as_ref(),
                )?);
                let outer = ev.eval(&h.outer, &mut self.env, self.ctx.as_ref())?;
                hoisted_outer.push(
                    outer
                        .iter()
                        .filter_map(|i| ev.canonical_join_key(i))
                        .collect(),
                );
            }
            self.state = Some(HashJoinState {
                table,
                left,
                probe_keys,
                hoisted_keys,
                hoisted_outer,
                li: 0,
                matched: Vec::new().into_iter(),
            });
        }
        if self.build_bound {
            self.env.pop();
            self.build_bound = false;
        }
        loop {
            // Initialized above; the guard keeps the pull path panic-free.
            let Some(state) = self.state.as_mut() else {
                return Ok(false);
            };
            if let Some(item) = state.matched.next() {
                self.env.push(self.build_var, Arc::new(vec![item]));
                self.build_bound = true;
                if self.residual_passes(ev)? {
                    return Ok(true);
                }
                self.env.pop();
                self.build_bound = false;
                continue;
            }
            // Next probe item.
            if self.probe_bound {
                self.env.pop();
                self.probe_bound = false;
            }
            if state.li >= state.left.len() {
                self.done = true;
                return Ok(false);
            }
            let li = state.li;
            state.li += 1;
            // Hoisted probe-side equalities: a probe item failing any of
            // them produces no pair for this open (the outer side does
            // not involve the build variable), so skip it before probing
            // the table — this replaces a per-pair path re-evaluation
            // with a set intersection over precomputed keys.
            let hoisted_pass = state
                .hoisted_keys
                .iter()
                .zip(&state.hoisted_outer)
                .all(|(keys, outer)| keys[li].iter().any(|k| outer.contains(k)));
            if !hoisted_pass {
                continue;
            }
            // Distinct matched build items, preserving build order (the
            // nested loop visits inner items in order for each outer
            // item).
            let mut matched: Vec<(usize, &Item)> = Vec::new();
            for key in &state.probe_keys[li] {
                if let Some(entries) = state.table.get(key) {
                    matched.extend(entries.iter().map(|(i, item)| (*i, item)));
                }
            }
            matched.sort_by_key(|(i, _)| *i);
            matched.dedup_by_key(|(i, _)| *i);
            let items: Vec<Item> = matched.into_iter().map(|(_, item)| item.clone()).collect();
            let probe_item = state.left[li].clone();
            state.matched = items.into_iter();
            ev.count_pulls(1);
            self.env.push(self.probe_var, Arc::new(vec![probe_item]));
            self.probe_bound = true;
        }
    }

    fn residual_passes(&mut self, ev: &Evaluator<'a>) -> EResult<bool> {
        for pred in self.residual {
            if !ev.eval_ebv(pred, &mut self.env, self.ctx.as_ref())? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Decorrelated lookup join (Q8's correlated inner query): a lookup index
/// over the source keyed by the inner key, probed with the outer key from
/// the enclosing scope. The index buffers (memoized); the matched items
/// stream.
struct IndexLookupProducer<'a> {
    var: &'a str,
    source: &'a PlanExpr,
    inner_key: &'a PlanExpr,
    outer_key: &'a PlanExpr,
    sig: &'a str,
    residual: &'a [PlanExpr],
    env: Env<'a>,
    ctx: Option<Item>,
    matched: Option<std::vec::IntoIter<Item>>,
    bound: bool,
    done: bool,
}

impl<'a> IndexLookupProducer<'a> {
    fn advance(&mut self, ev: &Evaluator<'a>) -> EResult<bool> {
        if self.done {
            return Ok(false);
        }
        if self.matched.is_none() {
            let index = ev.lookup_index(
                self.var,
                self.source,
                self.inner_key,
                self.sig,
                &mut self.env,
                self.ctx.as_ref(),
            )?;
            // Probe with the outer key(s).
            let outer_keys = ev.eval(self.outer_key, &mut self.env, self.ctx.as_ref())?;
            let mut matched: Vec<(usize, Item)> = Vec::new();
            for key in outer_keys {
                let Some(canonical) = ev.canonical_join_key(&key) else {
                    continue; // NaN matches nothing
                };
                if let Some(items) = index.get(&canonical) {
                    matched.extend(items.iter().cloned());
                }
            }
            matched.sort_by_key(|(i, _)| *i);
            matched.dedup_by_key(|(i, _)| *i);
            self.matched = Some(
                matched
                    .into_iter()
                    .map(|(_, item)| item)
                    .collect::<Vec<_>>()
                    .into_iter(),
            );
        }
        if self.bound {
            self.env.pop();
            self.bound = false;
        }
        loop {
            // Initialized above; the guard keeps the pull path panic-free.
            let Some(item) = self.matched.as_mut().and_then(Iterator::next) else {
                self.done = true;
                return Ok(false);
            };
            ev.count_pulls(1);
            self.env.push(self.var, Arc::new(vec![item]));
            self.bound = true;
            if self.residual_passes(ev)? {
                return Ok(true);
            }
            self.env.pop();
            self.bound = false;
        }
    }

    fn residual_passes(&mut self, ev: &Evaluator<'a>) -> EResult<bool> {
        for pred in self.residual {
            if !ev.eval_ebv(pred, &mut self.env, self.ctx.as_ref())? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

// ---- the public stream -----------------------------------------------------

/// What a [`ResultStream::write_to`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Items serialized.
    pub items: usize,
    /// Bytes written to the sink.
    pub bytes: u64,
}

/// Why a [`ResultStream::write_to`] call failed.
#[derive(Debug)]
pub enum WriteError {
    /// The query failed mid-stream (items already written stay written).
    Eval(EvalError),
    /// The sink rejected a write. For [`crate::result::IoSink`] the
    /// underlying `io::Error` is retrievable from the sink.
    Sink(fmt::Error),
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::Eval(e) => write!(f, "query failed mid-stream: {e}"),
            WriteError::Sink(_) => write!(f, "result sink rejected a write"),
        }
    }
}

impl std::error::Error for WriteError {}

impl From<EvalError> for WriteError {
    fn from(e: EvalError) -> Self {
        WriteError::Eval(e)
    }
}

/// A pull-based stream of query results.
///
/// Produced by [`crate::stream`](crate::compile::stream) /
/// [`crate::Compiled::stream`]; an `Iterator` over
/// `Result<Item, EvalError>`. Items are produced on demand: dropping the
/// stream (or using [`take`](ResultStream::take) /
/// [`exists`](ResultStream::exists)) stops pulling from the operator
/// tree, so upstream work is never performed for items nobody consumes.
pub struct ResultStream<'a> {
    ev: Evaluator<'a>,
    cursor: Cursor<'a>,
    fused: bool,
}

impl<'a> ResultStream<'a> {
    /// Open a stream over `plan` against `store`.
    pub fn new(plan: &'a PhysicalPlan, store: &'a dyn XmlStore) -> Self {
        let ev = Evaluator::new(store, plan);
        let mut env = Env::default();
        let cursor = Cursor::build(&ev, &plan.body, &mut env, None);
        ResultStream {
            ev,
            cursor,
            fused: false,
        }
    }

    /// The store this stream reads from.
    pub fn store(&self) -> &'a dyn XmlStore {
        self.ev.store
    }

    /// Items delivered through operator cursors so far — the probe the
    /// early-termination tests assert on: `exists()`/`take(n)` pull
    /// strictly fewer items than a full drain, and a drain that follows
    /// `k` [`next_item`](ResultStream::next_item) calls ends on the same
    /// total as a fresh full drain.
    pub fn pulls(&self) -> u64 {
        self.ev.pulls()
    }

    /// Pull the next item. After an error the stream is fused.
    pub fn next_item(&mut self) -> Option<Result<Item, EvalError>> {
        if self.fused {
            return None;
        }
        match self.cursor.next(&self.ev) {
            Some(Err(e)) => {
                self.fused = true;
                Some(Err(e))
            }
            other => other,
        }
    }

    /// At most the first `n` items, pulling nothing past them.
    pub fn take(mut self, n: usize) -> Result<Sequence, EvalError> {
        let mut out = Vec::with_capacity(n.min(64));
        while out.len() < n {
            match self.next_item() {
                None => break,
                Some(item) => out.push(item?),
            }
        }
        Ok(out)
    }

    /// Whether the result has at least one item — pulls at most one.
    pub fn exists(mut self) -> Result<bool, EvalError> {
        Ok(self.next_item().transpose()?.is_some())
    }

    /// The result cardinality, draining the stream without keeping or
    /// serializing any item.
    ///
    /// Consumes the stream: a by-ref receiver would lose the method
    /// resolution race against [`Iterator::count`] at by-value call
    /// sites. Use [`ResultStream::collect_seq`] (which borrows) when
    /// the stream must stay inspectable — e.g. to read
    /// [`ResultStream::pulls`] after the drain.
    pub fn count(mut self) -> Result<usize, EvalError> {
        let mut n = 0;
        while let Some(item) = self.next_item() {
            item?;
            n += 1;
        }
        Ok(n)
    }

    /// Drain into a materialized sequence — `execute()` is exactly this.
    pub fn collect_seq(&mut self) -> Result<Sequence, EvalError> {
        let mut out = Vec::new();
        while let Some(item) = self.next_item() {
            out.push(item?);
        }
        Ok(out)
    }

    /// Serialize the stream into `sink`, one item per line, byte-identical
    /// to [`crate::result::serialize_sequence`] of the materialized
    /// result — without ever holding more than one item, so the sink
    /// sees its first byte after the first pull. Use
    /// [`crate::result::IoSink`] to target an [`std::io::Write`].
    pub fn write_to<W: fmt::Write + ?Sized>(
        &mut self,
        sink: &mut W,
    ) -> Result<StreamStats, WriteError> {
        let mut counted = CountingSink { sink, bytes: 0 };
        let mut items = 0usize;
        while let Some(item) = self.next_item() {
            let item = item?;
            if items > 0 {
                fmt::Write::write_char(&mut counted, '\n').map_err(WriteError::Sink)?;
            }
            write_item(self.ev.store, &item, &mut counted).map_err(WriteError::Sink)?;
            items += 1;
        }
        Ok(StreamStats {
            items,
            bytes: counted.bytes,
        })
    }
}

impl Iterator for ResultStream<'_> {
    type Item = Result<Item, EvalError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_item()
    }
}

/// Counts the bytes flowing through to the wrapped sink.
struct CountingSink<'w, W: fmt::Write + ?Sized> {
    sink: &'w mut W,
    bytes: u64,
}

impl<W: fmt::Write + ?Sized> fmt::Write for CountingSink<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.sink.write_str(s)?;
        self.bytes += s.len() as u64;
        Ok(())
    }
}
