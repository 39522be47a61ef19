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
//! * Project (the `return` expression streams per tuple).
//!
//! **Blocking operators** (buffer internally, still expose a cursor):
//!
//! * Sort (`order by`) collects all tuples before emitting,
//! * Aggregate produces a single number,
//! * Lookup: its index is built once (memoized under the planner's
//!   signature), and each open probes it for the whole matched set,
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
use crate::eval::{
    compare_keys, Bound, EResult, Env, EvalError, Evaluator, Frame, InlineOne, OrderKey,
};
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
    /// A sequence computed at open: a Lookup's matches, `data` and
    /// `distinct-values`.
    Materialized(std::vec::IntoIter<Item>),
    /// At most one item: a literal, a constructed element or a scalar.
    One(Option<Item>),
    /// A shared sequence streamed without cloning the vector (path-memo
    /// hits).
    Shared(Arc<Sequence>, usize),
    /// A variable's items, streamed off its binding (a lone item is a
    /// [`Cursor::One`]).
    Bound(Arc<Frame<'a>>, usize),
    /// A memoized path's open on a memo miss: it records what it emits,
    /// and one complete drain publishes the materialization to the path
    /// memos (including the store-resident value index), so every later
    /// open — in this execution or any future one — replays a
    /// [`Cursor::Shared`] instead of re-walking the store. Early
    /// termination simply drops the buffer, and the next open tees
    /// afresh.
    Tee {
        sig: &'a str,
        inner: Box<Cursor<'a>>,
        buf: Option<Sequence>,
    },
    /// Comma sequence: parts streamed one after another, each opened
    /// with the sequence's `materializing` flag.
    Concat {
        parts: &'a [PlanExpr],
        env: Env<'a>,
        ctx: Option<Item>,
        idx: usize,
        materializing: bool,
        cur: Option<Box<Cursor<'a>>>,
    },
    /// PathScan operator.
    Path(PathCursor<'a>),
    /// FLWOR pipeline: nested loop → (optional Sort) → Project.
    Flwor(Box<FlworCursor<'a>>),
}

impl<'a> Cursor<'a> {
    /// Build the cursor for an expression: the executor's only way to
    /// evaluate one. Paths, FLWORs and comma sequences stream; every
    /// scalar form computes its value here and yields it.
    /// `materializing` marks a consumer that pulls every item (see
    /// [`path_cursor`]).
    pub(crate) fn build(
        ev: &Evaluator<'a>,
        expr: &'a PlanExpr,
        env: &mut Env<'a>,
        ctx: Option<&Item>,
        materializing: bool,
    ) -> Cursor<'a> {
        let scalar = match expr {
            PlanExpr::Empty => return Cursor::Done,
            PlanExpr::Var(name) => {
                return match ev.binding(env, name) {
                    // A lone item is cloned: a node costs no count bump.
                    Ok(frame) => match frame.items() {
                        [item] => Cursor::One(Some(item.clone())),
                        _ => Cursor::Bound(Arc::clone(frame), 0),
                    },
                    Err(e) => Cursor::Failed(Some(e)),
                };
            }
            PlanExpr::Sequence(parts) => {
                return Cursor::Concat {
                    parts,
                    env: env.clone(),
                    ctx: ctx.cloned(),
                    idx: 0,
                    materializing,
                    cur: None,
                }
            }
            PlanExpr::Path(p) => return open_path(ev, p, env, ctx, materializing),
            PlanExpr::Flwor(f) => return flwor_cursor(f, env, ctx, false),
            PlanExpr::Call(name, args) => {
                return ev
                    .call(name, args, env, ctx, materializing)
                    .unwrap_or_else(|e| Cursor::Failed(Some(e)))
            }
            PlanExpr::Lookup(l) => {
                return match ev.lookup(l, env, ctx) {
                    Ok(seq) => Cursor::Materialized(seq.into_iter()),
                    Err(e) => Cursor::Failed(Some(e)),
                }
            }
            PlanExpr::Num(n) => Ok(Some(Item::Num(*n))),
            PlanExpr::Str(s) => Ok(Some(Item::str(s))),
            PlanExpr::Or(_) | PlanExpr::And(_) | PlanExpr::Cmp(..) => {
                ev.eval_ebv(expr, env, ctx).map(|b| Some(Item::Bool(b)))
            }
            PlanExpr::Some {
                bindings,
                satisfies,
            } => ev
                .eval_some(bindings, 0, satisfies, env, ctx)
                .map(|b| Some(Item::Bool(b))),
            PlanExpr::Before(lhs, rhs) => {
                ev.before(lhs, rhs, env, ctx).map(|b| Some(Item::Bool(b)))
            }
            PlanExpr::Arith(op, lhs, rhs) => ev.arith(*op, lhs, rhs, env, ctx),
            PlanExpr::Neg(inner) => ev
                .singleton_number(inner, env, ctx)
                .map(|n| n.map(|n| Item::Num(-n))),
            PlanExpr::Aggregate(a) => ev.aggregate(a, env, ctx).map(|n| Some(Item::Num(n))),
            PlanExpr::Element(ctor) => ev
                .build_element(ctor, env, ctx)
                .map(|elem| Some(Item::Elem(Arc::new(elem)))),
        };
        match scalar {
            Ok(item) => Cursor::One(item),
            Err(e) => Cursor::Failed(Some(e)),
        }
    }

    /// This cursor as an iterator over its items.
    pub(crate) fn iter<'e>(self, ev: &'e Evaluator<'a>) -> Items<'e, 'a> {
        Items { ev, cur: self }
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
            Cursor::One(item) => item.take().map(Ok),
            Cursor::Shared(seq, pos) => {
                let item = seq.get(*pos)?.clone();
                *pos += 1;
                Some(Ok(item))
            }
            Cursor::Bound(frame, pos) => {
                let item = frame.items().get(*pos)?.clone();
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
                materializing,
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
                let part = Cursor::build(ev, part, env, ctx.as_ref(), *materializing);
                *cur = Some(Box::new(part));
            },
            Cursor::Path(p) => p.next(ev),
            Cursor::Flwor(f) => f.next(ev),
        }
    }
}

/// A cursor pulled as an iterator ([`Cursor::iter`]).
pub(crate) struct Items<'e, 'a> {
    ev: &'e Evaluator<'a>,
    cur: Cursor<'a>,
}

impl Iterator for Items<'_, '_> {
    type Item = EResult<Item>;

    fn next(&mut self) -> Option<EResult<Item>> {
        self.cur.next(self.ev)
    }
}

/// Open the path `p`: the one way a memoized path opens. A memo hit (this
/// execution's, or the store's) replays [`Cursor::Shared`]; a miss tees
/// the walk, which publishes the memo if it is drained to the end.
pub(crate) fn open_path<'a>(
    ev: &Evaluator<'a>,
    p: &'a PathPlan,
    env: &mut Env<'a>,
    ctx: Option<&Item>,
    materializing: bool,
) -> Cursor<'a> {
    let Some(sig) = &p.memo else {
        return path_cursor(ev, p, env, ctx, materializing);
    };
    if let Some(cached) = ev.cached_path(sig) {
        return Cursor::Shared(cached, 0);
    }
    Cursor::Tee {
        sig,
        inner: Box::new(path_cursor(ev, p, env, ctx, materializing)),
        buf: Some(Vec::new()),
    }
}

/// Build the PathScan cursor for `p`, bypassing its memo.
/// `materializing` marks callers that will drain the cursor anyway:
/// only they may pay one-time index builds at open; a streaming open
/// must keep its O(first item) cost and only peeks at already-built
/// structures.
fn path_cursor<'a>(
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
    /// Materialized expression-base items.
    Items(std::vec::IntoIter<Item>),
    /// Root-based firsts (the root element, or the first step's matches).
    Nodes(std::vec::IntoIter<Node>),
    /// The context item.
    Context(Option<Item>),
    /// A variable base's items, read off its binding.
    Bound(Arc<Frame<'a>>, usize),
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
            PathSource::Nodes(iter) => iter.next().map(Item::Node),
            PathSource::Context(item) => item.take(),
            PathSource::Bound(frame, pos) => {
                let item = frame.items().get(*pos)?.clone();
                *pos += 1;
                Some(item)
            }
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
    /// A predicated `child::tag` / `descendant::tag`: this context's
    /// matches, predicates applied.
    Nodes(std::vec::IntoIter<Node>),
    /// An unpredicated attribute step's value, if any.
    One(Option<Item>),
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
    /// are planned instead. `active` is the context being read, the
    /// position of its next text node, and whether the store vouches
    /// for the context's index entry
    /// ([`XmlStore::indexed_child_values`]); a declined context's text
    /// nodes are found by walking its `tag` children instead.
    ValueTail {
        values: Arc<ChildValues>,
        tag: &'a str,
        active: Option<(Node, usize, bool)>,
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
    stages: InlineOne<Stage<'a>>,
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
            // A zero-or-one-item base cannot contain an ancestor/
            // descendant pair; a longer one may hold any order, duplicates
            // included.
            (PlanBase::Context, _) => {
                let item = ctx.ok_or(EvalError::NoContext)?.clone();
                (PathSource::Context(Some(item)), 0, false)
            }
            (PlanBase::Var(name), _) => {
                let frame = Arc::clone(ev.binding(env, name)?);
                let nested = frame.items().len() > 1;
                (PathSource::Bound(frame, 0), 0, nested)
            }
            (PlanBase::Expr(e), _) => {
                let items = ev.items(e, env, ctx).collect::<EResult<Sequence>>()?;
                let nested = items.len() > 1;
                (PathSource::Items(items.into_iter()), 0, nested)
            }
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
                        iter: ev.store.descendants_named_iter(root, tag),
                    },
                    1,
                    // The root may contain later matches, and same-tag
                    // descendants can nest.
                    true,
                )
            }
            (PlanBase::Root, _) => {
                let (nodes, start_index) = ev.root_base(p, env)?;
                let nested = nodes.len() > 1;
                (PathSource::Nodes(nodes.into_iter()), start_index, nested)
            }
        };

        // Lower the remaining steps into stages, tracking whether the
        // flowing context set may contain ancestor/descendant pairs (or,
        // straight off a multi-item base, any order) — the one condition
        // under which lazy concatenation is not document order.
        let total = steps.len().saturating_sub(start_index);
        let mut stages = InlineOne::default();
        let mut i = start_index;
        while i < steps.len() {
            let step = &steps[i];
            if i + 2 == steps.len() && !nested {
                if let Some(tag) = &p.inlined_tail {
                    let op = BlockingOp::InlinedTail {
                        tag: tag.as_str(),
                        first: step,
                        second: &steps[i + 1],
                    };
                    stages.push_within(Stage::Blocking { op, out: None }, total);
                    i += 2;
                    continue;
                }
                if let Some(tag) = &p.value_tail {
                    if let Some(values) = ev.child_values(tag, materializing) {
                        let (tag, active) = (tag.as_str(), None);
                        stages.push_within(
                            Stage::ValueTail {
                                values,
                                tag,
                                active,
                            },
                            total,
                        );
                        i += 2;
                        continue;
                    }
                }
            }
            if let StepAccess::IdProbe(literal) = &step.access {
                let op = BlockingOp::IdProbe {
                    step,
                    literal: literal.as_str(),
                };
                stages.push_within(Stage::Blocking { op, out: None }, total);
                nested = false; // the probe yields at most one node
                i += 1;
                continue;
            }
            let stage = if nested {
                Stage::Blocking {
                    op: BlockingOp::Step(step),
                    out: None,
                }
            } else {
                Stage::Lazy { step, active: None }
            };
            stages.push_within(stage, total);
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

        Ok(Cursor::Path(PathCursor {
            env: env.clone(),
            source,
            stages,
        }))
    }

    fn next(&mut self, ev: &Evaluator<'a>) -> Option<EResult<Item>> {
        pull_through(
            ev,
            &mut self.source,
            self.stages.as_mut_slice(),
            &mut self.env,
        )
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
                    Expansion::Nodes(iter) => {
                        if let Some(n) = iter.next() {
                            return Some(Ok(Item::Node(n)));
                        }
                    }
                    Expansion::One(item) => {
                        if let Some(item) = item.take() {
                            return Some(Ok(item));
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
        Stage::ValueTail {
            values,
            tag,
            active,
        } => loop {
            if let Some((n, pos, covered)) = active {
                let next = if *covered {
                    values.get(*n).get(*pos).map(|&id| Node(id))
                } else {
                    nth_child_text(ev.store, *n, tag, *pos)
                };
                if let Some(id) = next {
                    if !*covered {
                        ev.count_pulls(1);
                    }
                    *pos += 1;
                    return Some(Ok(Item::Node(id)));
                }
                *active = None;
            }
            match pull_through(ev, source, upstream, env)? {
                Err(e) => return Some(Err(e)),
                Ok(Item::Node(n)) => {
                    let entry = ev.store.indexed_child_values(values, n);
                    if let Some(texts) = entry {
                        ev.count_pulls(texts.len() as u64);
                    }
                    *active = Some((n, 0, entry.is_some()));
                }
                Ok(_) => return Some(Err(EvalError::PathOverNonNode)),
            }
        },
    }
}

/// The `pos`-th text node, in document order, among the children of
/// `n`'s `tag` children: what a [`Stage::ValueTail`] emits for a context
/// whose index entry the store declines. Recounts from the first child
/// on every call, which keeps the stage free of a per-context buffer;
/// XMark's tails hold one text node per `tag` child.
fn nth_child_text(store: &dyn XmlStore, n: Node, tag: &str, pos: usize) -> Option<Node> {
    store
        .children_named_iter(n, tag)
        .flat_map(|c| store.children_iter(c).filter(|&t| store.is_text_node(t)))
        .nth(pos)
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
/// context's matches, and an attribute step holds its 0–1 values.
fn expand<'a>(
    ev: &Evaluator<'a>,
    n: Node,
    step: &'a PlanStep,
    env: &mut Env<'a>,
) -> EResult<Expansion<'a>> {
    match (&step.axis, &step.test, &step.access) {
        (Axis::Child, NodeTest::Tag(tag), StepAccess::Generic) if step.preds.is_empty() => {
            return Ok(Expansion::Children(ev.store.children_named_iter(n, tag)));
        }
        (Axis::Descendant, NodeTest::Tag(tag), StepAccess::Generic) if step.preds.is_empty() => {
            return Ok(Expansion::Descendants(
                ev.store.descendants_named_iter(n, tag),
            ));
        }
        (Axis::Child | Axis::Descendant, NodeTest::Tag(tag), StepAccess::Generic) => {
            let nodes = ev.tag_step_nodes(n, step, tag, env)?;
            ev.count_pulls(nodes.len() as u64);
            return Ok(Expansion::Nodes(nodes.into_iter()));
        }
        (Axis::Attribute, NodeTest::Tag(name), _) if step.preds.is_empty() => {
            let value = ev.store.attribute(n, name).map(Item::str);
            ev.count_pulls(value.is_some() as u64);
            return Ok(Expansion::One(value));
        }
        _ => {}
    }
    let mut out = Vec::new();
    ev.expand_step(n, step, env, &mut out)?;
    ev.count_pulls(out.len() as u64);
    Ok(Expansion::Queue(out.into_iter()))
}

// ---- FLWOR -----------------------------------------------------------------

/// The FLWOR operator pipeline: the nested-loop tuple producer, an
/// optional Sort buffer, and the streaming Project.
pub(crate) struct FlworCursor<'a> {
    f: &'a FlworPlan,
    producer: NestedLoopProducer<'a>,
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
        let producer = NestedLoopProducer {
            clauses: &f.clauses,
            filters: &f.filters,
            env: env.clone(),
            ctx: ctx.cloned(),
            stack: Vec::with_capacity(f.clauses.len()),
            started: false,
            done: false,
        };
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
                        let p = &mut self.producer;
                        let ret_cursor =
                            Cursor::build(ev, &self.f.ret, &mut p.env, p.ctx.as_ref(), false);
                        *ret = Some(Box::new(ret_cursor));
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
                                    let p = &mut self.producer;
                                    let key = match ev.order_key(f, &mut p.env, p.ctx.as_ref()) {
                                        Ok(k) => k,
                                        Err(e) => return Some(Err(e)),
                                    };
                                    let items = ev.items(&f.ret, &mut p.env, p.ctx.as_ref());
                                    let seq = match items.collect() {
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
                    let items = ev.items(src, &mut self.env, self.ctx.as_ref());
                    let seq = items.collect::<EResult<Sequence>>()?;
                    self.env.push(var, Bound::Seq(seq));
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
                    let cursor = Cursor::build(ev, src, &mut self.env, self.ctx.as_ref(), false);
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
                    self.env.push(var, Bound::One(item));
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
/// Produced by [`crate::stream`](crate::compile::stream); an `Iterator`
/// over `Result<Item, EvalError>`. Items are produced on demand: dropping the
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
        let cursor = Cursor::build(&ev, &plan.body, &mut env, None, false);
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

#[cfg(test)]
mod tests {
    /// Every operator input is a `Cursor`, so the enum's size is paid
    /// per operator and per open. 128 bytes (on 64-bit targets) is its
    /// size since paths stopped boxing their cursor: `Cursor::Path`
    /// holds an `Env` (8), a `PathSource` (48) and an inline `Stage` (72).
    #[test]
    fn cursor_stays_within_128_bytes() {
        let size = std::mem::size_of::<super::Cursor<'_>>();
        assert!(size <= 128, "Cursor grew to {size} bytes");
    }
}
