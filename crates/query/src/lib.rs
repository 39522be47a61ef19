//! The XQuery-subset compiler, planner and executor for the XMark
//! benchmark.
//!
//! The paper (§6) expresses its twenty queries in XQuery; this crate
//! implements the language subset those queries need as an explicit
//! pipeline, mirroring the compile/execute split the paper's Table 2
//! measures — with execution redesigned around **pull-based operator
//! cursors at one granularity**: every cursor answers `next()`, so
//! results leave the engine item by item:
//!
//! ```text
//!   query text
//!      │  parse            (parse.rs — scannerless recursive descent)
//!      ▼
//!   ast::Query
//!      │  plan + optimize  (planner.rs — rule/cost-based, consumes the
//!      ▼                    store's catalog estimates + capabilities)
//!   plan::PhysicalPlan     (plan.rs — PathScan, IdProbe, Aggregate,
//!      │                    NestedLoop, Lookup, Sort, Project;
//!      │  open cursors      explain.rs renders it)
//!      ▼
//!   stream::ResultStream   (stream.rs — Volcano-style next() per
//!      │        │           operator; eval.rs supplies the shared
//!      │        │           step/lookup/memo mechanics)
//!      │        └─ write_to(sink)   one item serialized at a time into
//!      │                            any fmt::Write (IoSink adapts
//!      │  collect                   io::Write)
//!      ▼
//!   result::Sequence       (execute() ≡ stream().collect_seq())
//! ```
//!
//! **Consumption modes.** [`compile::execute`] materializes the whole
//! sequence (kept as a thin wrapper draining the stream);
//! [`compile::stream`] opens a
//! [`stream::ResultStream`] whose [`take`](stream::ResultStream::take),
//! [`exists`](stream::ResultStream::exists) and
//! [`count`](stream::ResultStream::count) fast paths stop pulling as soon
//! as the answer is known; its
//! [`write_to`](stream::ResultStream::write_to) serializes straight
//! into a sink without ever holding the result. Pipelining operators
//! (path steps, FLWOR clause iteration, the `return` projection) never
//! buffer; blocking operators (Sort, Aggregate, Lookup) buffer internally
//! but still expose a cursor. Boolean contexts short-circuit the same way: an existential
//! predicate like `[bidder]` pulls one child, not the whole axis.
//!
//! **One pull protocol.** The full drains
//! ([`collect_seq`](stream::ResultStream::collect_seq), `count`,
//! [`write_to`](stream::ResultStream::write_to)) loop over the same
//! `next()` the early-terminating fast paths use, so `take`/`exists`
//! bounds are exact, `write_to` reaches the sink after the first item,
//! and [`pulls`](stream::ResultStream::pulls) counts items delivered the
//! same way for every consumer.
//!
//! * [`parse`] — parser producing the [`ast`] (FLWOR, paths, constructors,
//!   quantifiers, the `<<` node-order operator, user-defined functions),
//! * [`planner`] — lowers the AST into a [`plan::PhysicalPlan`], making
//!   **every** rewrite decision at compile time: a `for` clause whose
//!   where-conjunct compares a key over its variable (`=`, or `<`, `<=`,
//!   `>`, `>=` against an enclosing clause's variable) with an
//!   expression bound before it becomes a Lookup (every join, equi- or
//!   value join, is a nested loop over range probes of a sorted key
//!   index), the remaining
//!   where-conjuncts are scheduled by predicate pushdown, and steps are
//!   annotated with the access paths the backend's
//!   [`xmark_store::PlannerCaps`] affords (ID probes, positional
//!   indexes, inlined columns, summary counts, and counts answered by
//!   the shared element index — costed on exact posting
//!   cardinalities). Cardinalities come from
//!   [`xmark_store::XmlStore::estimate_step`], which also reports the
//!   catalog touches Table 2 counts as metadata accesses,
//! * [`explain`] — stable one-line-per-operator plan rendering (pinned by
//!   golden tests so planner regressions are visible in review),
//! * [`stream`](mod@stream) — the pull-based operator cursors and the public
//!   [`ResultStream`]; [`eval`] supplies the shared execution mechanics
//!   (step expansion, Lookup indexes and probes, two-level memos) and
//!   contains no pattern-matching — it re-discovers nothing per
//!   execution. Lookup indexes and loop-invariant path
//!   materializations live in the store's persistent
//!   [`xmark_store::IndexManager`] (L2) behind a per-execution memo
//!   (L1): after warmup an execution probes shared structures and
//!   builds nothing,
//! * [`compile()`] — parse + plan in one call; [`compile::Compiled`] is
//!   the reusable artifact a plan cache stores. [`compile::plan`] exposes
//!   the planning phase alone so harnesses can time parse / plan /
//!   execute as three columns,
//! * [`result`] — the item/sequence model, sink-generic serialization
//!   ([`write_sequence`], [`IoSink`]), and the canonicalizer used for
//!   cross-backend output-equivalence testing.
//!
//! One executor serves every store. A sharded union
//! ([`xmark_store::ShardedStore`]) is just another [`xmark_store::XmlStore`]:
//! its axis cursors concatenate the shard runs in global document order,
//! so it streams through the same cursors as a monolithic store.
//! [`scatter::execute_scattered`] survives only as an alias of
//! [`execute`] for the perf lab's adapter.
//!
//! The optimizer oracle compiles every query twice —
//! [`compile::compile_with_mode`] with [`plan::PlanMode::Naive`] yields
//! the pure nested-loop specification — and requires byte-identical
//! output on every backend.
//!
//! # Example
//!
//! ```
//! use xmark_store::NaiveStore;
//! use xmark_query::{run_query, result::serialize_sequence};
//!
//! let store = NaiveStore::load(
//!     r#"<site><people><person id="person0"><name>Ada</name></person></people></site>"#,
//! ).unwrap();
//! let out = run_query(
//!     r#"for $b in document("auction.xml")/site/people/person[@id = "person0"]
//!        return $b/name/text()"#,
//!     &store,
//! ).unwrap();
//! assert_eq!(serialize_sequence(&store, &out), "Ada");
//! ```
//!
//! Streaming with early termination — `take`/`exists` stop the operator
//! cursors as soon as the answer is known:
//!
//! ```
//! use xmark_store::NaiveStore;
//! use xmark_query::{compile, stream};
//!
//! let store = NaiveStore::load(
//!     "<site><people><person/><person/><person/></people></site>",
//! ).unwrap();
//! let compiled = compile("/site/people/person", &store).unwrap();
//! assert!(stream(&compiled, &store).exists().unwrap()); // pulls one item
//! let two = stream(&compiled, &store).take(2).unwrap();
//! assert_eq!(two.len(), 2);
//! let mut out = String::new();
//! stream(&compiled, &store).write_to(&mut out).unwrap(); // sink serialization
//! assert_eq!(out, "<person/>\n<person/>\n<person/>");
//! ```
//!
//! Inspecting a plan:
//!
//! ```
//! use xmark_store::SummaryStore;
//! use xmark_query::compile;
//!
//! let store = SummaryStore::load("<site><a/><a/></site>").unwrap();
//! let compiled = compile("count(/site//a)", &store).unwrap();
//! assert!(compiled.explain().contains("Aggregate count(//a)"));
//! ```

pub mod ast;
pub mod compile;
pub mod eval;
pub mod explain;
pub mod parse;
pub mod plan;
pub mod planner;
pub mod result;
pub mod scatter;
pub mod stream;
pub mod verify;

pub use compile::{
    compile, compile_with_mode, execute, run_query, stream, CompileError, CompileStats, Compiled,
};
pub use eval::EvalError;
pub use explain::explain_plan;
pub use parse::{parse_query, ParseError};
pub use plan::{PhysicalPlan, PlanMode};
pub use scatter::execute_scattered;

pub use result::{
    atomize, canonicalize, serialize_sequence, write_item, write_sequence, IoSink, Item, Sequence,
};
pub use stream::{ResultStream, StreamStats, WriteError};
pub use verify::{verify_plan, verify_plan_against, Invariant, VerifyReport, Violation};
