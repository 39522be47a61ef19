//! # XMark — A Benchmark for XML Data Management
//!
//! A complete Rust reproduction of the VLDB 2002 benchmark by Schmidt,
//! Waas, Kersten, Carey, Manolescu and Busse: the scalable auction-site
//! document generator (`xmlgen`), the twenty XQuery challenge queries, an
//! XQuery-subset compiler/evaluator, and seven storage backends modeling
//! the anonymized systems A–G of the paper's evaluation.
//!
//! ## Quickstart
//!
//! The [`spec::Benchmark`] façade drives a whole session — generate,
//! bulkload, measure — from one builder chain:
//!
//! ```
//! use xmark::prelude::*;
//!
//! // "mini" is the 100 kB preset of the paper's Fig. 4.
//! let report = Benchmark::at_scale("mini")
//!     .systems(&[SystemId::D])
//!     .queries(1..=1)
//!     .run();
//! let m = report.measurement(SystemId::D, 1).unwrap();
//! assert_eq!(m.result_items, 1); // Q1: the name of person0
//! ```
//!
//! ## Streaming results
//!
//! Execution is pull-based end to end: [`xmark_query::compile()`] a query
//! once against a store, then each [`xmark_query::stream()`] call opens a
//! cursor over the physical plan whose `take(n)` / `exists()` / `count()`
//! fast paths stop executing as soon as the answer is known, and whose
//! `write_to(sink)` serializes item by item into any `fmt::Write` (or
//! `io::Write` via `IoSink`) without materializing the result.
//! `execute()` remains as the materializing wrapper — byte-identical,
//! just eager.
//!
//! ```
//! use xmark::prelude::*;
//!
//! let session = Benchmark::at_scale("mini").generate();
//! let loaded = session.load(SystemId::E);
//! let store = loaded.store.as_ref();
//! let people = compile("/site/people/person", store).unwrap();
//! assert!(stream(&people, store).exists().unwrap()); // pulls one person, stops
//! let preview = stream(&people, store).take(10).unwrap(); // pulls ten, stops
//! assert_eq!(preview.len(), 10);
//! let mut out = String::new();
//! let stats = stream(&people, store).write_to(&mut out).unwrap();
//! assert_eq!(stats.items, stream(&people, store).count().unwrap());
//! ```
//!
//! ## Serving concurrent traffic
//!
//! The paper measures single-user latency; production serves many users
//! at once. Every backend is `Send + Sync` (compile-time asserted), so
//! one loaded store is shared across a fixed [`service::QueryService`]
//! worker pool behind an `Arc<dyn XmlStore>` — no copies, no locks on
//! the read path — and a closed-loop run reports per-query latency
//! percentiles plus aggregate QPS:
//!
//! ```
//! use std::sync::Arc;
//! use xmark::prelude::*;
//!
//! let session = Benchmark::at_scale("mini").generate();
//! let store = Arc::from(session.load(SystemId::D).store);
//! let service = QueryService::start(store, 2); // 2 worker threads
//! let report = service.run_mix(&[1, 6, 17], 30);
//! assert_eq!(report.requests, 30);
//! let q17 = report.stats(17).unwrap();
//! assert!(q17.p50 <= q17.p99 && report.qps() > 0.0);
//! ```
//!
//! (The `perflab/` benchmark drives this same service for the repo's
//! throughput and latency record.)
//!
//! Serving composes with the **persistent index layer**: every store
//! owns an [`xmark_store::IndexManager`] whose element postings,
//! attribute values, and join-side value indexes build lazily, exactly
//! once, and are shared by all workers.
//! [`service::QueryService::build_indexes`] warms the whole-document
//! indexes off the request path; [`service::ThroughputReport`] reports index
//! builds and hits per run (zero builds once warm).
//!
//! The loaded stores stay alive in the report, and navigation is exposed
//! as **streaming axis cursors** — no intermediate node sets:
//!
//! ```
//! # use xmark::prelude::*;
//! # let report = Benchmark::at_scale("mini").systems(&[SystemId::D]).queries([]).run();
//! let store = report.load(SystemId::D).unwrap().store.as_ref();
//! let people = store.children_named_iter(store.root(), "people").next().unwrap();
//! let persons = store.descendants_named_iter(people, "person").count();
//! assert!(persons > 10);
//! ```
//!
//! ## Crate layout
//!
//! * [`xmark_gen`] — the deterministic document generator (paper §4),
//! * [`xmark_xml`] — XML tokenizer, DOM, serializer,
//! * [`xmark_rel`] — the tables, values and hash indexes Systems A/B/C
//!   map XML onto,
//! * [`xmark_store`] — the seven storage architectures (§7), all
//!   `Send + Sync`, each reporting its planner capabilities and catalog
//!   selectivity estimates,
//! * [`xmark_query`] — the XQuery subset (§6) as an explicit
//!   parse → plan → pull pipeline: a cost-based planner lowers each
//!   query into a physical plan (`EXPLAIN`-renderable, cached by the
//!   service layer) executed through pull-based operator cursors — a
//!   [`xmark_query::ResultStream`] with early-terminating
//!   `take`/`exists`/`count` and sink-generic `write_to` serialization,
//! * [`queries`] — the twenty benchmark queries,
//! * [`spec`] — scales, workload driver, three-phase measurement types,
//! * [`service`] — the concurrent query service (worker pool, shared
//!   plan cache that survives commits, latency percentiles, QPS).

pub mod queries;
pub mod service;
pub mod spec;

// README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

pub use xmark_gen as gen;
pub use xmark_query as query;
pub use xmark_rel as rel;
pub use xmark_store as store;
pub use xmark_txn as txn;
pub use xmark_xml as xml;

/// Everything needed to run the benchmark.
///
/// The central entry point is [`spec::Benchmark`] — a builder that scales,
/// generates, bulkloads and measures in one chain — with the lower-level
/// pieces (`generate_document`, `load_system`, `measure_query`) still
/// exported for custom harnesses. For concurrent serving,
/// [`service::QueryService`] runs a worker pool over one shared
/// `Arc<dyn XmlStore>` (`Arc::from(session.load(system).store)`).
/// Stores expose navigation as streaming axis cursors
/// ([`xmark_store::XmlStore::children_iter`] and friends).
pub mod prelude {
    pub use crate::queries::{query, BenchmarkQuery, Concept, ALL_QUERIES, TABLE3_QUERIES};
    pub use crate::service::{
        LatencyStats, MixedReport, PlanCache, QueryService, RequestMeasurement, ThroughputReport,
        DEFAULT_PLAN_CACHE,
    };
    pub use crate::spec::{
        canonical_output, generate_document, load_system, measure_query, open_paged,
        open_paged_versioned, scale, Benchmark, BenchmarkReport, GeneratedDocument, LoadedStore,
        QueryMeasurement, Scale, Session, SCALES,
    };
    pub use xmark_gen::{generate_split, generate_string, Generator, GeneratorConfig, AUCTION_DTD};
    pub use xmark_query::{
        compile, compile_with_mode, execute, explain_plan, run_query, serialize_sequence, stream,
        verify_plan, verify_plan_against, write_item, write_sequence, Invariant, IoSink, PlanMode,
        ResultStream, StreamStats, VerifyReport,
    };
    pub use xmark_store::{
        build_store, IndexManager, IndexStats, PagedStore, PlannerCaps, PoolStats, ShardedStore,
        StoreSource, SystemId, XmlStore, DEFAULT_POOL_PAGES,
    };
    pub use xmark_txn::{
        recover_paged, CommitInfo, RecoveryReport, SnapshotStore, Transaction, TxnError,
        VersionedStore,
    };
}
