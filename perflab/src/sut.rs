//! The one adapter between the harness and the system under test.
//!
//! Every call into `xmark` is made here and nowhere else, and nothing of
//! `xmark` but the opaque handle types below leaves this file: reports
//! are converted into the harness's own plain structs ([`Round`],
//! [`Footprint`], [`Counters`]). A later façade-narrowing PR that keeps
//! this list working keeps the benchmark working.
//!
//! **Pinned public surface**
//!
//! * generate / parse / load: `gen::generate_string`,
//!   `gen::GeneratorConfig::at_factor`, `gen::generate_sharded`,
//!   `xml::parse_document`, `spec::load_system`,
//!   `store::ShardedStore::from_shards`, `store::PagedStore::create_at`,
//!   `spec::open_paged`, `spec::open_paged_versioned`
//!   (→ `txn::RecoveryReport::replayed`), `store::SystemId::EXTENDED`;
//! * serve: `service::QueryService::{start_source, build_indexes,
//!   run_mix, run_mixed}`, `service::DEFAULT_PLAN_CACHE`, the fields of
//!   `ThroughputReport` (`requests`, `plan_cache_hits`,
//!   `plan_cache_misses`, `index_builds`, `index_hits`, `result_bytes`,
//!   `per_query`), of `LatencyStats` (`query`, `count`, `p50`, `p95`,
//!   `ttfi_p50`, `result_items`) and of `MixedReport` (`read`, `commits`,
//!   `commit_p50`, `commit_p95`);
//! * transactions: `txn::VersionedStore::{snapshot, begin, base}`,
//!   `txn::Transaction::{insert_subtree, delete_subtree, commit}`,
//!   `txn::TxnError::Conflict`;
//! * the decomposed request pipeline: `store::StoreSource::snapshot`,
//!   `query::parse_query`, `query::compile::plan` (+
//!   `Compiled::stats.metadata_accesses`), `query::stream` (+
//!   `ResultStream::{next_item, pulls}`), `query::execute_scattered`,
//!   `query::write_sequence`, `queries::query`, `spec::canonical_output`;
//! * `XmlStore` probes: `size_bytes`, `index_size_bytes`, `disk_bytes`,
//!   `paged_stats` (every `PoolStats` field), `txn_wal` (+
//!   `LogManager::size_bytes`), `indexes().stats()`, `shard_part_count`,
//!   `root`, `descendants_named_iter`, `children_named_iter`,
//!   `count_descendants_named`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xmark::gen::{generate_sharded, generate_string, GeneratorConfig};
use xmark::query::{compile, execute_scattered, parse_query, write_sequence, PlanMode, Sequence};
use xmark::service::{LatencyStats, QueryService, ThroughputReport, DEFAULT_PLAN_CACHE};
use xmark::store::{Node, PagedStore, ShardedStore, StoreSource, XmlStore};
use xmark::txn::{TxnError, VersionedStore};

use crate::mix;
use crate::trace::{Counter, Counters, Tracer};

/// A loaded store, shared the way the service layer consumes it.
pub type Store = Arc<dyn XmlStore>;
/// Where a request pins its snapshot.
pub type Source = Arc<dyn StoreSource>;
/// A running worker pool.
pub type Service = QueryService;
/// The MVCC write head over a store.
pub type Versioned = Arc<VersionedStore>;
/// A parsed XML document.
pub type Document = xmark::xml::Document;
/// A storage backend, `A`–`H`.
pub type SystemId = xmark::store::SystemId;

/// All eight backends, in the paper's order.
pub const BACKENDS: [SystemId; 8] = SystemId::EXTENDED;
/// System E — the backend of the three in-memory lookup workloads.
pub const SYSTEM_E: SystemId = SystemId::E;
/// System G — the reference the oracle compares every store against.
pub const SYSTEM_G: SystemId = SystemId::G;
/// System H — the disk-resident backend.
pub const SYSTEM_H: SystemId = SystemId::H;

/// The backend's letter (`"A"`…`"H"`), as used in metric names.
pub fn letter(system: SystemId) -> String {
    format!("{system:?}")
}

// ---- generate / parse / load ------------------------------------------------

/// The canonical (generator seed 0) benchmark document at `factor`.
pub fn generate(factor: f64) -> String {
    generate_string(&GeneratorConfig::at_factor(factor))
}

pub fn parse_xml(xml: &str) -> Document {
    xmark::xml::parse_document(xml).expect("the benchmark document parses")
}

/// Bulkload `xml` into an in-memory backend (`A`–`G`).
pub fn load(system: SystemId, xml: &str) -> Store {
    Arc::from(xmark::spec::load_system(system, xml).store)
}

/// Generate the canonical document as `shards` entity shards plus the
/// global head, bulkload each into `system` and assemble the union view.
pub fn load_sharded(system: SystemId, factor: f64, shards: usize) -> Store {
    let files = generate_sharded(&GeneratorConfig::at_factor(factor), shards);
    let parts = files
        .iter()
        .map(|f| xmark::spec::load_system(system, &f.content).store)
        .collect();
    Arc::new(ShardedStore::from_shards(parts).expect("shard skeletons match"))
}

/// Bulkload `doc` into a System H page file at `path` (WAL alongside)
/// through a pool of `pool_pages` frames, flush it and close it. Returns
/// the number of pages written.
pub fn persist_paged(path: &Path, doc: &Document, pool_pages: usize) -> u32 {
    let store = PagedStore::create_at(path, doc, pool_pages).expect("page file bulkload");
    store.num_pages()
}

/// Open a persisted page file cold with a pool of `pool_pages` frames.
pub fn open_paged(path: &Path, pool_pages: usize) -> Store {
    Arc::from(
        xmark::spec::open_paged(path, Some(pool_pages))
            .expect("page file opens")
            .store,
    )
}

/// Open a persisted page file for transactions, replaying its WAL.
/// Returns the write head and the number of commits replayed.
pub fn open_versioned(path: &Path, pool_pages: usize) -> (Versioned, usize) {
    let (store, report) =
        xmark::spec::open_paged_versioned(path, Some(pool_pages)).expect("page file recovers");
    (store, report.replayed)
}

/// The currently published snapshot of a versioned store.
pub fn snapshot(versioned: &Versioned) -> Store {
    versioned.snapshot()
}

/// The store a versioned store was opened over.
pub fn base(versioned: &Versioned) -> Store {
    Arc::clone(versioned.base())
}

pub fn source_of(store: &Store) -> Source {
    Arc::new(Arc::clone(store))
}

pub fn source_of_versioned(versioned: &Versioned) -> Source {
    Arc::clone(versioned) as Source
}

// ---- probes -------------------------------------------------------------------

/// Bytes a store occupies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Footprint {
    /// Resident bytes, built indexes included.
    pub resident: usize,
    /// The built indexes' share of `resident`.
    pub index: usize,
    /// Page file + WAL.
    pub disk: usize,
}

pub fn footprint(store: &dyn XmlStore) -> Footprint {
    Footprint {
        resident: store.size_bytes(),
        index: store.index_size_bytes(),
        disk: store.disk_bytes(),
    }
}

/// The system's own counters, read at a span boundary.
pub fn counters(store: &dyn XmlStore) -> Counters {
    let pool = store.paged_stats().unwrap_or_default();
    let index = store.indexes().stats();
    let mut c = Counters::default();
    c[Counter::PoolHits] = pool.hits;
    c[Counter::PoolMisses] = pool.misses;
    c[Counter::PoolEvictions] = pool.evictions;
    c[Counter::PagesRead] = pool.pages_read;
    c[Counter::PagesWritten] = pool.pages_written;
    c[Counter::DirtyWritebacks] = pool.dirty_writebacks;
    c[Counter::IndexBuilds] = index.builds;
    c[Counter::IndexHits] = index.hits;
    c[Counter::WalBytes] = store.txn_wal().map_or(0, |wal| wal.size_bytes() as u64);
    c
}

pub fn count_named(store: &dyn XmlStore, tag: &str) -> usize {
    store.count_descendants_named(store.root(), tag)
}

pub fn query_text(number: usize) -> &'static str {
    xmark::queries::query(number).text
}

/// The canonical output of query `number` — what the oracle compares.
pub fn canonical(store: &dyn XmlStore, number: usize) -> String {
    xmark::spec::canonical_output(store, number)
}

// ---- serve ------------------------------------------------------------------

/// Start a pool of `workers` threads; every request pins whatever
/// snapshot `source` publishes when it is dispatched.
pub fn serve(source: &Source, workers: usize) -> Service {
    QueryService::start_source(Arc::clone(source), workers, DEFAULT_PLAN_CACHE)
}

/// Build the store-walk indexes off the request path.
pub fn warm_indexes(service: &Service) -> Duration {
    service.build_indexes()
}

/// One query's latencies inside one round.
#[derive(Debug, Clone, Copy)]
pub struct QueryLat {
    pub query: usize,
    /// Samples behind the percentiles.
    pub count: usize,
    pub p50_s: f64,
    pub p95_s: f64,
    pub ttfi_p50_s: f64,
    /// Result cardinality the workers saw.
    pub items: usize,
}

/// What one closed-loop call produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub requests: usize,
    /// Harness wall time around the call.
    pub wall_s: f64,
    pub result_bytes: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub index_builds: u64,
    pub index_hits: u64,
    pub per_query: Vec<QueryLat>,
    pub commits: usize,
    pub commit_p50_s: f64,
    pub commit_p95_s: f64,
}

fn round_of(report: &ThroughputReport, wall: Duration) -> Round {
    Round {
        requests: report.requests,
        wall_s: wall.as_secs_f64(),
        result_bytes: report.result_bytes,
        plan_hits: report.plan_cache_hits,
        plan_misses: report.plan_cache_misses,
        index_builds: report.index_builds,
        index_hits: report.index_hits,
        per_query: report
            .per_query
            .iter()
            .map(|s: &LatencyStats| QueryLat {
                query: s.query,
                count: s.count,
                p50_s: s.p50.as_secs_f64(),
                p95_s: s.p95.as_secs_f64(),
                ttfi_p50_s: s.ttfi_p50.as_secs_f64(),
                items: s.result_items,
            })
            .collect(),
        ..Round::default()
    }
}

/// `requests` read requests cycling through `mix`, closed loop.
pub fn run_mix(service: &Service, mix: &[usize], requests: usize) -> Round {
    let start = Instant::now();
    let report = service.run_mix(mix, requests);
    round_of(&report, start.elapsed())
}

/// As [`run_mix`] with the writer lane committing `write_pct` times per
/// 100 completed reads on the collector thread.
pub fn run_mixed(
    service: &Service,
    mix: &[usize],
    requests: usize,
    write_pct: u32,
    lane: &mut WriterLane,
) -> Round {
    let mut off = Tracer::new(false);
    let start = Instant::now();
    let report = service.run_mixed(mix, requests, write_pct, &mut || {
        Some(lane.commit_one(&mut off))
    });
    let wall = start.elapsed();
    Round {
        commits: report.commits,
        commit_p50_s: report.commit_p50.as_secs_f64(),
        commit_p95_s: report.commit_p95.as_secs_f64(),
        ..round_of(&report.read, wall)
    }
}

// ---- transactions ---------------------------------------------------------------

const BIDDER: &str = "<bidder><date>28/07/2026</date><time>12:00:00</time>\
                      <personref person=\"person0\"/><increase>4.50</increase></bidder>";

/// The writer lane: even calls append a `<bidder>` to the next open
/// auction (in a seeded order), odd calls delete it again, so the
/// document stays bounded and its final state is checkable.
pub struct WriterLane {
    store: Versioned,
    auctions: Vec<Node>,
    pending: Option<Node>,
    /// Commits made, and commits refused with a conflict.
    pub commits: usize,
    pub conflicts: usize,
    baseline_bidders: usize,
}

impl WriterLane {
    pub fn new(store: &Versioned, seed: u64) -> WriterLane {
        let snap = store.snapshot();
        let mut auctions: Vec<Node> = snap
            .descendants_named_iter(snap.root(), "open_auction")
            .collect();
        mix::shuffle(&mut auctions, seed);
        WriterLane {
            store: Arc::clone(store),
            auctions,
            pending: None,
            commits: 0,
            conflicts: 0,
            baseline_bidders: count_named(snap.as_ref(), "bidder"),
        }
    }

    /// One commit, with `txn.begin` / `txn.stage` / `txn.commit` spans
    /// under a `commit` span. Returns the commit's wall time.
    pub fn commit_one(&mut self, t: &mut Tracer) -> Duration {
        let start = Instant::now();
        let head = self.store.snapshot();
        let read = || counters(head.as_ref());
        t.next_request();
        let outer = t.enter("commit", "", read);
        let span = t.enter("txn.begin", "", read);
        let mut txn = self.store.begin();
        t.exit(span, read);
        let span = t.enter("txn.stage", "", read);
        let pending_after = match self.pending {
            Some(auction) => {
                let bidder = head
                    .children_named_iter(auction, "bidder")
                    .last()
                    .expect("the bidder the previous call inserted");
                txn.delete_subtree(bidder);
                None
            }
            None => {
                let auction = self.auctions[(self.commits / 2) % self.auctions.len()];
                txn.insert_subtree(auction, BIDDER);
                Some(auction)
            }
        };
        t.exit(span, read);
        let span = t.enter("txn.commit", "", read);
        match txn.commit() {
            Ok(_) => {
                self.commits += 1;
                self.pending = pending_after;
            }
            Err(TxnError::Conflict) => self.conflicts += 1,
            Err(e) => panic!("writer lane commit: {e}"),
        }
        t.exit(span, read);
        t.exit(outer, read);
        start.elapsed()
    }

    /// Whether an inserted bidder still waits for its delete.
    pub fn pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The parity invariant: a store that holds every acknowledged commit
    /// has exactly this many `<bidder>` elements — the loaded ones plus
    /// the one insert not yet paired with its delete.
    pub fn expected_bidders(&self) -> usize {
        self.baseline_bidders + usize::from(self.pending())
    }
}

// ---- the decomposed request pipeline ---------------------------------------------

/// What one request returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    pub items: usize,
    pub bytes: u64,
}

#[derive(Default)]
struct CountingSink(u64);

impl std::fmt::Write for CountingSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len() as u64;
        Ok(())
    }
}

/// Serve query `number` on the harness thread through the public
/// pipeline, one span per layer: `request` → `service.pin`,
/// `query.parse`, `query.plan`, `query.exec.first_item`,
/// `query.exec.drain`, `query.serialize`. A sharded union has no
/// streaming first item: the whole scatter-gather is its first-item span.
pub fn request(source: &dyn StoreSource, number: usize, t: &mut Tracer) -> Served {
    let tag = mix::QUERY_TAGS[number];
    t.next_request();
    let outer = t.enter("request", tag, Counters::default);

    let span = t.enter("service.pin", tag, Counters::default);
    let store = source.snapshot();
    t.exit(span, Counters::default);
    let store = store.as_ref();
    let read = || counters(store);

    let span = t.enter("query.parse", tag, read);
    let parsed = parse_query(query_text(number)).expect("benchmark query parses");
    t.exit(span, read);

    let span = t.enter("query.plan", tag, read);
    let compiled = compile::plan(&parsed, store, PlanMode::Optimized);
    t.add(|c| c[Counter::MetadataAccesses] += compiled.stats.metadata_accesses);
    t.exit(span, read);

    let seq: Sequence = if store.shard_part_count() >= 2 {
        let span = t.enter("query.exec.first_item", tag, read);
        let seq = execute_scattered(&compiled, store).expect("benchmark query executes");
        t.exit(span, read);
        let span = t.enter("query.exec.drain", tag, read);
        t.exit(span, read);
        seq
    } else {
        let mut stream = xmark::query::stream(&compiled, store);
        let mut seq = Vec::new();
        let span = t.enter("query.exec.first_item", tag, read);
        let head = stream.next_item();
        t.exit(span, read);
        let span = t.enter("query.exec.drain", tag, read);
        if let Some(item) = head {
            seq.push(item.expect("benchmark query executes"));
            for item in stream.by_ref() {
                seq.push(item.expect("benchmark query executes"));
            }
        }
        t.add(|c| c[Counter::Pulls] += stream.pulls());
        t.exit(span, read);
        seq
    };

    let span = t.enter("query.serialize", tag, read);
    let mut sink = CountingSink::default();
    write_sequence(store, &seq, &mut sink).expect("the counting sink accepts every write");
    t.exit(span, read);

    let served = Served {
        items: seq.len(),
        bytes: sink.0,
    };
    t.add(|c| {
        c[Counter::Items] += served.items as u64;
        c[Counter::Bytes] += served.bytes;
    });
    t.exit(outer, Counters::default);
    served
}
