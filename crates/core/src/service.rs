//! The concurrent query service: a fixed worker pool executing a
//! closed-loop mix of benchmark queries against one shared store.
//!
//! The paper's Table 3 measures single-user latency; this module extends
//! the architecture comparison to *throughput under load* — the axis a
//! production deployment cares about. Every backend is `Send + Sync`
//! (compile-time asserted in `xmark-store`), so a loaded store is shared
//! across workers behind an `Arc<dyn XmlStore>` with no copying and no
//! locking on the read path: the lazily built indexes and buffer pools
//! synchronize internally, and a compile keeps its statistics to itself
//! (each catalog estimate reports its own metadata accesses).
//!
//! Architecture: [`QueryService::start`] spawns N OS threads. Jobs (query
//! numbers) travel over an `mpsc` channel shared through a mutexed
//! receiver; finished measurements return over a second channel. A
//! closed-loop run keeps the queue non-empty, which is equivalent to N
//! concurrent always-on client streams.
//!
//! Workers share a [`PlanCache`] keyed by query text alone: the first
//! request for a query compiles it (parse + metadata + plan — the
//! Table 2 compile phase) and caches the [`Compiled`] artifact; every
//! subsequent request executes the cached physical plan directly, on
//! whatever snapshot it pinned — a plan survives commits (see
//! [`PlanCache`] for why that is correct). The cache hit rate and the
//! resulting cold-vs-warm throughput gap are reported per run
//! ([`ThroughputReport::plan_cache_hit_rate`]).
//!
//! Workers **stream**: each request opens a pull-based
//! [`xmark_query::ResultStream`] over the cached plan and serializes
//! items one by one into a byte sink — no materialized result sequence,
//! no output `String`. Besides the total-latency percentiles, each
//! query's [`LatencyStats`] therefore reports time-to-first-item p50/p95
//! ([`LatencyStats::ttfi_p50`]): what a streaming client waits before
//! its first byte, which for large results is far below the total.
//!
//! ```
//! use std::sync::Arc;
//! use xmark::prelude::*;
//! use xmark::service::QueryService;
//!
//! let session = Benchmark::at_scale("mini").generate();
//! let store: Arc<dyn XmlStore> = Arc::from(session.load(SystemId::D).store);
//! let service = QueryService::start(store, 2);
//! let report = service.run_mix(&[1, 6, 17], 30);
//! assert_eq!(report.requests, 30);
//! assert!(report.qps() > 0.0);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use xmark_query::{compile, Compiled};
use xmark_store::sync::lock;
use xmark_store::{IndexStats, StoreSource, SystemId, XmlStore};

use crate::queries::query;

/// Default capacity of a service's plan cache — comfortably holds the
/// twenty benchmark queries.
pub const DEFAULT_PLAN_CACHE: usize = 64;

/// A shared cache of compiled plans, keyed by query text.
///
/// Compilation (parse + metadata resolution + planning) is pure per
/// (query, store), so a service caches the whole [`Compiled`] artifact: a
/// hit skips parse and plan entirely and the Table 2 statistics are
/// collected once at miss time instead of per request.
///
/// The key carries no snapshot epoch: a plan compiled against one epoch
/// of a versioned store is correct at every other. The planner reads the
/// store through `planner_caps` and `estimate_step`, which a snapshot
/// forwards to its unchanging base, and through the element index, which
/// makes a count an indexed `Aggregate` wherever it can stab. Every
/// access path falls back at execution time when the running snapshot
/// cannot serve it: an indexed `Aggregate` counts by walking once
/// stabbing is off, and value tails and join sides resolve against the
/// executing snapshot's own indexes.
///
/// The cache never evicts: its keys are the service's query texts, at
/// most the twenty benchmark queries. Once `capacity` plans are cached,
/// further queries compile per request. Hit/miss counters are relaxed
/// atomics; the map sits behind a mutex taken only for the lookup or
/// insert, never during compilation or execution.
pub struct PlanCache {
    capacity: usize,
    plans: Mutex<HashMap<String, Arc<Compiled>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans. Capacity 0
    /// disables caching (every lookup misses) — the cold-path baseline
    /// the throughput comparison measures against.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            plans: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fetch the plan for `text`, counting a hit or a miss.
    pub fn lookup(&self, text: &str) -> Option<Arc<Compiled>> {
        let hit = lock(&self.plans).get(text).cloned();
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Cache a freshly compiled plan, unless the cache is full.
    pub fn insert(&self, text: &str, compiled: Arc<Compiled>) {
        let mut plans = lock(&self.plans);
        if plans.len() < self.capacity {
            plans.insert(text.to_string(), compiled);
        }
    }

    /// Hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached plans right now.
    pub fn len(&self) -> usize {
        lock(&self.plans).len()
    }

    /// Whether the cache currently holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One completed request: which query ran and how long it took. On a
/// plan-cache miss that is compile + stream-serialize (the Table 3
/// total); on a hit it is cache lookup + stream-serialize.
#[derive(Debug, Clone, Copy)]
pub struct RequestMeasurement {
    /// Query number (1–20).
    pub query: usize,
    /// Content epoch of the snapshot the request was pinned to (always 0
    /// on a read-only store).
    pub epoch: u64,
    /// End-to-end request latency (through serialization of the last
    /// byte).
    pub latency: Duration,
    /// Time to the first serialized result item — what a streaming client
    /// waits before its first byte. Equals `latency` for empty results.
    pub first_item: Duration,
    /// Result cardinality (sanity signal: concurrent runs must agree with
    /// sequential ones).
    pub result_items: usize,
    /// Serialized result bytes the worker streamed to its sink.
    pub result_bytes: u64,
}

/// Latency distribution of one query within a throughput run.
#[derive(Debug, Clone, Copy)]
pub struct LatencyStats {
    /// Query number.
    pub query: usize,
    /// Requests measured.
    pub count: usize,
    /// Median latency.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median time-to-first-item: how long a streaming consumer waited
    /// for the first serialized result item.
    pub ttfi_p50: Duration,
    /// 95th-percentile time-to-first-item.
    pub ttfi_p95: Duration,
    /// Result cardinality the workers observed. Queries are deterministic
    /// per store, so every request of the same query must agree —
    /// [`QueryService::run_mix`] panics on divergence (a thread-safety
    /// bug), making this directly comparable to a sequential
    /// `measure_query`.
    pub result_items: usize,
}

/// Everything one closed-loop run produced.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The system serving the requests.
    pub system: SystemId,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Requests completed.
    pub requests: usize,
    /// Wall time from first dispatch to last completion.
    pub elapsed: Duration,
    /// Plan-cache hits during this run (requests that skipped
    /// parse + plan).
    pub plan_cache_hits: u64,
    /// Plan-cache misses during this run (cold compilations).
    pub plan_cache_misses: u64,
    /// Shared-index structures built during this run (element postings,
    /// attribute indexes, Lookup indexes). Zero on a warm service: the
    /// whole point of the store-resident [`xmark_store::IndexManager`].
    pub index_builds: u64,
    /// Probes served from already-built shared index structures during
    /// this run.
    pub index_hits: u64,
    /// Total serialized result bytes the workers streamed.
    pub result_bytes: u64,
    /// Per-query latency distributions, ordered by query number.
    pub per_query: Vec<LatencyStats>,
}

impl ThroughputReport {
    /// Aggregate queries per second.
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Fraction of requests served from the plan cache (0.0 when the
    /// cache is disabled or the run made no lookups).
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }

    /// The latency stats for one query.
    pub fn stats(&self, query: usize) -> Option<&LatencyStats> {
        self.per_query.iter().find(|s| s.query == query)
    }
}

/// What a mixed read/write closed-loop run produced: the reader-side
/// throughput report plus the writer lane's commit latencies.
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// The reader side, identical in shape to a read-only run.
    pub read: ThroughputReport,
    /// Commits the writer lane completed during the run.
    pub commits: usize,
    /// Median commit latency (zero when no commit ran).
    pub commit_p50: Duration,
    /// 95th-percentile commit latency.
    pub commit_p95: Duration,
    /// Slowest commit.
    pub commit_max: Duration,
    /// Distinct snapshot epochs the readers pinned — at least 2 proves
    /// reads genuinely overlapped commits.
    pub epochs_observed: usize,
}

/// A fixed pool of query workers bound to one shared store source.
///
/// Dropping the service closes the job channel; workers drain what is
/// left and exit, and the drop joins them.
pub struct QueryService {
    system: SystemId,
    workers: usize,
    source: Arc<dyn StoreSource>,
    cache: Arc<PlanCache>,
    jobs: Option<mpsc::Sender<usize>>,
    results: mpsc::Receiver<RequestMeasurement>,
    handles: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Spawn `workers` threads serving queries against `store`, with the
    /// default-capacity plan cache.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn start(store: Arc<dyn XmlStore>, workers: usize) -> Self {
        Self::start_source(Arc::new(store), workers, DEFAULT_PLAN_CACHE)
    }

    /// Spawn a pool over a [`StoreSource`]: every request pins whatever
    /// snapshot the source publishes at dispatch time, which is how the
    /// pool keeps serving consistent reads while a writer commits new
    /// epochs through a versioned store (see the `xmark-txn` crate).
    /// `cache_capacity` sizes the plan cache; 0 disables it, forcing a
    /// cold parse + plan per request.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn start_source(
        source: Arc<dyn StoreSource>,
        workers: usize,
        cache_capacity: usize,
    ) -> Self {
        assert!(workers > 0, "a query service needs at least one worker");
        let system = source.snapshot().system();
        let cache = Arc::new(PlanCache::new(cache_capacity));
        let (job_tx, job_rx) = mpsc::channel::<usize>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = mpsc::channel::<RequestMeasurement>();
        let handles = (0..workers)
            .map(|_| {
                let source = Arc::clone(&source);
                let cache = Arc::clone(&cache);
                let job_rx = Arc::clone(&job_rx);
                let result_tx = result_tx.clone();
                thread::spawn(move || worker_loop(&*source, &cache, &job_rx, &result_tx))
            })
            .collect();
        QueryService {
            system,
            workers,
            source,
            cache,
            jobs: Some(job_tx),
            results: result_rx,
            handles,
        }
    }

    /// Explicit index warmup: eagerly build the whole-document indexes
    /// (element postings + `@id` values) off the request path, returning
    /// the build time. Join-side value indexes warm on their first
    /// probing request; after one pass of a mix, a service performs zero
    /// index builds ([`ThroughputReport::index_builds`]).
    pub fn build_indexes(&self) -> Duration {
        let start = Instant::now();
        let store = self.source.snapshot();
        store.indexes().build_all(store.as_ref());
        start.elapsed()
    }

    /// The system this pool serves.
    pub fn system(&self) -> SystemId {
        self.system
    }

    /// Pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Execute `requests` requests cycling through the query `mix`
    /// closed-loop, and aggregate latencies and QPS.
    ///
    /// # Panics
    /// Panics if the mix is empty or a query fails (all twenty canonical
    /// queries are tested to run on every backend).
    pub fn run_mix(&self, mix: &[usize], requests: usize) -> ThroughputReport {
        self.run_loop(mix, requests, 0, &mut || None).read
    }

    /// Execute a closed-loop **mixed** run: readers cycle through `mix`
    /// on the worker pool while this (collector) thread interleaves
    /// writer commits so that roughly `write_pct` commits happen per 100
    /// completed reads. `write` performs one commit against the shared
    /// versioned store and returns its latency, or `None` once the
    /// writer has nothing left to do.
    ///
    /// The reads and the commits genuinely overlap: workers keep
    /// draining the queued read jobs on their own threads while the
    /// collector blocks inside `write`. Every read measurement carries
    /// the epoch of the snapshot it pinned, and cardinality/byte counts
    /// are asserted identical **per (query, epoch)** — a read that
    /// observed a torn or partial commit would diverge from its
    /// epoch-mates and panic the run.
    ///
    /// # Panics
    /// Panics as [`QueryService::run_mix`] does, and additionally when
    /// two requests pinned to the same epoch disagree on a query's
    /// result.
    pub fn run_mixed(
        &self,
        mix: &[usize],
        requests: usize,
        write_pct: u32,
        write: &mut dyn FnMut() -> Option<Duration>,
    ) -> MixedReport {
        self.run_loop(mix, requests, write_pct, write)
    }

    fn run_loop(
        &self,
        mix: &[usize],
        requests: usize,
        write_pct: u32,
        write: &mut dyn FnMut() -> Option<Duration>,
    ) -> MixedReport {
        assert!(
            !mix.is_empty(),
            "the query mix must name at least one query"
        );
        let jobs = self.jobs.as_ref().expect("service is running");
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        // Every epoch of a versioned store shares one build/hit counter
        // pair, so the snapshots current at start and end bracket the
        // run's index work on all the epochs its requests pinned.
        let IndexStats {
            builds: index_builds_before,
            hits: index_hits_before,
        } = self.source.snapshot().indexes().stats();
        let start = Instant::now();
        for i in 0..requests {
            jobs.send(mix[i % mix.len()])
                .expect("workers outlive the run");
        }
        // Per (query, epoch): (latency, time-to-first-item) samples plus
        // the result cardinality/bytes every same-epoch request must
        // agree on — the snapshot-consistency check.
        type QuerySamples = (Vec<(Duration, Duration)>, usize, u64);
        let mut by_query: HashMap<(usize, u64), QuerySamples> = HashMap::new();
        let mut result_bytes = 0u64;
        let mut commit_latencies: Vec<Duration> = Vec::new();
        let mut writer_done = write_pct == 0;
        for received in 0..requests {
            let m = self.recv_measurement();
            result_bytes += m.result_bytes;
            let entry = by_query
                .entry((m.query, m.epoch))
                .or_insert_with(|| (Vec::new(), m.result_items, m.result_bytes));
            entry.0.push((m.latency, m.first_item));
            assert_eq!(
                entry.1, m.result_items,
                "Q{} returned differing cardinalities across concurrent requests \
                 pinned to epoch {} — snapshot-isolation bug",
                m.query, m.epoch
            );
            assert_eq!(
                entry.2, m.result_bytes,
                "Q{} streamed differing byte counts across concurrent requests \
                 pinned to epoch {} — snapshot-isolation bug",
                m.query, m.epoch
            );
            // Writer lane: commit while the workers keep reading.
            while !writer_done
                && commit_latencies.len() as u64 * 100 < (received as u64 + 1) * write_pct as u64
            {
                match write() {
                    Some(latency) => commit_latencies.push(latency),
                    None => writer_done = true,
                }
            }
        }
        let elapsed = start.elapsed();
        let epochs_observed = by_query
            .keys()
            .map(|&(_, epoch)| epoch)
            .collect::<std::collections::HashSet<u64>>()
            .len();
        // Merge epochs per query for the latency distributions; report
        // the newest epoch's cardinality.
        type Merged = (Vec<(Duration, Duration)>, u64, usize);
        let mut merged: HashMap<usize, Merged> = HashMap::new();
        for ((query, epoch), (samples, result_items, _)) in by_query {
            let entry = merged
                .entry(query)
                .or_insert((Vec::new(), epoch, result_items));
            entry.0.extend(samples);
            if epoch >= entry.1 {
                entry.1 = epoch;
                entry.2 = result_items;
            }
        }
        let mut per_query: Vec<LatencyStats> = merged
            .into_iter()
            .map(|(query, (samples, _, result_items))| latency_stats(query, samples, result_items))
            .collect();
        per_query.sort_by_key(|s| s.query);
        let index_after = self.source.snapshot().indexes().stats();
        let read = ThroughputReport {
            system: self.system,
            workers: self.workers,
            requests,
            elapsed,
            plan_cache_hits: self.cache.hits() - hits_before,
            plan_cache_misses: self.cache.misses() - misses_before,
            index_builds: index_after.builds - index_builds_before,
            index_hits: index_after.hits - index_hits_before,
            result_bytes,
            per_query,
        };
        commit_latencies.sort_unstable();
        let commit_at = |p: f64| -> Duration {
            if commit_latencies.is_empty() {
                Duration::ZERO
            } else {
                let rank = ((p * commit_latencies.len() as f64).ceil() as usize)
                    .clamp(1, commit_latencies.len());
                commit_latencies[rank - 1]
            }
        };
        MixedReport {
            commits: commit_latencies.len(),
            commit_p50: commit_at(0.50),
            commit_p95: commit_at(0.95),
            commit_max: commit_latencies.last().copied().unwrap_or(Duration::ZERO),
            epochs_observed,
            read,
        }
    }

    /// Receive one measurement, detecting worker death instead of
    /// blocking forever: a panicked worker never sends its in-flight
    /// result, and the *other* live workers keep the result channel open,
    /// so a plain `recv` would deadlock.
    fn recv_measurement(&self) -> RequestMeasurement {
        loop {
            match self.results.recv_timeout(Duration::from_millis(100)) {
                Ok(m) => return m,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Workers only exit when the job channel closes, which
                    // cannot happen mid-run — a finished handle means a
                    // panic.
                    assert!(
                        !self.handles.iter().any(JoinHandle::is_finished),
                        "a worker died mid-run (query panic?)"
                    );
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("every worker died mid-run (query panic?)")
                }
            }
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Closing the sender ends every worker's receive loop.
        self.jobs.take();
        for handle in self.handles.drain(..) {
            // Propagate worker panics instead of losing them.
            if let Err(panic) = handle.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// The sink production workers stream serialized results into (a network
/// worker would hand the same `fmt::Write` surface to its socket): bytes
/// are not retained, only the instant of the first write — the
/// client-visible time-to-first-byte.
#[derive(Default)]
struct ByteSink {
    first_write: Option<Instant>,
    bytes: u64,
}

impl std::fmt::Write for ByteSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if self.first_write.is_none() {
            self.first_write = Some(Instant::now());
        }
        self.bytes += s.len() as u64;
        Ok(())
    }
}

fn worker_loop(
    source: &dyn StoreSource,
    cache: &PlanCache,
    jobs: &Mutex<mpsc::Receiver<usize>>,
    results: &mpsc::Sender<RequestMeasurement>,
) {
    loop {
        // Hold the lock only for the dequeue, never during execution.
        let Ok(number) = lock(jobs).recv() else {
            return; // channel closed: the service is shutting down
        };
        // Pin one snapshot per request: a commit landing mid-request
        // publishes a *new* snapshot and cannot tear this one. On a
        // read-only store the pin is the store itself.
        let store = source.snapshot();
        let epoch = store.content_epoch();
        let q = query(number);
        let start = Instant::now();
        // A cache hit reuses the whole compiled artifact — no parse, no
        // metadata resolution, no planning — whichever epoch compiled it
        // (see `PlanCache`). Two workers racing on the same cold query
        // both compile a plan valid at every epoch; last insert wins.
        let compiled = match cache.lookup(q.text) {
            Some(compiled) => compiled,
            None => {
                let compiled = Arc::new(
                    compile(q.text, store.as_ref())
                        .unwrap_or_else(|e| panic!("Q{number} failed to compile: {e}")),
                );
                cache.insert(q.text, Arc::clone(&compiled));
                compiled
            }
        };
        // Stream: `write_to` serializes items straight off the operator
        // cursors into the sink, no materialized result sequence — and
        // the sink's first-write timestamp is the client-visible TTFB.
        let mut sink = ByteSink::default();
        let stats = xmark_query::stream(&compiled, store.as_ref())
            .write_to(&mut sink)
            .unwrap_or_else(|e| panic!("Q{number} failed to execute: {e}"));
        let latency = start.elapsed();
        if results
            .send(RequestMeasurement {
                query: number,
                epoch,
                latency,
                first_item: sink
                    .first_write
                    .map_or(latency, |at| at.duration_since(start)),
                result_items: stats.items,
                result_bytes: sink.bytes,
            })
            .is_err()
        {
            return; // collector gone: nothing left to report to
        }
    }
}

/// Aggregate one query's `(latency, time-to-first-item)` samples.
fn latency_stats(
    query: usize,
    samples: Vec<(Duration, Duration)>,
    result_items: usize,
) -> LatencyStats {
    let count = samples.len();
    let mut latencies: Vec<Duration> = samples.iter().map(|(l, _)| *l).collect();
    let mut firsts: Vec<Duration> = samples.iter().map(|(_, f)| *f).collect();
    latencies.sort_unstable();
    firsts.sort_unstable();
    let total: Duration = latencies.iter().sum();
    let percentile = |sorted: &[Duration], p: f64| -> Duration {
        // Nearest-rank on the sorted sample.
        let rank = ((p * count as f64).ceil() as usize).clamp(1, count);
        sorted[rank - 1]
    };
    LatencyStats {
        query,
        count,
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
        mean: total / count.max(1) as u32,
        ttfi_p50: percentile(&firsts, 0.50),
        ttfi_p95: percentile(&firsts, 0.95),
        result_items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{canonical_output, generate_document, load_system};

    #[test]
    fn service_completes_a_closed_loop_run() {
        let doc = generate_document(0.001);
        let store: Arc<dyn XmlStore> = Arc::from(load_system(SystemId::D, &doc.xml).store);
        let service = QueryService::start(Arc::clone(&store), 2);
        assert_eq!(service.workers(), 2);
        assert_eq!(service.system(), SystemId::D);
        let report = service.run_mix(&[1, 6], 10);
        assert_eq!(report.requests, 10);
        assert_eq!(report.per_query.len(), 2);
        let q1 = report.stats(1).unwrap();
        assert_eq!(q1.count, 5);
        assert!(q1.p50 <= q1.p95 && q1.p95 <= q1.p99);
        assert!(report.qps() > 0.0);
        // The pool survives a second run on the same store.
        let again = service.run_mix(&[17], 4);
        assert_eq!(again.stats(17).unwrap().count, 4);
    }

    #[test]
    fn concurrent_results_match_sequential() {
        let doc = generate_document(0.001);
        let loaded = load_system(SystemId::G, &doc.xml);
        let expected = canonical_output(loaded.store.as_ref(), 5);
        let store: Arc<dyn XmlStore> = Arc::from(loaded.store);
        let service = QueryService::start(Arc::clone(&store), 3);
        let report = service.run_mix(&[5], 9);
        drop(service);
        // Cardinality seen by the workers matches a fresh sequential run.
        let fresh = canonical_output(store.as_ref(), 5);
        assert_eq!(fresh, expected);
        assert_eq!(report.stats(5).unwrap().count, 9);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let doc = generate_document(0.001);
        let store: Arc<dyn XmlStore> = Arc::from(load_system(SystemId::G, &doc.xml).store);
        let _ = QueryService::start(store, 0);
    }

    #[test]
    fn plan_cache_hits_after_first_compilation() {
        let doc = generate_document(0.001);
        let store: Arc<dyn XmlStore> = Arc::from(load_system(SystemId::D, &doc.xml).store);
        let service = QueryService::start(store, 1);
        let report = service.run_mix(&[1, 6], 10);
        // One cold miss per distinct query, hits for everything after.
        assert_eq!(report.plan_cache_misses, 2);
        assert_eq!(report.plan_cache_hits, 8);
        assert!((report.plan_cache_hit_rate() - 0.8).abs() < 1e-9);
        assert_eq!(service.plan_cache().len(), 2);
        // A second run over the same mix is fully warm.
        let again = service.run_mix(&[1, 6], 6);
        assert_eq!(again.plan_cache_misses, 0);
        assert_eq!(again.plan_cache_hits, 6);
        assert!((again.plan_cache_hit_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_plan_cache_always_misses() {
        let doc = generate_document(0.001);
        let store: Arc<dyn XmlStore> = Arc::from(load_system(SystemId::G, &doc.xml).store);
        let service = QueryService::start_source(Arc::new(store), 1, 0);
        let report = service.run_mix(&[17], 5);
        assert_eq!(report.plan_cache_hits, 0);
        assert_eq!(report.plan_cache_misses, 5);
        assert_eq!(report.plan_cache_hit_rate(), 0.0);
        assert!(service.plan_cache().is_empty());
    }

    #[test]
    fn plan_cache_stops_admitting_at_capacity() {
        let cache = PlanCache::new(2);
        let doc = generate_document(0.001);
        let store = load_system(SystemId::G, &doc.xml).store;
        let compiled =
            |n: usize| Arc::new(compile(crate::queries::query(n).text, store.as_ref()).unwrap());
        cache.insert("a", compiled(1));
        cache.insert("b", compiled(6));
        cache.insert("c", compiled(17));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("b").is_some());
        assert!(cache.lookup("c").is_none(), "a full cache admits nothing");
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let stats = latency_stats(
            3,
            (1..=100)
                .map(|ms| (Duration::from_millis(ms), Duration::from_millis(ms / 2)))
                .collect::<Vec<_>>(),
            7,
        );
        assert_eq!(stats.count, 100);
        assert_eq!(stats.result_items, 7);
        assert_eq!(stats.p50, Duration::from_millis(50));
        assert_eq!(stats.p95, Duration::from_millis(95));
        assert_eq!(stats.p99, Duration::from_millis(99));
        assert_eq!(stats.ttfi_p50, Duration::from_millis(25));
        assert_eq!(stats.ttfi_p95, Duration::from_millis(47));
    }

    #[test]
    fn warm_service_performs_zero_index_builds() {
        // The acceptance probe for the store-resident index layer:
        // repeated execution of the join-heavy queries through the
        // service performs zero index rebuilds after warmup.
        let doc = generate_document(0.002);
        let store: Arc<dyn XmlStore> = Arc::from(load_system(SystemId::A, &doc.xml).store);
        let service = QueryService::start(Arc::clone(&store), 2);
        let build_time = service.build_indexes();
        assert!(build_time.as_nanos() > 0);
        let mix = [8, 9, 10, 11, 12];
        let cold = service.run_mix(&mix, mix.len());
        // The warmup pass may build the join-side value indexes once…
        let warm = service.run_mix(&mix, mix.len() * 3);
        // …after which every request probes shared structures.
        assert_eq!(
            warm.index_builds, 0,
            "warm service must not rebuild indexes (cold pass built {})",
            cold.index_builds
        );
        assert!(
            warm.index_hits > 0,
            "warm requests must probe the shared indexes"
        );
    }

    #[test]
    fn sharded_service_streams_and_matches_monolithic() {
        let session = crate::spec::Benchmark::at_factor(0.001).generate();
        let mono = session.load(SystemId::A);
        // Reference: cardinality + canonical output per query, sequential.
        let mix = [1usize, 5, 6];
        let expected: Vec<String> = mix
            .iter()
            .map(|&q| canonical_output(mono.store.as_ref(), q))
            .collect();
        let files = xmark_gen::generate_sharded(&xmark_gen::GeneratorConfig::at_factor(0.001), 2);
        let docs: Vec<&str> = files.iter().map(|f| f.content.as_str()).collect();
        let union = Arc::new(xmark_store::ShardedStore::load(SystemId::A, &docs).unwrap());
        let service = QueryService::start(Arc::clone(&union) as Arc<dyn XmlStore>, 2);
        let report = service.run_mix(&mix, 9);
        assert_eq!(report.requests, 9);
        for (&q, want) in mix.iter().zip(&expected) {
            let got = canonical_output(union.as_ref(), q);
            assert_eq!(&got, want, "Q{q} sharded union output diverged");
            let stats = report.stats(q).unwrap();
            assert_eq!(stats.count, 3);
        }
        // The union's IndexManager is the only index: requests run on the
        // union view, so no shard part ever builds one of its own.
        for (j, part) in union.shard_stores().enumerate() {
            assert_eq!(
                part.indexes().stats().builds,
                0,
                "shard part {j} built an index"
            );
        }
    }

    #[test]
    fn workers_stream_bytes_and_report_ttfi() {
        let doc = generate_document(0.001);
        let loaded = load_system(SystemId::D, &doc.xml);
        // The sequential reference: serialized size of Q5's result.
        let compiled = compile(crate::queries::query(5).text, loaded.store.as_ref()).unwrap();
        let expected = xmark_query::serialize_sequence(
            loaded.store.as_ref(),
            &xmark_query::execute(&compiled, loaded.store.as_ref()).unwrap(),
        );
        let store: Arc<dyn XmlStore> = Arc::from(loaded.store);
        let service = QueryService::start(store, 2);
        let report = service.run_mix(&[5], 6);
        assert_eq!(report.result_bytes, 6 * expected.len() as u64);
        let stats = report.stats(5).unwrap();
        assert!(stats.ttfi_p50 <= stats.p50, "first item precedes the last");
        assert!(stats.ttfi_p95 <= stats.p95);
    }
}
