//! The traced run: per-layer metrics, measured from outside, on the
//! workload's own rig.
//!
//! The workload is set up as in a timed run, with a span around every
//! call into a layer. Then its own requests are driven, single-threaded,
//! through the decomposed public pipeline (`sut::request`) for a fixed
//! number of mix cycles, alternately traced and untraced, so their ratio
//! is the tracing overhead. Probes that need a second store use the
//! workload's own document or page file: the same file behind a pool
//! that fits (`lookup_paged`), the same document unsharded
//! (`lookup_sharded`), the base store under the overlay (`mixed_rw`).
//!
//! The driver's contract wants every per-layer metric in every traced
//! run. A layer the workload never enters did no work in it: its metrics
//! read 0 there, and the prediction for an optimisation of that layer is
//! that they stay 0 and the workload's end-to-end metrics do not move.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::mix::{self, Schedule};
use crate::stats::{geo_mean, median};
use crate::sut::{self, Footprint, Round, Source, WriterLane};
use crate::trace::{self_times_ns, Counter, Counters, Span, Tracer};
use crate::workload::{self, Expected, Kind, Rig, Spec, FIT_POOL};

/// Rounds of `spec.cycles` mix cycles the workload trace records at the
/// manifest's `run_seconds` (and as many it does not record).
pub const TRACE_ROUNDS: usize = 3;
/// Passes over the mix on a probe store, after one unrecorded one.
const PROBE_PASSES: usize = 3;
/// Passes over Q6 alone behind `service.overhead_us`.
const Q6_PASSES: usize = 30;
/// Samples per query behind `service.lat_worst_p95_ms`.
const P95_CYCLES: usize = 20;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// `(name, unit, better)` of every per-layer metric, in report order —
/// `BENCHMARK.json` lists exactly these.
pub fn layer_metric_table() -> Vec<(String, &'static str, &'static str)> {
    let mut table: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| table.push((name.to_string(), unit, better));
    add("gen.mb_s", "MB/s", "higher");
    add("xml.parse_mb_s", "MB/s", "higher");
    for system in sut::BACKENDS {
        let x = sut::letter(system);
        add(&format!("store.{x}.bulkload_ms"), "ms", "lower");
        add(&format!("store.{x}.bytes_per_doc_byte"), "ratio", "lower");
        add(&format!("store.{x}.exec_geo_us"), "us", "lower");
    }
    add("store.index.build_ms", "ms", "lower");
    add("store.index.bytes_per_doc_byte", "ratio", "lower");
    add("store.index.hits_per_req", "count", "lower");
    add("store.index.builds_warm", "count", "lower");
    add("store.paged.disk_bytes_per_doc_byte", "ratio", "lower");
    add("store.paged.hit_rate", "ratio", "higher");
    add("store.paged.pages_read_per_req", "count", "lower");
    add("store.paged.evictions_per_req", "count", "lower");
    add("store.paged.tight_exec_geo_us", "us", "lower");
    add("store.paged.fit_exec_geo_us", "us", "lower");
    add("store.paged.cold_open_ms", "ms", "lower");
    add("store.paged.dirty_writebacks_per_commit", "count", "lower");
    add("store.shard.load_ms", "ms", "lower");
    add("query.parse_geo_us", "us", "lower");
    add("query.plan_geo_us", "us", "lower");
    add("query.plan_metadata_accesses", "count", "lower");
    add("query.exec_geo_us", "us", "lower");
    add("query.pulls_per_item", "ratio", "lower");
    add("query.first_item_geo_us", "us", "lower");
    add("query.serialize_geo_us", "us", "lower");
    add("query.serialize_mb_s", "MB/s", "higher");
    add("query.join.exec_geo_us", "us", "lower");
    add("query.scatter.overhead_ratio", "ratio", "lower");
    add("query.scatter.first_item_ratio", "ratio", "lower");
    add("service.overhead_us", "us", "lower");
    add("service.plan_cache_hit_rate", "ratio", "higher");
    add("service.scaling_ratio", "ratio", "higher");
    add("service.lat_worst_p95_ms", "ms", "lower");
    add("txn.snapshot_pin_ns", "ns", "lower");
    add("txn.overlay_read_ratio", "ratio", "lower");
    add("txn.overlay_drift", "ratio", "higher");
    add("txn.stage_us", "us", "lower");
    add("txn.commit_us", "us", "lower");
    add("txn.commit_p50_us", "us", "lower");
    add("txn.commit_p95_us", "us", "lower");
    add("txn.wal_bytes_per_commit", "B", "lower");
    add("txn.conflict_ratio", "ratio", "lower");
    add("txn.recover_ms", "ms", "lower");
    add("txn.recover_replayed", "count", "higher");
    add("trace.overhead_ratio", "ratio", "lower");
    table
}

// ---- reading the trace ----------------------------------------------------------

const EXEC: [&str; 2] = ["query.exec.first_item", "query.exec.drain"];
const PIPELINE: [&str; 5] = [
    "query.parse",
    "query.plan",
    "query.exec.first_item",
    "query.exec.drain",
    "query.serialize",
];

/// Whether a span recorded under `scope` belongs to `want`: the same
/// scope, or a dotted part of it (`workload.E` is part of `workload`).
fn in_scope(scope: &str, want: &str) -> bool {
    scope
        .strip_prefix(want)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

/// The recorded spans with their self times.
struct View<'a> {
    spans: &'a [Span],
    own_ns: Vec<u64>,
}

impl<'a> View<'a> {
    fn new(spans: &'a [Span]) -> View<'a> {
        View {
            spans,
            own_ns: self_times_ns(spans),
        }
    }

    /// `(span, self time)` of every span of `scope` named one of `names`.
    fn select<'b>(
        &'b self,
        scope: &'b str,
        names: &'b [&'b str],
    ) -> impl Iterator<Item = (&'a Span, u64)> + 'b {
        self.spans
            .iter()
            .zip(self.own_ns.iter().copied())
            .filter(move |(s, _)| in_scope(&s.scope, scope) && names.contains(&s.name.as_str()))
    }

    /// Duration in ms of the one span of `scope` named `name` and tagged
    /// `tag`, if it was recorded.
    fn one_ms(&self, scope: &str, name: &str, tag: &str) -> Option<f64> {
        let hits: Vec<u64> = self
            .select(scope, &[name])
            .filter(|(s, _)| s.tag == tag)
            .map(|(s, _)| s.duration_ns())
            .collect();
        assert!(
            hits.len() <= 1,
            "several {name} spans tagged {tag} in {scope}"
        );
        hits.first().map(|&ns| ns as f64 / 1e6)
    }

    /// Per cell of `scope` and query of `queries`: the median over its
    /// requests of the time the `names` spans took together, in ns (at
    /// least 1).
    fn per_query_ns(&self, scope: &str, names: &[&str], queries: &[usize]) -> Vec<f64> {
        let mut per_request: HashMap<u32, (&str, &str, u64)> = HashMap::new();
        for (s, own) in self.select(scope, names) {
            per_request
                .entry(s.request)
                .or_insert((&s.scope, &s.tag, 0))
                .2 += own;
        }
        let mut per_cell_query: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for (cell, tag, ns) in per_request.into_values() {
            if queries.iter().any(|&q| mix::QUERY_TAGS[q] == tag) {
                per_cell_query
                    .entry((cell, tag))
                    .or_default()
                    .push(ns as f64);
            }
        }
        assert!(
            !per_cell_query.is_empty() && per_cell_query.len().is_multiple_of(queries.len()),
            "{names:?} spans in {scope} do not cover {queries:?}"
        );
        per_cell_query
            .values()
            .map(|samples| median(samples).max(1.0))
            .collect()
    }

    /// Geometric mean of [`View::per_query_ns`], in µs.
    fn geo_us(&self, scope: &str, names: &[&str], queries: &[usize]) -> f64 {
        geo_mean(&self.per_query_ns(scope, names, queries)) / 1e3
    }

    /// Self times of the `name` spans of `scope`, in ns.
    fn own_ns(&self, scope: &str, name: &str) -> Vec<f64> {
        self.select(scope, &[name])
            .map(|(_, own)| own as f64)
            .collect()
    }

    /// Median self time of the `name` spans of `scope`, in ns.
    fn median_ns(&self, scope: &str, name: &str) -> Option<f64> {
        let own = self.own_ns(scope, name);
        (!own.is_empty()).then(|| median(&own))
    }

    /// Summed counter deltas and span count of the `names` spans.
    fn counts(&self, scope: &str, names: &[&str]) -> (Counters, usize) {
        let mut sum = Counters::default();
        let mut n = 0;
        for (s, _) in self.select(scope, names) {
            sum += &s.counts;
            n += 1;
        }
        (sum, n)
    }
}

// ---- driving requests ---------------------------------------------------------------

/// Requests made and requests whose result disagreed with the oracle.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

/// `passes` passes over `queries` on `source` through the traced
/// pipeline under `scope`, after one pass the tracer does not see.
fn probe_passes(source: &Source, queries: &[usize], passes: usize, scope: &str, t: &mut Tracer) {
    t.set_enabled(false);
    for &q in queries {
        sut::request(source.as_ref(), q, t);
    }
    t.set_enabled(true);
    t.set_scope(scope);
    for _ in 0..passes {
        for &q in queries {
            sut::request(source.as_ref(), q, t);
        }
    }
}

/// The workload trace: `cycles` traced mix cycles on every cell (scope
/// `workload.<cell>`), each followed by an untraced one. Under `mixed_rw`
/// the writer lane commits once per five reads in both. Returns traced
/// and untraced seconds per request.
fn workload_trace(
    rig: &Rig,
    schedule: &mut Schedule,
    expected: &Expected,
    cycles: usize,
    mut lane: Option<&mut WriterLane>,
    t: &mut Tracer,
    tally: &mut Tally,
) -> (f64, f64) {
    let mut wall = [0.0f64; 2];
    for cycle in 0..2 * cycles {
        let traced = cycle.is_multiple_of(2);
        t.set_enabled(traced);
        let start = Instant::now();
        for cell in &rig.cells {
            t.set_scope(&format!("workload.{}", cell.label));
            for (i, &q) in schedule.cycles(1).iter().enumerate() {
                let served = sut::request(cell.source.as_ref(), q, t);
                tally.attempted += 1;
                let checked = lane.is_none() || !workload::write_sensitive(q);
                if checked && served != expected.served[&q] {
                    tally.failed += 1;
                }
                if let Some(lane) = lane.as_deref_mut() {
                    if i % 5 == 4 {
                        lane.commit_one(t);
                        tally.attempted += 1;
                    }
                }
            }
        }
        wall[usize::from(!traced)] += start.elapsed().as_secs_f64();
    }
    t.set_enabled(true);
    let requests = (cycles * rig.cells.len() * schedule.mix().len()) as f64;
    (wall[0] / requests, wall[1] / requests)
}

/// The cell the service probes run on: System E's where the workload has
/// several.
fn probe_cell(rig: &Rig) -> &workload::Cell {
    rig.cells
        .iter()
        .find(|c| c.label == "E")
        .unwrap_or(&rig.cells[0])
}

/// What the service layer shows from outside, on the probe cell.
struct ServiceProbe {
    /// `P95_CYCLES` mix cycles on the workload's own warm service.
    tail: Round,
    qps_one_worker: f64,
    qps_two_workers: f64,
    /// Q6's median service latency with one worker, in seconds.
    q6_service_s: f64,
}

fn service_probe(rig: &Rig, mix: &[usize]) -> ServiceProbe {
    let cell = probe_cell(rig);
    let cycles = rig.spec.cycles;
    let tail = sut::run_mix(&cell.service, mix, mix.len() * P95_CYCLES.max(cycles));
    let qps_at = |workers: usize| {
        let service = sut::serve(&cell.source, workers);
        sut::run_mix(&service, mix, mix.len());
        let round = sut::run_mix(&service, mix, mix.len() * cycles);
        let q6 = round.per_query.iter().find(|l| l.query == 6);
        (
            round.requests as f64 / round.wall_s,
            q6.expect("Q6 is in every mix").p50_s,
        )
    };
    let (qps_one_worker, q6_service_s) = qps_at(1);
    let (qps_two_workers, _) = qps_at(2);
    ServiceProbe {
        tail,
        qps_one_worker,
        qps_two_workers,
        q6_service_s,
    }
}

/// What `mixed_rw` adds: closed-loop rounds under the writer lane on the
/// fresh overlay, and how the run closed.
struct MixedFacts {
    rounds: Vec<Round>,
    commits: usize,
    conflicts: usize,
    replayed: usize,
}

/// Everything the metrics need that is not a span.
struct Facts {
    doc_bytes: f64,
    /// Per cell: backend letter and the bytes its store occupies.
    footprints: Vec<(String, Footprint)>,
    probe_label: String,
    /// Traced and untraced seconds per request.
    per_request: (f64, f64),
    service: ServiceProbe,
    mixed: Option<MixedFacts>,
}

// ---- the metrics ----------------------------------------------------------------------

/// Every per-layer metric of `spec`'s traced run, in the table's order.
/// `None` — the workload never enters the layer — is reported as 0.
fn metrics(spec: &Spec, mix: &[usize], view: &View<'_>, facts: &Facts) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: Option<f64>, unit| {
        out.push(Metric {
            name: name.to_string(),
            value: value.unwrap_or(0.0),
            unit,
        })
    };
    let w = "workload";
    let mb = facts.doc_bytes / 1e6;
    let per_s = |ms: Option<f64>| ms.map(|ms| mb / (ms / 1e3));
    let footprint = |label: &str| {
        facts
            .footprints
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, f)| *f)
    };
    let share = |bytes: usize| bytes as f64 / facts.doc_bytes;
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?);

    put(
        "gen.mb_s",
        per_s(view.one_ms("setup", "gen.generate", "")),
        "MB/s",
    );
    put(
        "xml.parse_mb_s",
        per_s(view.one_ms("probe", "xml.parse", "")),
        "MB/s",
    );
    for system in sut::BACKENDS {
        let x = sut::letter(system);
        let cell = footprint(&x);
        put(
            &format!("store.{x}.bulkload_ms"),
            view.one_ms("setup", &format!("store.{x}.bulkload"), &x),
            "ms",
        );
        put(
            &format!("store.{x}.bytes_per_doc_byte"),
            cell.map(|f| share(f.resident)),
            "ratio",
        );
        put(
            &format!("store.{x}.exec_geo_us"),
            cell.map(|_| view.geo_us(&format!("workload.{x}"), &EXEC, mix)),
            "us",
        );
    }
    let probe = &facts.probe_label;
    put(
        "store.index.build_ms",
        view.one_ms("setup", "store.index.build", probe),
        "ms",
    );
    put(
        "store.index.bytes_per_doc_byte",
        footprint(probe).map(|f| share(f.index)),
        "ratio",
    );
    let tail = &facts.service.tail;
    put(
        "store.index.hits_per_req",
        Some(tail.index_hits as f64 / tail.requests as f64),
        "count",
    );
    put(
        "store.index.builds_warm",
        Some(tail.index_builds as f64),
        "count",
    );

    // The buffer pool, over the requests served from a page file.
    let paged = footprint("H").filter(|f| f.disk > 0);
    let (pool, _) = view.counts("workload.H", &PIPELINE);
    let (_, paged_requests) = view.counts("workload.H", &["request"]);
    let per_paged_request =
        |c: Counter| paged.map(|_| pool[c] as f64 / paged_requests.max(1) as f64);
    put(
        "store.paged.disk_bytes_per_doc_byte",
        paged.map(|f| share(f.disk)),
        "ratio",
    );
    let pins = pool[Counter::PoolHits] + pool[Counter::PoolMisses];
    put(
        "store.paged.hit_rate",
        (pins > 0).then(|| pool[Counter::PoolHits] as f64 / pins as f64),
        "ratio",
    );
    put(
        "store.paged.pages_read_per_req",
        per_paged_request(Counter::PagesRead),
        "count",
    );
    put(
        "store.paged.evictions_per_req",
        per_paged_request(Counter::PoolEvictions),
        "count",
    );
    let tight = matches!(spec.kind, Kind::Paged { .. });
    put(
        "store.paged.tight_exec_geo_us",
        tight.then(|| view.geo_us("workload.H", &EXEC, mix)),
        "us",
    );
    put(
        "store.paged.fit_exec_geo_us",
        tight.then(|| view.geo_us("probe.fit", &EXEC, mix)),
        "us",
    );
    put(
        "store.paged.cold_open_ms",
        view.one_ms("setup", "store.paged.open", "H"),
        "ms",
    );
    let (commit_counts, traced_commits) = view.counts(w, &["commit"]);
    let per_commit =
        |c: Counter| (traced_commits > 0).then(|| commit_counts[c] as f64 / traced_commits as f64);
    put(
        "store.paged.dirty_writebacks_per_commit",
        per_commit(Counter::DirtyWritebacks),
        "count",
    );
    put(
        "store.shard.load_ms",
        view.one_ms("setup", "store.shard.load", "E"),
        "ms",
    );

    put(
        "query.parse_geo_us",
        Some(view.geo_us(w, &["query.parse"], mix)),
        "us",
    );
    put(
        "query.plan_geo_us",
        Some(view.geo_us(w, &["query.plan"], mix)),
        "us",
    );
    let (plan, plans) = view.counts(w, &["query.plan"]);
    put(
        "query.plan_metadata_accesses",
        Some(plan[Counter::MetadataAccesses] as f64 / plans as f64),
        "count",
    );
    put("query.exec_geo_us", Some(view.geo_us(w, &EXEC, mix)), "us");
    // Rows examined per result, over the requests that stream (a
    // scattered request reports no pulls).
    let (exec, _) = view.counts(w, &EXEC);
    let (served, _) = view.counts(w, &["request"]);
    put(
        "query.pulls_per_item",
        Some(exec[Counter::Pulls] as f64 / served[Counter::Items].max(1) as f64),
        "ratio",
    );
    let first = ["query.exec.first_item"];
    put(
        "query.first_item_geo_us",
        Some(view.geo_us(w, &first, mix)),
        "us",
    );
    put(
        "query.serialize_geo_us",
        Some(view.geo_us(w, &["query.serialize"], mix)),
        "us",
    );
    let serialize_ns: u64 = view.select(w, &["query.serialize"]).map(|(_, o)| o).sum();
    put(
        "query.serialize_mb_s",
        Some(served[Counter::Bytes] as f64 / 1e6 / (serialize_ns as f64 / 1e9)),
        "MB/s",
    );
    let joins = mix::JOINS.iter().all(|q| mix.contains(q)) && footprint("E").is_some();
    put(
        "query.join.exec_geo_us",
        joins.then(|| view.geo_us("workload.E", &EXEC, &mix::JOINS)),
        "us",
    );
    let sharded = matches!(spec.kind, Kind::Sharded { .. });
    put(
        "query.scatter.overhead_ratio",
        sharded.then(|| view.geo_us(w, &EXEC, mix) / view.geo_us("probe.mono", &EXEC, mix)),
        "ratio",
    );
    put(
        "query.scatter.first_item_ratio",
        sharded.then(|| view.geo_us(w, &first, mix) / view.geo_us("probe.mono", &first, mix)),
        "ratio",
    );

    // Q6 is in both mixes and runs in about a microsecond, so its
    // service latency is nearly all fixed per-request cost.
    let q6_pipeline_ns = view.per_query_ns("probe.q6", &PIPELINE[2..], &[6])[0];
    put(
        "service.overhead_us",
        Some(facts.service.q6_service_s * 1e6 - q6_pipeline_ns / 1e3),
        "us",
    );
    put(
        "service.plan_cache_hit_rate",
        Some(tail.plan_hits as f64 / (tail.plan_hits + tail.plan_misses).max(1) as f64),
        "ratio",
    );
    put(
        "service.scaling_ratio",
        Some(facts.service.qps_two_workers / facts.service.qps_one_worker),
        "ratio",
    );
    put(
        "service.lat_worst_p95_ms",
        Some(tail.per_query.iter().map(|l| l.p95_s).fold(0.0, f64::max) * 1e3),
        "ms",
    );

    // A pin takes a few clock ticks, so its median is one of a handful of
    // values; the mean has the digits.
    let pins = view.own_ns(w, "service.pin");
    put(
        "txn.snapshot_pin_ns",
        Some(pins.iter().sum::<f64>() / pins.len() as f64),
        "ns",
    );
    let mixed = facts.mixed.as_ref();
    put(
        "txn.overlay_read_ratio",
        mixed.map(|_| {
            view.geo_us("probe.overlay", &EXEC, mix) / view.geo_us("probe.base", &EXEC, mix)
        }),
        "ratio",
    );
    let qps = |r: &Round| r.requests as f64 / r.wall_s;
    put(
        "txn.overlay_drift",
        mixed.map(|m| qps(&m.rounds[m.rounds.len() - 1]) / qps(&m.rounds[0])),
        "ratio",
    );
    put(
        "txn.stage_us",
        view.median_ns(w, "txn.stage").map(|ns| ns / 1e3),
        "us",
    );
    put(
        "txn.commit_us",
        view.median_ns(w, "txn.commit").map(|ns| ns / 1e3),
        "us",
    );
    let over_rounds = |pick: fn(&Round) -> f64| {
        mixed.map(|m| median(&m.rounds.iter().map(pick).collect::<Vec<_>>()) * 1e6)
    };
    put("txn.commit_p50_us", over_rounds(|r| r.commit_p50_s), "us");
    put("txn.commit_p95_us", over_rounds(|r| r.commit_p95_s), "us");
    put(
        "txn.wal_bytes_per_commit",
        per_commit(Counter::WalBytes),
        "B",
    );
    put(
        "txn.conflict_ratio",
        mixed.map(|m| m.conflicts as f64 / (m.commits + m.conflicts).max(1) as f64),
        "ratio",
    );
    put(
        "txn.recover_ms",
        view.one_ms("close", "txn.recover", "H"),
        "ms",
    );
    put(
        "txn.recover_replayed",
        mixed.map(|m| m.replayed as f64),
        "count",
    );
    put(
        "trace.overhead_ratio",
        ratio(Some(facts.per_request.0), Some(facts.per_request.1)),
        "ratio",
    );
    out
}

// ---- the traced run ------------------------------------------------------------------

/// What a traced run hands back.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub tracer: Tracer,
    pub setup_s: f64,
    pub oracle_failures: Vec<String>,
}

/// The whole traced run of one workload; the workload trace records
/// `rounds` rounds' worth of mix cycles.
pub fn traced_run(
    spec: &'static Spec,
    factor: f64,
    seed: u64,
    rounds: usize,
    dir: &Path,
    committed: &Json,
) -> Traced {
    let no = Counters::default;
    let mut t = Tracer::new(true);
    let mut schedule = Schedule::new((spec.mix)(), seed);
    let mix = schedule.mix().to_vec();
    let start = Instant::now();
    let (rig, xml) = workload::setup(spec, factor, &mix, dir, &mut t);
    let setup_s = start.elapsed().as_secs_f64();

    // The loaders parse inside their bulkload call; the parser alone is
    // timed on the same document here.
    t.set_scope("probe");
    let span = t.enter("xml.parse", "", no);
    drop(sut::parse_xml(&xml));
    t.exit(span, no);
    let oracle = workload::oracle(&rig, &xml, factor, &mix, committed);
    let mut tally = Tally {
        attempted: oracle.checks,
        failed: oracle.failures.len(),
    };
    let mut oracle_failures = oracle.failures;
    // lookup_sharded's comparator: the same document, same backend, unsharded.
    let monolithic = matches!(spec.kind, Kind::Sharded { .. }).then(|| {
        let source = sut::source_of(&sut::load(sut::SYSTEM_E, &xml));
        sut::warm_indexes(&sut::serve(&source, 1));
        source
    });
    drop(xml);

    let mut lane = rig.versioned.as_ref().map(|v| WriterLane::new(v, seed));
    // A timed set-up's rounds, on an overlay as fresh as theirs:
    // `txn.overlay_drift` is the last round's reader qps ÷ the first's.
    let mixed_rounds: Vec<Round> = match (spec.kind, lane.as_mut()) {
        (Kind::Mixed { write_pct }, Some(lane)) => (0..spec.rounds)
            .map(|_| {
                let order = schedule.cycles(spec.cycles);
                let round =
                    sut::run_mixed(&rig.cells[0].service, &order, order.len(), write_pct, lane);
                tally.attempted += round.requests + round.commits;
                tally.failed += workload::failed_requests(&round, &oracle.expected, true);
                round
            })
            .collect(),
        _ => Vec::new(),
    };
    let per_request = workload_trace(
        &rig,
        &mut schedule,
        &oracle.expected,
        rounds * spec.cycles,
        lane.as_mut(),
        &mut t,
        &mut tally,
    );
    probe_passes(
        &probe_cell(&rig).source,
        &[6],
        Q6_PASSES,
        "probe.q6",
        &mut t,
    );
    if let Some(source) = &monolithic {
        probe_passes(source, &mix, PROBE_PASSES, "probe.mono", &mut t);
    }
    if let (Kind::Paged { .. }, Some(path)) = (spec.kind, &rig.page_file) {
        // The same page file behind a pool that holds all of it.
        let fit = sut::source_of(&sut::open_paged(path, FIT_POOL));
        probe_passes(&fit, &mix, PROBE_PASSES, "probe.fit", &mut t);
    }
    if let Some(versioned) = &rig.versioned {
        let base = sut::source_of(&sut::base(versioned));
        probe_passes(&base, &mix, PROBE_PASSES, "probe.base", &mut t);
        let overlay = sut::source_of_versioned(versioned);
        probe_passes(&overlay, &mix, PROBE_PASSES, "probe.overlay", &mut t);
    }
    let mut facts = Facts {
        doc_bytes: rig.doc_bytes as f64,
        footprints: rig
            .cells
            .iter()
            .map(|c| {
                (
                    c.label.clone(),
                    sut::footprint(c.source.snapshot().as_ref()),
                )
            })
            .collect(),
        probe_label: probe_cell(&rig).label.clone(),
        per_request,
        service: service_probe(&rig, &mix),
        mixed: None,
    };
    match lane {
        Some(lane) => {
            let (commits, conflicts) = (lane.commits, lane.conflicts);
            let closed = workload::close_mixed(rig, lane, &mix, &oracle.expected, &mut t);
            tally.attempted += closed.checks;
            tally.failed += closed.failures.len();
            oracle_failures.extend(closed.failures);
            facts.mixed = Some(MixedFacts {
                rounds: mixed_rounds,
                commits,
                conflicts,
                replayed: closed.replayed,
            });
        }
        None => drop(rig),
    }

    let metrics = metrics(spec, &mix, &View::new(t.spans()), &facts);
    // Hold the code to the table `BENCHMARK.json` is checked against.
    let reported: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let table = layer_metric_table();
    let listed: Vec<(&str, &str)> = table.iter().map(|(n, u, _)| (n.as_str(), *u)).collect();
    assert_eq!(reported, listed, "per-layer metrics differ from the table");
    Traced {
        metrics,
        tally,
        tracer: t,
        setup_s,
        oracle_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scope_holds_its_dotted_parts_only() {
        assert!(in_scope("workload", "workload"));
        assert!(in_scope("workload.E", "workload"));
        assert!(in_scope("workload.E", "workload.E"));
        assert!(!in_scope("workload", "workload.E"));
        assert!(!in_scope("workloads", "workload"));
        assert!(!in_scope("probe.q6", "workload"));
    }
}
