//! The five workloads: what each sets up, the oracle every result is
//! held to, and the closed-loop measured rounds.

use crate::calib;
use crate::json::Json;
use crate::mix::{self, Schedule};
use crate::stats::geo_mean;
use crate::sut::{self, Round, Served, Service, Source, SystemId, Versioned, WriterLane};
use crate::trace::{Counters, Tracer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Frames that hold every page file the benchmark writes (the largest,
/// factor 0.05, is ≈ 1 500 pages).
pub const FIT_POOL: usize = 4096;
/// `--smoke` runs every workload at this factor.
pub const SMOKE_FACTOR: f64 = 0.005;
/// Unmeasured mix cycles that end every set-up: they fill the plan
/// cache and the join-side value slots.
const WARMUP_CYCLES: usize = 2;

/// What a workload's store is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One cell per backend A–H, served in turn.
    Suite,
    /// System E in memory.
    Mem,
    /// System H persisted, then opened cold with a pool of this share of
    /// the file's pages.
    Paged { pool_share: f64 },
    /// System E split into this many entity shards plus the head.
    Sharded { shards: usize },
    /// System H persisted and opened for transactions; the writer lane
    /// commits this many times per 100 reads.
    Mixed { write_pct: u32 },
}

/// One workload's fixed definition. The run length — set-ups, rounds per
/// set-up, requests per round — is fixed here and stated in the
/// workload's `why` in `BENCHMARK.json`; nothing is calibrated at run
/// time, so both sides of a comparison do the same work at the same
/// depth into a set-up's life.
pub struct Spec {
    pub name: &'static str,
    pub factor: f64,
    pub mix: fn() -> Vec<usize>,
    pub workers: usize,
    pub kind: Kind,
    /// Set-ups per run. Each gives one sample of every metric.
    pub setups: usize,
    /// Measured rounds per set-up at the manifest's `run_seconds`.
    pub rounds: usize,
    /// Mix cycles per measured round (per cell).
    pub cycles: usize,
    /// Whether its times are reported at the reference clock (see
    /// `calib`): true where same-commit runs showed that to narrow the
    /// spread between seeds.
    pub clock_corrected: bool,
}

impl Spec {
    /// Requests of one measured round.
    pub fn round_requests(&self) -> usize {
        let cells = if self.kind == Kind::Suite {
            sut::BACKENDS.len()
        } else {
            1
        };
        cells * self.cycles * (self.mix)().len()
    }
}

/// Sized on a 2-core box so that the measured rounds of a run take about
/// 10 s together (see README, "Sizing").
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "suite_all",
        factor: 0.01,
        mix: mix::all20,
        workers: 1,
        kind: Kind::Suite,
        setups: 7,
        rounds: 2,
        cycles: 1,
        clock_corrected: true,
    },
    Spec {
        name: "lookup_mem",
        factor: 0.1,
        mix: mix::lookup15,
        workers: 2,
        kind: Kind::Mem,
        setups: 9,
        rounds: 3,
        cycles: 40,
        clock_corrected: true,
    },
    Spec {
        name: "lookup_paged",
        factor: 0.05,
        mix: mix::lookup15,
        workers: 2,
        kind: Kind::Paged { pool_share: 0.085 },
        setups: 7,
        rounds: 2,
        cycles: 6,
        clock_corrected: false,
    },
    Spec {
        name: "lookup_sharded",
        factor: 0.1,
        mix: mix::lookup15,
        workers: 2,
        kind: Kind::Sharded { shards: 2 },
        setups: 9,
        rounds: 3,
        cycles: 30,
        clock_corrected: true,
    },
    Spec {
        name: "mixed_rw",
        factor: 0.05,
        mix: mix::lookup15,
        workers: 1,
        kind: Kind::Mixed { write_pct: 20 },
        setups: 7,
        rounds: 3,
        cycles: 4,
        clock_corrected: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One served store: suite_all has eight, every other workload one.
pub struct Cell {
    /// Backend letter.
    pub label: String,
    pub source: Source,
    pub service: Service,
}

/// A workload, set up and warm.
pub struct Rig {
    pub spec: &'static Spec,
    pub doc_bytes: usize,
    pub cells: Vec<Cell>,
    pub versioned: Option<Versioned>,
    pub page_file: Option<PathBuf>,
    /// Frames of the pool the page file is served through.
    pub pool_pages: Option<usize>,
    pub file_pages: Option<u32>,
}

impl Rig {
    /// Resident + on-disk bytes (WAL included) of every cell, as a share
    /// of the document's bytes.
    pub fn space_ratio(&self) -> f64 {
        let bytes: usize = self
            .cells
            .iter()
            .map(|c| {
                let f = sut::footprint(c.source.snapshot().as_ref());
                f.resident + f.disk
            })
            .sum();
        bytes as f64 / self.doc_bytes as f64
    }
}

fn no_counters() -> Counters {
    Counters::default()
}

/// A page-file path inside `dir` no earlier set-up has used.
fn fresh_page_file(dir: &Path, stem: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    dir.join(format!(
        "{stem}-{}.pages",
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Persist `xml` as a System H page file: `store.H.bulkload` with
/// `xml.parse` inside it. Returns the path and the pages written.
pub fn persist(dir: &Path, stem: &str, xml: &str, t: &mut Tracer) -> (PathBuf, u32) {
    let path = fresh_page_file(dir, stem);
    let load = t.enter("store.H.bulkload", "H", no_counters);
    let parse = t.enter("xml.parse", "", no_counters);
    let doc = sut::parse_xml(xml);
    t.exit(parse, no_counters);
    let pages = sut::persist_paged(&path, &doc, FIT_POOL);
    t.exit(load, no_counters);
    (path, pages)
}

/// Start the cell's pool, build its store-walk indexes and run the
/// warm-up cycles.
fn serve_warm(label: &str, source: Source, spec: &Spec, mix: &[usize], t: &mut Tracer) -> Cell {
    let service = sut::serve(&source, spec.workers);
    let span = t.enter("store.index.build", label, no_counters);
    sut::warm_indexes(&service);
    t.exit(span, no_counters);
    let span = t.enter("service.warmup", label, no_counters);
    sut::run_mix(&service, mix, mix.len() * WARMUP_CYCLES);
    t.exit(span, no_counters);
    Cell {
        label: label.to_string(),
        source,
        service,
    }
}

/// Everything between process start and the first measured round:
/// generate, bulkload (persist and open for H), index warm-up and the
/// warm-up cycles. Returns the rig and the document text (the oracle
/// loads its reference store from it).
pub fn setup(
    spec: &'static Spec,
    factor: f64,
    mix: &[usize],
    dir: &Path,
    t: &mut Tracer,
) -> (Rig, String) {
    t.set_scope("setup");
    let span = t.enter("gen.generate", "", no_counters);
    let xml = sut::generate(factor);
    t.exit(span, no_counters);
    let mut rig = Rig {
        spec,
        doc_bytes: xml.len(),
        cells: Vec::new(),
        versioned: None,
        page_file: None,
        pool_pages: None,
        file_pages: None,
    };
    let mem_cell = |system: SystemId, t: &mut Tracer| {
        let label = sut::letter(system);
        let span = t.enter(&format!("store.{label}.bulkload"), &label, no_counters);
        let store = sut::load(system, &xml);
        t.exit(span, no_counters);
        serve_warm(&label, sut::source_of(&store), spec, mix, t)
    };
    match spec.kind {
        Kind::Suite => {
            for system in sut::BACKENDS {
                if system == sut::SYSTEM_H {
                    let (path, _) = persist(dir, spec.name, &xml, t);
                    let span = t.enter("store.paged.open", "H", no_counters);
                    let store = sut::open_paged(&path, FIT_POOL);
                    t.exit(span, no_counters);
                    rig.cells
                        .push(serve_warm("H", sut::source_of(&store), spec, mix, t));
                } else {
                    rig.cells.push(mem_cell(system, t));
                }
            }
        }
        Kind::Mem => rig.cells.push(mem_cell(sut::SYSTEM_E, t)),
        Kind::Sharded { shards } => {
            let span = t.enter("store.shard.load", "E", no_counters);
            let store = sut::load_sharded(sut::SYSTEM_E, factor, shards);
            t.exit(span, no_counters);
            rig.cells
                .push(serve_warm("E", sut::source_of(&store), spec, mix, t));
        }
        Kind::Paged { pool_share } => {
            let (path, pages) = persist(dir, spec.name, &xml, t);
            let pool = ((f64::from(pages) * pool_share) as usize).max(8);
            let span = t.enter("store.paged.open", "H", no_counters);
            let store = sut::open_paged(&path, pool);
            t.exit(span, no_counters);
            rig.cells
                .push(serve_warm("H", sut::source_of(&store), spec, mix, t));
            rig.page_file = Some(path);
            rig.pool_pages = Some(pool);
            rig.file_pages = Some(pages);
        }
        Kind::Mixed { .. } => {
            let (path, pages) = persist(dir, spec.name, &xml, t);
            let span = t.enter("txn.recover", "H", no_counters);
            let (versioned, _) = sut::open_versioned(&path, FIT_POOL);
            t.exit(span, no_counters);
            let source = sut::source_of_versioned(&versioned);
            rig.cells.push(serve_warm("H", source, spec, mix, t));
            rig.versioned = Some(versioned);
            rig.page_file = Some(path);
            rig.pool_pages = Some(FIT_POOL);
            rig.file_pages = Some(pages);
        }
    }
    (rig, xml)
}

// ---- the oracle ------------------------------------------------------------------

/// FNV-1a (64 bit) of a canonical output, as committed under
/// `expected/`.
pub fn digest(output: &str) -> String {
    let hash = output.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// What every request of a query must return, and the canonical output
/// the stores are compared on.
pub struct Expected {
    pub served: HashMap<usize, Served>,
    pub canonical: HashMap<usize, String>,
}

/// What the oracle found.
pub struct OracleReport {
    pub expected: Expected,
    pub checks: usize,
    pub failures: Vec<String>,
}

/// Compare every query of `mix` on every cell against (a) a reference
/// System G store loaded from the same XML and (b) the committed digest
/// of the canonical output, if one is committed for this factor.
pub fn oracle(rig: &Rig, xml: &str, factor: f64, mix: &[usize], committed: &Json) -> OracleReport {
    let reference = sut::load(sut::SYSTEM_G, xml);
    let reference_source = sut::source_of(&reference);
    let mut off = Tracer::new(false);
    let mut report = OracleReport {
        expected: Expected {
            served: HashMap::new(),
            canonical: HashMap::new(),
        },
        checks: 0,
        failures: Vec::new(),
    };
    let committed = committed.get(&factor.to_string());
    for &q in mix {
        let want = sut::canonical(reference.as_ref(), q);
        let digest = digest(&want);
        if let Some(known) = committed.and_then(|c| c.get(&q.to_string())) {
            report.checks += 1;
            if known.as_str() != Some(&digest) {
                report.failures.push(format!(
                    "Q{q} at factor {factor}: digest {digest} differs from the committed one"
                ));
            }
        }
        for cell in &rig.cells {
            report.checks += 1;
            if sut::canonical(cell.source.snapshot().as_ref(), q) != want {
                report.failures.push(format!(
                    "Q{q} on {}: output differs from the reference store",
                    cell.label
                ));
            }
        }
        report
            .expected
            .served
            .insert(q, sut::request(reference_source.as_ref(), q, &mut off));
        report.expected.canonical.insert(q, want);
    }
    report
}

/// Whether the writer lane can change what query `q` returns: it only
/// ever inserts and deletes `<bidder>` subtrees.
pub fn write_sensitive(q: usize) -> bool {
    sut::query_text(q).contains("bidder")
}

/// Requests of `round` that disagree with the oracle. Cardinality is
/// known per query; bytes only in total, so a byte mismatch that no
/// cardinality explains fails the whole round. Under the writer lane the
/// write-sensitive queries legitimately vary by epoch (the service itself
/// asserts they agree within one) and are checked after the run instead.
pub fn failed_requests(round: &Round, expected: &Expected, under_writes: bool) -> usize {
    let mut failed = 0;
    let mut want_bytes = 0u64;
    let mut bytes_known = true;
    for lat in &round.per_query {
        let want = expected.served[&lat.query];
        if under_writes && write_sensitive(lat.query) {
            bytes_known = false;
        } else if lat.items != want.items {
            failed += lat.count;
        }
        want_bytes += want.bytes * lat.count as u64;
    }
    if failed == 0 && bytes_known && want_bytes != round.result_bytes {
        failed = round.requests;
    }
    failed
}

// ---- measured rounds ----------------------------------------------------------------

/// The end-to-end numbers of one measured round, as the wall clock gave
/// them, and the clock probe to correct them by.
#[derive(Debug, Clone, Copy)]
pub struct RoundMetrics {
    pub wall_s: f64,
    pub qps: f64,
    pub lat_geo_p50_ms: f64,
    pub ttfi_geo_p50_ms: f64,
    pub commit_p50_ms: f64,
    pub commit_p95_ms: f64,
    /// The clock probe (`calib::kernel_ms`) over the round: the mean of
    /// the readings before and after it.
    pub clock_probe_ms: f64,
}

/// What the measured rounds of a run add up to.
#[derive(Default)]
pub struct Timed {
    pub attempted: usize,
    pub failed: usize,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub index_builds: u64,
}

/// Fold one round's closed-loop calls (one per cell) into the round's
/// metrics.
pub fn round_metrics(cells: &[Round], clock_probe_ms: f64) -> RoundMetrics {
    let requests: usize = cells.iter().map(|r| r.requests).sum();
    let wall_s: f64 = cells.iter().map(|r| r.wall_s).sum();
    // The clock ticks in nanoseconds; a reading of zero counts as one.
    let geo_ms = |pick: fn(&sut::QueryLat) -> f64| {
        let values: Vec<f64> = cells
            .iter()
            .flat_map(|r| r.per_query.iter().map(move |l| pick(l).max(1e-9) * 1e3))
            .collect();
        geo_mean(&values)
    };
    RoundMetrics {
        wall_s,
        qps: requests as f64 / wall_s,
        lat_geo_p50_ms: geo_ms(|l| l.p50_s),
        ttfi_geo_p50_ms: geo_ms(|l| l.ttfi_p50_s),
        commit_p50_ms: cells.iter().map(|r| r.commit_p50_s).sum::<f64>() * 1e3,
        commit_p95_ms: cells.iter().map(|r| r.commit_p95_s).sum::<f64>() * 1e3,
        clock_probe_ms,
    }
}

/// `rounds` closed-loop rounds of the workload's fixed request count,
/// tallied into `timed`.
pub fn measure(
    rig: &Rig,
    schedule: &mut Schedule,
    expected: &Expected,
    rounds: usize,
    mut lane: Option<&mut WriterLane>,
    timed: &mut Timed,
) -> Vec<RoundMetrics> {
    let spec = rig.spec;
    let mut probe = calib::kernel_ms();
    (0..rounds)
        .map(|_| {
            let before = probe;
            let mut cells = Vec::with_capacity(rig.cells.len());
            for cell in &rig.cells {
                let order = schedule.cycles(spec.cycles);
                let round = match (spec.kind, lane.as_deref_mut()) {
                    (Kind::Mixed { write_pct }, Some(lane)) => {
                        sut::run_mixed(&cell.service, &order, order.len(), write_pct, lane)
                    }
                    _ => sut::run_mix(&cell.service, &order, order.len()),
                };
                timed.attempted += round.requests + round.commits;
                timed.failed += failed_requests(&round, expected, lane.is_some());
                timed.plan_hits += round.plan_hits;
                timed.plan_misses += round.plan_misses;
                timed.index_builds += round.index_builds;
                cells.push(round);
            }
            probe = calib::kernel_ms();
            round_metrics(&cells, (before + probe) / 2.0)
        })
        .collect()
}

/// How a `mixed_rw` set-up closed.
pub struct Closed {
    pub checks: usize,
    pub failures: Vec<String>,
    /// Commits the re-open replayed from the WAL.
    pub replayed: usize,
}

/// The checks that close a `mixed_rw` run: the bidder-parity invariant,
/// every query's output on the final snapshot (at parity the document is
/// logically the one that was loaded), then — the acknowledged-write
/// durability check — drop every handle, re-open the page file (a
/// `txn.recover` span in scope `close`) and find every commit replayed
/// and parity intact.
pub fn close_mixed(
    rig: Rig,
    lane: WriterLane,
    mix: &[usize],
    expected: &Expected,
    t: &mut Tracer,
) -> Closed {
    let mut checks = 0;
    let mut failures = Vec::new();
    let path = rig.page_file.clone().expect("mixed_rw has a page file");
    let (commits, pending, bidders) = (lane.commits, lane.pending(), lane.expected_bidders());
    {
        let snap = sut::snapshot(rig.versioned.as_ref().expect("mixed_rw is versioned"));
        checks += 1;
        if sut::count_named(snap.as_ref(), "bidder") != bidders {
            failures.push("bidder parity broken on the final snapshot".to_string());
        }
        for &q in mix {
            if pending && write_sensitive(q) {
                continue;
            }
            checks += 1;
            if sut::canonical(snap.as_ref(), q) != expected.canonical[&q] {
                failures.push(format!(
                    "Q{q} on the final snapshot differs from the reference"
                ));
            }
        }
    }
    // Every handle on the page file and its WAL goes before the re-open.
    drop(lane);
    drop(rig);
    t.set_scope("close");
    let span = t.enter("txn.recover", "H", no_counters);
    let (reopened, replayed) = sut::open_versioned(&path, FIT_POOL);
    t.exit(span, no_counters);
    checks += 2;
    if replayed != commits {
        failures.push(format!(
            "re-open replayed {replayed} commits, the lane made {commits}"
        ));
    }
    if sut::count_named(sut::snapshot(&reopened).as_ref(), "bidder") != bidders {
        failures.push("bidder parity broken after re-open".to_string());
    }
    Closed {
        checks,
        failures,
        replayed,
    }
}
