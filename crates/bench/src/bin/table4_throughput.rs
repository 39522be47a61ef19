//! Table 4 (this reproduction's extension): aggregate throughput of the
//! concurrent query service, per backend, as the worker pool grows.
//!
//! The paper stops at single-user latency (Table 3). Table 4 answers the
//! production question instead: with one loaded store shared by N worker
//! threads serving a closed-loop mix of the Table 3 queries, how many
//! queries per second does each architecture sustain, and what do the
//! tail latencies look like?
//!
//! ```text
//! cargo run --release -p xmark-bench --bin table4_throughput \
//!     [--factor 0.01] [--requests 104] [--shards 4] [--write-pct 20] [--smoke]
//! ```
//!
//! `--smoke` runs a seconds-scale version (tiny document, two pool sizes,
//! a three-query mix) so CI exercises the whole service layer end to end.
//!
//! `--shards N` sets the top of the scale-out sweep: the same mix is
//! served from sharded union deployments of 1, 2, …, N entity shards
//! (System A in-memory, System H with one cold-opened page file and a
//! fixed **per-shard** frame budget per shard — scale-out adds memory
//! with machines). Every request streams off the union view, whose
//! cursors concatenate the shard runs in document order; under `--smoke`
//! the sweep asserts the sharded H deployment beats the one-shard
//! baseline on a host with at least four cores.
//!
//! `--write-pct N` adds a mixed closed loop: the same reader pool drains
//! the query mix from MVCC snapshots while a writer lane commits roughly
//! N structural updates per 100 reads through [`VersionedStore`]. The
//! report adds reader p50/p95/p99 under write pressure next to the
//! read-only baseline, plus writer commit-latency percentiles. Under
//! `--smoke` it asserts the isolation contract: readers never observe a
//! torn subtree (same-epoch results must be identical — the service
//! panics otherwise) and reader p95 stays within 1.5x of read-only p95.
//!
//! Every run also emits `BENCH_table4.json`: the worker-sweep cells
//! (QPS, worst-of-mix p50/p95/p99, plan-cache and index counters) and
//! the shard sweep (QPS + pool hit rate per shard count) — a
//! machine-readable baseline CI can diff.

use std::sync::Arc;

use xmark::prelude::*;
use xmark_bench::TextTable;

fn worker_sweep(max: usize) -> Vec<usize> {
    // 1, 2, 4, … up to the core count (always reaching at least 4 so the
    // scaling shape is visible even on small machines).
    let cap = max.max(4);
    let mut sweep = Vec::new();
    let mut w = 1;
    while w < cap {
        sweep.push(w);
        w *= 2;
    }
    sweep.push(cap);
    sweep
}

fn main() {
    let smoke = xmark_bench::has_flag("--smoke");
    let factor = xmark_bench::factor_from_args(if smoke { 0.001 } else { 0.01 });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = if smoke {
        vec![1, 2]
    } else {
        worker_sweep(cores)
    };
    let mix: Vec<usize> = if smoke {
        vec![1, 6, 17]
    } else {
        TABLE3_QUERIES.to_vec()
    };
    let requests =
        xmark_bench::usize_flag("--requests").unwrap_or(if smoke { 12 } else { mix.len() * 8 });

    println!(
        "== Table 4: concurrent throughput (factor {factor}, {} detected core(s), \
         {} requests/cell, mix of {} queries) ==\n",
        cores,
        requests,
        mix.len()
    );

    let session = Benchmark::at_factor(factor)
        .queries(mix.iter().copied())
        .generate();
    println!(
        "document: {}\n",
        xmark_bench::human_bytes(session.xml().len())
    );

    let mut header = vec!["System".to_string()];
    header.extend(sweep.iter().map(|w| format!("{w}w QPS")));
    header.push("p95 @max".to_string());
    header.push("ttfi p95".to_string());
    header.push("scale 1→max".to_string());
    header.push("cache hit".to_string());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);

    let mut json_cells: Vec<String> = Vec::new();
    for system in SystemId::ALL {
        let store: Arc<dyn XmlStore> = session.load_shared(system);
        let mut row = vec![format!("{system}")];
        let mut first_qps = 0.0;
        let mut last: Option<ThroughputReport> = None;
        for &workers in &sweep {
            let service = QueryService::start(Arc::clone(&store), workers);
            let report = service.run_mix(&mix, requests);
            if workers == sweep[0] {
                first_qps = report.qps();
            }
            row.push(format!("{:.0}", report.qps()));
            json_cells.push(cell_json(&format!("{system}"), workers, 1, &report, None));
            last = Some(report);
        }
        let last = last.expect("sweep is non-empty");
        let worst_p95 = last
            .per_query
            .iter()
            .map(|s| s.p95)
            .max()
            .unwrap_or_default();
        row.push(xmark_bench::ms(worst_p95));
        // Time-to-first-item at the same pool size: what a streaming
        // client waits before its first byte (workers serialize straight
        // into sinks, so this is far below p95 on large-result queries).
        let worst_ttfi = last
            .per_query
            .iter()
            .map(|s| s.ttfi_p95)
            .max()
            .unwrap_or_default();
        row.push(xmark_bench::ms(worst_ttfi));
        row.push(format!("{:.2}x", last.qps() / first_qps.max(1e-12)));
        row.push(format!("{:.0}%", last.plan_cache_hit_rate() * 100.0));
        table.row(row);
    }
    println!("{}", table.render());

    println!(
        "(closed loop: the first request per distinct query compiles and\n\
         caches its plan, every later one executes the cached plan; 'scale'\n\
         is QPS at the largest pool over QPS at 1 worker — expect ~linear\n\
         scaling up to the physical core count, and ~1x on a single core)"
    );

    // ---- shard sweep (--shards N): scale-out -----------------------------
    // The same document partitioned over 1, 2, …, N entity shards plus
    // the global head, served by the same worker pool. System A shards
    // are in-memory (the sweep isolates the union view's cost); System H
    // shards are per-shard page files opened **cold** with a fixed frame
    // budget per shard — a scale-out deployment adds buffer-pool memory
    // with every machine, so the sharded aggregate hit rate beats one
    // frame-starved monolithic pool even on a single core.
    let max_shards = xmark_bench::usize_flag("--shards").unwrap_or(if smoke { 2 } else { 4 });
    let mut shard_counts = vec![1usize];
    let mut next_shards = 2;
    while next_shards <= max_shards {
        shard_counts.push(next_shards);
        next_shards *= 2;
    }
    let shard_workers = *sweep.last().expect("non-empty sweep");
    const SHARD_POOL: usize = 12; // frames per shard node
    println!(
        "\nshard sweep (counts {shard_counts:?}, {shard_workers} worker(s), \
         H pool {SHARD_POOL} frames/shard):"
    );
    let mut shard_table = TextTable::new(&["System", "shards", "QPS", "worst p95", "pool hit"]);
    let mut h_shard_qps: Vec<(usize, f64)> = Vec::new();
    for system in [SystemId::A, SystemId::H] {
        for &shards in &shard_counts {
            let store: Arc<dyn XmlStore> = match (system, shards) {
                (SystemId::H, 1) => Arc::from(session.load_paged(Some(SHARD_POOL)).store),
                (SystemId::H, n) => {
                    Arc::from(session.load_sharded_paged(n, Some(SHARD_POOL)).store)
                }
                (_, 1) => session.load_shared(system),
                (_, n) => session.load_sharded_shared(system, n),
            };
            let service = QueryService::start(Arc::clone(&store), shard_workers);
            service.run_mix(&mix, mix.len()); // warm plans + indexes
            let pool_before = store.paged_stats();
            let mut best: Option<ThroughputReport> = None;
            for _ in 0..3 {
                let report = service.run_mix(&mix, requests);
                if best.as_ref().is_none_or(|b| report.qps() > b.qps()) {
                    best = Some(report);
                }
            }
            let report = best.expect("three sweep rounds");
            // Hit rate over the measured runs only — bulkload pins would
            // otherwise drown the steady-state signal.
            let pool_hit = store.paged_stats().zip(pool_before).map(|(after, before)| {
                let (h, m) = (after.hits - before.hits, after.misses - before.misses);
                h as f64 / (h + m).max(1) as f64
            });
            shard_table.row(vec![
                format!("{system}"),
                format!("{shards}"),
                format!("{:.0}", report.qps()),
                xmark_bench::ms(worst_of_mix(&report, |s| s.p95)),
                pool_hit.map_or("-".to_string(), |h| format!("{:.0}%", h * 100.0)),
            ]);
            json_cells.push(cell_json(
                &format!("{system}"),
                shard_workers,
                shards,
                &report,
                pool_hit,
            ));
            if system == SystemId::H {
                h_shard_qps.push((shards, report.qps()));
            }
        }
    }
    println!("{}", shard_table.render());
    let shard_scaling = {
        let (_, one) = h_shard_qps.first().copied().expect("sweep has 1 shard");
        let (top, best) = h_shard_qps.last().copied().expect("sweep non-empty");
        let ratio = best / one.max(1e-12);
        println!(
            "(H scale-out: {top} shard(s) at {ratio:.2}x the one-shard QPS — each shard \
             brings its own {SHARD_POOL}-frame pool and cold-opens its own page file)"
        );
        ratio
    };

    // ---- plan cache A/B: cached vs cold parse+plan per request ----------
    // A repeated-query mix on one representative backend, same worker
    // count, same store: the only difference is the plan cache.
    let cache_mix = vec![1usize, 17];
    let cache_requests = requests.max(cache_mix.len() * 10);
    let store: Arc<dyn XmlStore> = session.load_shared(SystemId::D);
    let best_qps = |service: &QueryService| -> (f64, f64) {
        // Best of three runs; the first run also warms the cache.
        let mut qps: f64 = 0.0;
        let mut hit_rate = 0.0;
        for _ in 0..3 {
            let report = service.run_mix(&cache_mix, cache_requests);
            if report.qps() > qps {
                qps = report.qps();
                hit_rate = report.plan_cache_hit_rate();
            }
        }
        (qps, hit_rate)
    };
    let cold_service = QueryService::start_with_cache(Arc::clone(&store), sweep[0], 0);
    let (cold_qps, _) = best_qps(&cold_service);
    drop(cold_service);
    let warm_service = QueryService::start(store, sweep[0]);
    let (warm_qps, warm_hits) = best_qps(&warm_service);
    drop(warm_service);
    let speedup = warm_qps / cold_qps.max(1e-12);
    println!(
        "\nplan cache A/B (System D, {} worker(s), repeated mix {:?}, {} requests):\n\
         \x20 cold parse+plan per request: {cold_qps:.0} QPS\n\
         \x20 cached physical plans:       {warm_qps:.0} QPS ({:.0}% hits)\n\
         \x20 speedup: {speedup:.2}x",
        sweep[0],
        cache_mix,
        cache_requests,
        warm_hits * 100.0,
    );

    // ---- index A/B: persistent vs per-execution join builds -------------
    // Q8 (decorrelated IndexLookup) and Q9 (hash join) on one backend,
    // same worker count, same store: the only difference is whether the
    // IndexManager persists the join-side value indexes and path
    // materializations across requests (warm) or every execution rebuilds
    // them (cold — the pre-index-layer behavior, per-execution memos
    // still in place). Runs on its own join-scale document: at the smoke
    // factor the per-request fixed costs (channel, timing) would drown
    // the build share this A/B isolates.
    let join_mix = vec![8usize, 9];
    let join_factor = if smoke { 0.01 } else { factor.max(0.01) };
    let join_session = Benchmark::at_factor(join_factor)
        .queries(join_mix.iter().copied())
        .generate();
    let join_requests = join_requests_for(requests, &join_mix);
    let store: Arc<dyn XmlStore> = join_session.load_shared(SystemId::A);
    let service = QueryService::start(Arc::clone(&store), sweep[0]);
    let index_build_time = service.build_indexes();
    // One untimed warm pass first: it performs the join-side value-index
    // builds, so every measured warm round (and the zero-rebuild
    // assertion below) sees a fully warm store. Then interleave the two
    // modes (cold, warm, cold, warm, …) and keep the best run of each,
    // so machine drift between phases cannot bias the ratio either way.
    service.run_mix(&join_mix, join_mix.len());
    let mut cold: Option<ThroughputReport> = None;
    let mut warm: Option<ThroughputReport> = None;
    for _ in 0..7 {
        for (persistent, slot) in [(false, &mut cold), (true, &mut warm)] {
            store.indexes().set_persistent(persistent);
            let report = service.run_mix(&join_mix, join_requests);
            if slot.as_ref().is_none_or(|b| report.qps() > b.qps()) {
                *slot = Some(report);
            }
        }
    }
    store.indexes().set_persistent(true);
    let (cold, warm) = (cold.expect("seven rounds"), warm.expect("seven rounds"));
    let index_speedup = warm.qps() / cold.qps().max(1e-12);
    println!(
        "\nindex A/B (System A, factor {join_factor}, {} worker(s), mix {:?}, \
         {} requests, element+id warmup {index_build_time:.2?}):\n\
         \x20 cold per-execution join builds: {:.0} QPS ({} index builds)\n\
         \x20 warm persistent value indexes:  {:.0} QPS ({} builds, {} hits)\n\
         \x20 speedup: {index_speedup:.2}x",
        sweep[0],
        join_mix,
        join_requests,
        cold.qps(),
        cold.index_builds,
        warm.qps(),
        warm.index_builds,
        warm.index_hits,
    );

    // ---- machine-readable baseline --------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"table4_throughput\",\n  \"factor\": {factor},\n  \
         \"cores\": {cores},\n  \"requests\": {requests},\n  \"mix\": {mix:?},\n  \
         \"worker_sweep\": {sweep:?},\n  \"shard_sweep\": {shard_counts:?},\n  \
         \"cells\": [\n    {}\n  ],\n  \
         \"plan_cache_ab\": {{\"cold_qps\": {cold_qps:.1}, \"warm_qps\": {warm_qps:.1}, \
         \"speedup\": {speedup:.2}}},\n  \
         \"index_ab\": {{\"cold_qps\": {:.1}, \"warm_qps\": {:.1}, \"speedup\": {index_speedup:.2}}}\n}}\n",
        json_cells.join(",\n    "),
        cold.qps(),
        warm.qps(),
    );
    std::fs::write("BENCH_table4.json", &json).expect("write BENCH_table4.json");
    println!("\nwrote BENCH_table4.json ({} cells)", json_cells.len());

    // ---- mixed read/write closed loop (--write-pct N) -------------------
    if let Some(write_pct) = xmark_bench::usize_flag("--write-pct") {
        run_mixed_loop(
            &session,
            &mix,
            requests,
            write_pct,
            *sweep.last().expect("non-empty"),
            smoke,
        );
    }

    if smoke {
        assert!(
            speedup >= 1.2,
            "plan cache must lift QPS by >=1.2x on a repeated-query mix \
             (measured {speedup:.2}x)"
        );
        assert_eq!(
            warm.index_builds, 0,
            "a warm service must serve Q8/Q9 with zero index rebuilds"
        );
        assert!(
            index_speedup >= 1.3,
            "warm-index Q8/Q9 serving must beat cold per-execution builds \
             by >=1.3x (measured {index_speedup:.2}x)"
        );
        // Scale-out contract: on a multi-core box the sharded H
        // deployment must beat the one-shard baseline outright (aggregate
        // pool memory). Below four cores the QPS ratio is too noisy to
        // floor, so there the sweep asserts only that every shard count
        // completed (the service already panics on any divergence between
        // concurrent requests).
        if cores >= 4 {
            assert!(
                shard_scaling >= 1.0,
                "sharded H serving fell to {shard_scaling:.2}x of the \
                 one-shard baseline on {cores} core(s)"
            );
        } else {
            println!(
                "({cores} core(s): shard-sweep QPS floor skipped, measured \
                 {shard_scaling:.2}x — correctness still asserted per request)"
            );
        }
        println!(
            "\nsmoke: service layer + plan cache + persistent indexes \
             + sharded unions exercised — OK"
        );
    }
}

/// Worst-of-mix percentile across a report's per-query stats.
fn worst_of_mix(
    report: &ThroughputReport,
    pick: impl Fn(&LatencyStats) -> std::time::Duration,
) -> std::time::Duration {
    report.per_query.iter().map(pick).max().unwrap_or_default()
}

/// One `BENCH_table4.json` cell: a (system, workers, shards) run with
/// its QPS, worst-of-mix latency percentiles, and cache/index counters.
fn cell_json(
    system: &str,
    workers: usize,
    shards: usize,
    report: &ThroughputReport,
    pool_hit: Option<f64>,
) -> String {
    format!(
        "{{\"system\":\"{system}\",\"workers\":{workers},\"shards\":{shards},\
         \"qps\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"ttfi_p95_us\":{},\
         \"cache_hit_rate\":{:.4},\"plan_cache_hits\":{},\"plan_cache_misses\":{},\
         \"index_builds\":{},\"index_hits\":{},\"pool_hit_rate\":{}}}",
        report.qps(),
        worst_of_mix(report, |s| s.p50).as_micros(),
        worst_of_mix(report, |s| s.p95).as_micros(),
        worst_of_mix(report, |s| s.p99).as_micros(),
        worst_of_mix(report, |s| s.ttfi_p95).as_micros(),
        report.plan_cache_hit_rate(),
        report.plan_cache_hits,
        report.plan_cache_misses,
        report.index_builds,
        report.index_hits,
        pool_hit.map_or("null".to_string(), |h| format!("{h:.4}")),
    )
}

/// Enough requests that each A/B run spans a measurable wall time on a
/// single core: at least fifty rounds of the mix.
fn join_requests_for(requests: usize, mix: &[usize]) -> usize {
    requests.max(mix.len() * 50)
}

/// The `--write-pct` mixed closed loop: readers drain the query mix from
/// pinned MVCC snapshots while a writer lane commits structural updates
/// (insert a bidder / delete it again, round-robin over the open
/// auctions) through a [`VersionedStore`] over System A.
fn run_mixed_loop(
    session: &Session,
    mix: &[usize],
    requests: usize,
    write_pct: usize,
    workers: usize,
    smoke: bool,
) {
    let versioned = VersionedStore::new(session.load_shared(SystemId::A));
    let service = QueryService::start_source(
        Arc::clone(&versioned) as Arc<dyn xmark::store::StoreSource>,
        workers,
        DEFAULT_PLAN_CACHE,
    );
    let auctions: Vec<_> = {
        let s = versioned.snapshot();
        s.descendants_named_iter(s.root(), "open_auction").collect()
    };
    let baseline_bidders = {
        let s = versioned.snapshot();
        s.count_descendants_named(s.root(), "bidder")
    };

    // Read-only baseline, best of three, worst p95 across the mix.
    let worst_p95 = |report: &ThroughputReport| {
        report
            .per_query
            .iter()
            .map(|s| s.p95)
            .max()
            .unwrap_or_default()
    };
    let read_only_p95 = (0..3)
        .map(|_| worst_p95(&service.run_mix(mix, requests)))
        .min()
        .expect("three baseline runs");

    // The writer lane: even calls append a fresh bidder to the next
    // auction, odd calls delete it again, so the document stays bounded
    // and the final state is checkable (the parity invariant).
    let mut calls = 0usize;
    let mut pending_delete: Option<xmark::store::Node> = None;
    let mut write = || -> Option<std::time::Duration> {
        let start = std::time::Instant::now();
        let mut txn = versioned.begin();
        match pending_delete.take() {
            Some(auction) => {
                let s = versioned.snapshot();
                let bidder = s
                    .children_named_iter(auction, "bidder")
                    .last()
                    .expect("the bidder inserted by the previous call");
                txn.delete_subtree(bidder);
            }
            None => {
                let auction = auctions[(calls / 2) % auctions.len()];
                txn.insert_subtree(
                    auction,
                    "<bidder><date>28/07/2026</date><time>12:00:00</time>\
                     <personref person=\"person0\"/><increase>4.50</increase></bidder>",
                );
                pending_delete = Some(auction);
            }
        }
        calls += 1;
        txn.commit().expect("writer lane commit");
        Some(start.elapsed())
    };

    // Mixed run, best of three by reader p95; commits accumulate. Epoch
    // overlap is judged across all rounds, not just the best one — the
    // best-p95 round is exactly the round where readers drained fastest
    // and were least likely to catch a commit mid-flight.
    let mut best: Option<MixedReport> = None;
    let mut max_epochs = 0usize;
    for _ in 0..3 {
        let report = service.run_mixed(mix, requests, write_pct as u32, &mut write);
        max_epochs = max_epochs.max(report.epochs_observed);
        if best
            .as_ref()
            .is_none_or(|b| worst_p95(&report.read) < worst_p95(&b.read))
        {
            best = Some(report);
        }
    }
    let best = best.expect("three mixed runs");
    let mixed_p95 = worst_p95(&best.read);

    println!(
        "\nmixed read/write closed loop (System A via MVCC snapshots, {workers} worker(s), \
         ~{write_pct} writes per 100 reads, best of 3):"
    );
    for s in &best.read.per_query {
        println!(
            "  Q{:<2} reader p50 {} / p95 {} / p99 {}  ({} requests)",
            s.query,
            xmark_bench::ms(s.p50),
            xmark_bench::ms(s.p95),
            xmark_bench::ms(s.p99),
            s.count,
        );
    }
    println!(
        "  writer: {} commit(s) in the best round, p50 {} / p95 {} / max {}\n\
         \x20 reader p95 worst-of-mix: {} read-only vs {} mixed ({:.2}x); \
         {} snapshot epoch(s) observed",
        best.commits,
        xmark_bench::ms(best.commit_p50),
        xmark_bench::ms(best.commit_p95),
        xmark_bench::ms(best.commit_max),
        xmark_bench::ms(read_only_p95),
        xmark_bench::ms(mixed_p95),
        mixed_p95.as_secs_f64() / read_only_p95.as_secs_f64().max(1e-12),
        best.epochs_observed,
    );

    // Parity invariant: every insert not yet paired with its delete is
    // still visible, everything else left the document unchanged.
    let expected = baseline_bidders + usize::from(pending_delete.is_some());
    let s = versioned.snapshot();
    assert_eq!(
        s.count_descendants_named(s.root(), "bidder"),
        expected,
        "writer-lane parity: inserts and deletes must pair up"
    );

    if smoke {
        assert!(
            best.commits > 0,
            "the writer lane must commit under --smoke"
        );
        assert!(
            max_epochs >= 2,
            "readers must overlap at least one commit in some round (saw at most {max_epochs} epochs)"
        );
        // Readers pin snapshots and never block on the writer: write
        // pressure may cost cache misses, not contention stalls. (Torn
        // reads are covered by the service's same-epoch result check,
        // which panics inside run_mixed.)
        assert!(
            mixed_p95.as_secs_f64() <= 1.5 * read_only_p95.as_secs_f64().max(1e-9),
            "reader p95 under write pressure ({}) exceeded 1.5x the \
             read-only baseline ({})",
            xmark_bench::ms(mixed_p95),
            xmark_bench::ms(read_only_p95),
        );
        println!(
            "smoke: mixed loop OK — snapshot isolation held, readers \
             stayed within 1.5x of the read-only baseline"
        );
    }
}
