//! Cross-backend concurrency property: N threads running the same query
//! mix over ONE shared store must produce canonical outputs identical to
//! the single-threaded run — for every one of the eight backends, for a
//! pinned snapshot of an updated H, and for a sharded union whose cursors
//! the threads share — and concurrent compiles must report the sequential
//! compile statistics.
//!
//! This is the correctness half of the concurrent service layer. The
//! throughput half (perflab's workloads) only makes sense if sharing a
//! store across threads never changes an answer: no compile statistics
//! that depend on another thread's timing, no cache cross-talk, no
//! evaluator state leaking between concurrent executions.

mod common;

use std::sync::Arc;
use std::thread;

use xmark::prelude::*;
use xmark::query::CompileStats;

/// A mix that exercises every access-path family: ID lookup (Q1),
/// positional index (Q2), casting (Q5), structural-summary counting (Q6),
/// reference chasing / hash join (Q8), and long path traversal (Q17).
const MIX: [usize; 6] = [1, 2, 5, 6, 8, 17];
const THREADS: usize = 4;
/// Closed-loop rounds each thread runs over the whole mix.
const ROUNDS: usize = 2;

fn assert_concurrent_matches_sequential(system: impl std::fmt::Display, store: &Arc<dyn XmlStore>) {
    // Ground truth: the single-threaded canonical output of each query.
    let expected: Vec<String> = MIX
        .iter()
        .map(|&q| canonical_output(store.as_ref(), q))
        .collect();

    let outputs: Vec<Vec<String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = Arc::clone(store);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..ROUNDS {
                        // Stagger the order per thread and round so
                        // different queries genuinely overlap.
                        for i in 0..MIX.len() {
                            let q = MIX[(i + t + round) % MIX.len()];
                            seen.push((q, canonical_output(store.as_ref(), q)));
                        }
                    }
                    let mut per_query = vec![String::new(); MIX.len()];
                    for (q, out) in seen {
                        let slot = MIX.iter().position(|&m| m == q).unwrap();
                        per_query[slot] = out;
                    }
                    per_query
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    for (t, per_query) in outputs.iter().enumerate() {
        for (slot, &q) in MIX.iter().enumerate() {
            assert_eq!(
                per_query[slot], expected[slot],
                "{system}: thread {t} diverged from the sequential run on Q{q}"
            );
        }
    }
}

macro_rules! concurrency_test {
    ($name:ident, $system:expr) => {
        #[test]
        fn $name() {
            let doc = generate_document(0.002);
            let store = Arc::from(load_system($system, &doc.xml).store);
            assert_concurrent_matches_sequential($system, &store);
        }
    };
}

concurrency_test!(system_a_concurrent_equals_sequential, SystemId::A);
concurrency_test!(system_b_concurrent_equals_sequential, SystemId::B);
concurrency_test!(system_c_concurrent_equals_sequential, SystemId::C);
concurrency_test!(system_d_concurrent_equals_sequential, SystemId::D);
concurrency_test!(system_e_concurrent_equals_sequential, SystemId::E);
concurrency_test!(system_f_concurrent_equals_sequential, SystemId::F);
concurrency_test!(system_g_concurrent_equals_sequential, SystemId::G);

/// Bulkload `doc` into a page file and reopen it cold behind a pool of a
/// tenth of its pages; the file goes when the store drops.
fn cold_h_tenth_pool(doc: &GeneratedDocument, name: &str) -> PagedStore {
    let path =
        xmark::store::paged::scratch_dir().join(format!("it-{}-{name}.pages", std::process::id()));
    let file_pages = {
        let parsed = xmark::xml::parse_document(&doc.xml).unwrap();
        let warm = PagedStore::create_at(&path, &parsed, DEFAULT_POOL_PAGES).unwrap();
        warm.num_pages() as usize
    };
    let pool = file_pages / 10;
    // A thread's reader pins at most one page per extent; fewer frames
    // than that per thread and the pool could run dry.
    assert!(
        pool >= 3 * THREADS,
        "document too small: {file_pages} pages give a {pool}-frame pool"
    );
    let mut cold = PagedStore::open(&path, pool).unwrap();
    cold.mark_ephemeral();
    cold
}

fn assert_pool_evicted(store: &dyn XmlStore) {
    let stats = store.paged_stats().expect("H reports pool counters");
    assert!(
        stats.evictions > 0 && stats.hits > 0,
        "a tenth-size pool must evict: {stats:?}"
    );
}

/// H shares a buffer pool, not just read-only arrays: the page file is
/// opened cold behind a pool of a tenth of its pages, so the four
/// threads' page loads, their waits on each other's loading frames and
/// evictions genuinely overlap.
#[test]
fn system_h_concurrent_equals_sequential() {
    let doc = generate_document(0.005);
    let cold: Arc<dyn XmlStore> = Arc::new(cold_h_tenth_pool(&doc, "concurrent"));
    assert_concurrent_matches_sequential(SystemId::H, &cold);
    assert_pool_evicted(cold.as_ref());
}

/// The same pool under one pinned snapshot of an updated H: the update
/// script dirties the root, so every thread's reads switch between the
/// overlay walk and H's own page reads, and the shared index builds on
/// the snapshot read attributes off the pages concurrently.
#[test]
fn versioned_h_concurrent_equals_sequential() {
    let doc = generate_document(0.005);
    let versioned = VersionedStore::new(Arc::new(cold_h_tenth_pool(&doc, "versioned")));
    common::apply_update_script(&versioned);
    let snapshot: Arc<dyn XmlStore> = versioned.snapshot();
    assert_concurrent_matches_sequential("versioned H", &snapshot);
    assert_pool_evicted(snapshot.as_ref());
}

/// A 2-shard union of E: the threads read through one union view (its
/// fused nodes, segment offsets and union-owned index) instead of one
/// thread per shard part.
#[test]
fn sharded_e_concurrent_equals_sequential() {
    let session = Benchmark::at_factor(0.002).generate();
    let union = session.load_sharded_shared(SystemId::E, 2);
    assert_eq!(union.shard_part_count(), 3, "global head + 2 entity shards");
    assert_concurrent_matches_sequential("E x2 shards", &union);
}

/// The service layer itself, driven over every backend: worker-pool
/// results carry the same cardinalities the sequential evaluator reports.
#[test]
fn service_pool_preserves_cardinalities_on_all_backends() {
    let session = Benchmark::at_factor(0.001).queries([1, 6]).generate();
    for system in SystemId::ALL {
        let loaded = session.load(system);
        let seq_items: Vec<usize> = [1, 6]
            .iter()
            .map(|&q| measure_query(&loaded, q).result_items)
            .collect();
        let service = QueryService::start(Arc::from(loaded.store), THREADS);
        let report = service.run_mix(&[1, 6], 8);
        assert_eq!(report.requests, 8, "{system}: lost requests");
        // Each query ran 4 times; the cardinality every worker observed
        // matches the sequential run (run_mix itself asserts that all
        // concurrent requests of a query agreed with each other).
        for (&q, &expected_items) in [1usize, 6].iter().zip(&seq_items) {
            let stats = report.stats(q).unwrap_or_else(|| {
                panic!("{system}: no latency stats for Q{q}");
            });
            assert_eq!(stats.count, 4, "{system}: Q{q} request count");
            assert!(stats.p50 <= stats.p99, "{system}: Q{q} percentile order");
            assert_eq!(
                stats.result_items, expected_items,
                "{system}: Q{q} cardinality under the pool diverged from sequential"
            );
        }
    }
}

/// Planning only reads the store: every step's catalog estimate reports
/// its own metadata accesses. So compiles racing on one shared store — the
/// service's cache-miss path — each report exactly the sequential
/// [`CompileStats`], Table 2's metadata column included.
#[test]
fn concurrent_compiles_report_their_own_metadata_accesses() {
    const COMPILE_ROUNDS: usize = 50;
    let doc = generate_document(0.002);
    let mut stores: Vec<(String, Arc<dyn XmlStore>)> =
        [SystemId::A, SystemId::B, SystemId::C, SystemId::H]
            .into_iter()
            .map(|system| {
                let store = Arc::from(load_system(system, &doc.xml).store);
                (system.to_string(), store)
            })
            .collect();
    let versioned = VersionedStore::new(Arc::from(load_system(SystemId::A, &doc.xml).store));
    common::apply_update_script(&versioned);
    stores.push(("versioned A".to_string(), versioned.snapshot()));

    for (name, store) in &stores {
        let expected: Vec<CompileStats> = ALL_QUERIES
            .iter()
            .map(|q| compile(q.text, store.as_ref()).unwrap().stats)
            .collect();
        thread::scope(|scope| {
            for t in 0..THREADS {
                let (store, expected) = (store.as_ref(), &expected);
                scope.spawn(move || {
                    for round in 0..COMPILE_ROUNDS {
                        for i in 0..ALL_QUERIES.len() {
                            let slot = (i + t + round) % ALL_QUERIES.len();
                            let q = &ALL_QUERIES[slot];
                            assert_eq!(
                                compile(q.text, store).unwrap().stats,
                                expected[slot],
                                "{name}: thread {t}, round {round}, Q{}",
                                q.number
                            );
                        }
                    }
                });
            }
        });
    }
}
