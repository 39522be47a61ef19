//! The persistent index subsystem, end to end: one `@id` code path across
//! all seven backends, warm-index execution equivalent to the naive
//! specification, exactly-once builds under concurrency, and the
//! planner's density gate for IndexScan.

use std::sync::Arc;

use xmark::prelude::*;
use xmark::query::compile_with_mode;
use xmark::query::{canonicalize, execute};
use xmark::store::NaiveStore;

/// Satellite: every backend answers `lookup_id` through the shared
/// attribute-value index — including System G, which used to return
/// `None` (no index at all), and the disk-resident backend H, whose
/// index build reads attribute records through the buffer pool.
#[test]
fn all_backends_answer_id_lookups() {
    let doc = generate_document(0.002);
    let mut hits = Vec::new();
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let hit = store
            .lookup_id("person0")
            .unwrap_or_else(|| panic!("{system} must find person0"));
        assert_eq!(store.tag_of(hit), Some("person"), "{system}");
        assert_eq!(
            store.attribute(hit, "id").as_deref(),
            Some("person0"),
            "{system}"
        );
        assert_eq!(
            store.lookup_id("no-such-id"),
            None,
            "{system} must answer misses too"
        );
        hits.push(hit.0);
    }
    // All stores number pre-order, so the hit is literally the same node.
    assert!(hits.windows(2).all(|w| w[0] == w[1]), "hits: {hits:?}");
}

/// Index ≡ scan oracle: with every shared index warm, the optimized
/// plans (IndexScan postings, persistent IndexLookup/HashJoin build
/// sides, indexed aggregates) must stay byte-identical to the pure
/// nested-loop specification on all twenty queries × all seven backends.
#[test]
fn warm_indexes_preserve_all_twenty_queries_on_every_backend() {
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        store.indexes().build_all(store);
        for q in &ALL_QUERIES {
            let naive = compile_with_mode(q.text, store, PlanMode::Naive).unwrap();
            let expected = canonicalize(store, &execute(&naive, store).unwrap());
            let optimized = compile(q.text, store).unwrap();
            // Twice: the second execution runs entirely against warm
            // value indexes (zero builds), and must not drift.
            for round in 0..2 {
                let got = canonicalize(store, &execute(&optimized, store).unwrap());
                assert_eq!(
                    got, expected,
                    "Q{} diverged on {system} (round {round})",
                    q.number
                );
            }
        }
    }
}

/// Two service workers racing on a cold store share one index build —
/// the build happens exactly once (per structure), never per worker.
#[test]
fn concurrent_workers_share_one_index_build() {
    let doc = generate_document(0.002);
    let store: Arc<dyn XmlStore> = build_store(SystemId::G, &doc.xml).unwrap().into();
    assert_eq!(store.indexes().builds(), 0);
    let service = QueryService::start(Arc::clone(&store), 2);
    // Q1 on G plans a scan (no ID probe), Q6 counts through the element
    // index, Q8 builds a lookup-join value index: all shared structures
    // get exercised by both workers at once.
    let report = service.run_mix(&[1, 6, 8, 14], 16);
    drop(service);
    let element_builds = 1; // one element index
    let stats = store.indexes().stats();
    assert!(
        stats.builds >= element_builds,
        "something must have been built"
    );
    // Exactly-once: re-running the same mix adds zero builds, and a
    // duplicate build for any structure would show up as a higher count
    // than a single-threaded run of the same mix produces.
    let single: Arc<dyn XmlStore> = build_store(SystemId::G, &doc.xml).unwrap().into();
    let sequential = QueryService::start(Arc::clone(&single), 1);
    sequential.run_mix(&[1, 6, 8, 14], 16);
    drop(sequential);
    assert_eq!(
        stats.builds,
        single.indexes().builds(),
        "2-worker build count must equal the single-threaded count"
    );
    assert_eq!(report.index_builds, stats.builds, "all builds were in-run");
}

/// Acceptance check: repeated execution of Q8–Q12 through the
/// service performs **zero** index rebuilds after warmup, and the
/// planned output stays byte-identical to naive on all seven backends.
#[test]
fn q8_to_q12_rebuild_nothing_after_warmup() {
    let doc = generate_document(0.002);
    let mix = [8, 9, 10, 11, 12];
    for system in SystemId::EXTENDED {
        let store: Arc<dyn XmlStore> = build_store(system, &doc.xml).unwrap().into();
        let service = QueryService::start(Arc::clone(&store), 2);
        service.build_indexes();
        let warmup = service.run_mix(&mix, mix.len());
        let steady = service.run_mix(&mix, mix.len() * 4);
        assert_eq!(
            steady.index_builds, 0,
            "{system}: warm Q8–Q12 service must not rebuild (warmup built {})",
            warmup.index_builds
        );
        drop(service);
        for &q in &mix {
            let naive = compile_with_mode(query(q).text, store.as_ref(), PlanMode::Naive).unwrap();
            let optimized = compile(query(q).text, store.as_ref()).unwrap();
            assert_eq!(
                canonicalize(
                    store.as_ref(),
                    &execute(&optimized, store.as_ref()).unwrap()
                ),
                canonicalize(store.as_ref(), &execute(&naive, store.as_ref()).unwrap()),
                "{system} Q{q} warm output diverged from the specification"
            );
        }
    }
}

/// Satellite: the cost gate. Sparse postings plan an IndexScan; dense
/// postings (most of the store matches) fall back to the streamed axis
/// scan, whose sequential locality wins.
#[test]
fn planner_gates_index_scans_on_posting_density() {
    // Sparse: two <needle> among hundreds of <hay>.
    let sparse_xml = format!(
        "<site>{}<needle/><needle/></site>",
        "<hay><straw/></hay>".repeat(100)
    );
    let sparse = NaiveStore::load(&sparse_xml).unwrap();
    let plan = compile("/site//needle", &sparse).unwrap().explain();
    assert!(
        plan.contains("->idx"),
        "sparse postings must plan an IndexScan:\n{plan}"
    );

    // Dense: <hay> is most of the document — streamed scan wins.
    let dense = NaiveStore::load(&format!("<site>{}</site>", "<hay/>".repeat(100))).unwrap();
    let plan = compile("/site//hay", &dense).unwrap().explain();
    assert!(
        !plan.contains("->idx"),
        "dense postings must fall back to the streamed scan:\n{plan}"
    );

    // The gate is per step: both can appear in one query.
    let plan = compile("count(/site//needle) + count(/site//hay)", &sparse)
        .unwrap()
        .explain();
    assert!(plan.contains("count(//needle)"));

    // Backends whose native descendant access is already extent-based
    // never plan IndexScans (their architecture is the index).
    let doc = generate_document(0.002);
    for system in [SystemId::D, SystemId::E] {
        let store = build_store(system, &doc.xml).unwrap();
        let plan = compile(query(14).text, store.as_ref()).unwrap().explain();
        assert!(
            !plan.contains("->idx"),
            "{system} has native extents; no IndexScan expected:\n{plan}"
        );
    }
}

/// Satellite: `size_bytes` includes index memory, and the index bytes are
/// separately reportable for the Table 1 column.
#[test]
fn size_accounting_includes_index_memory() {
    let doc = generate_document(0.002);
    for system in SystemId::ALL {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        let before = store.size_bytes();
        assert_eq!(store.index_size_bytes(), 0, "{system}: nothing built yet");
        store.indexes().build_all(store);
        let index_bytes = store.index_size_bytes();
        assert!(index_bytes > 0, "{system}: built indexes have a size");
        assert_eq!(
            store.size_bytes(),
            before + index_bytes,
            "{system}: size_bytes must include index memory"
        );
    }
}
