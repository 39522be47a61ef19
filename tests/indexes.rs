//! The persistent index subsystem, end to end: one `@id` code path across
//! all seven backends, warm-index execution equivalent to the naive
//! specification, exactly-once builds under concurrency, and where the
//! planner counts from the element index.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use xmark::prelude::*;
use xmark::query::compile_with_mode;
use xmark::query::{canonicalize, execute};
use xmark::store::{NaiveStore, Node};

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
/// plans (persistent Lookup indexes, indexed aggregates) must stay byte-identical to the pure
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
    assert_warm_mix_rebuilds_nothing(&[8, 9, 10, 11, 12]);
}

/// The range selections: Q5's price filter and Q20's income bands probe
/// their number sides without a rebuild once warm.
#[test]
fn q5_and_q20_rebuild_nothing_after_warmup() {
    assert_warm_mix_rebuilds_nothing(&[5, 20]);
}

fn assert_warm_mix_rebuilds_nothing(mix: &[usize]) {
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store: Arc<dyn XmlStore> = build_store(system, &doc.xml).unwrap().into();
        let service = QueryService::start(Arc::clone(&store), 2);
        service.build_indexes();
        let warmup = service.run_mix(mix, mix.len());
        let steady = service.run_mix(mix, mix.len() * 4);
        assert_eq!(
            steady.index_builds, 0,
            "{system}: warm {mix:?} service must not rebuild (warmup built {})",
            warmup.index_builds
        );
        drop(service);
        for &q in mix {
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

/// Q8 and Q9 chase the same reference (`$t/buyer/@person = $p/@id`), so
/// their Lookups share one value index over `closed_auction`: after Q8,
/// Q9 adds only its own index over the European items — no second slot
/// over `closed_auction` and no per-source key lists.
#[test]
fn q9_reuses_q8_lookup_index() {
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        execute(&compile(query(8).text, store).unwrap(), store).unwrap();
        let after_q8 = value_slots(store);
        assert!(
            after_q8.contains("txt|/site/closed_auctions/closed_auction|/buyer@person"),
            "{system}: Q8 builds the buyer index: {after_q8:?}"
        );
        execute(&compile(query(9).text, store).unwrap(), store).unwrap();
        let added: Vec<String> = value_slots(store).difference(&after_q8).cloned().collect();
        assert!(
            added
                .iter()
                .all(|sig| !sig.contains("closed_auction") && !sig.starts_with("keys|")),
            "{system}: Q9 rebuilt what Q8 left: {added:?}"
        );
        assert!(
            added.contains(&"txt|/site/regions/europe/item|@id".to_string()),
            "{system}: Q9 indexes the European items: {added:?}"
        );
    }
}

/// Q11 builds one sorted key index over the initials, keyed by
/// `5000 * $i/text()`, and probes it with incomes: numbers, so only its
/// number side. Q12 probes the same side (same source, same key) and
/// adds exactly one slot, the number side of its income selection over
/// the people Q11 already memoized.
#[test]
fn q12_reuses_q11_range_index() {
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        execute(&compile(query(11).text, store).unwrap(), store).unwrap();
        let after_q11 = value_slots(store);
        assert!(
            after_q11.contains("num|/site/open_auctions/open_auction/initial|(5000 * /#t)"),
            "{system}: Q11 builds the initials' key index: {after_q11:?}"
        );
        execute(&compile(query(12).text, store).unwrap(), store).unwrap();
        let added: Vec<String> = value_slots(store).difference(&after_q11).cloned().collect();
        assert_eq!(
            added,
            ["num|/site/people/person|/profile@income"],
            "{system}: Q12 adds only its income selection's number side"
        );
    }
}

/// Q20's three income bands probe one key index with numbers: they
/// share one number side, and no text side is built.
#[test]
fn q20_bands_share_one_number_side() {
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        execute(&compile(query(20).text, store).unwrap(), store).unwrap();
        let sides: Vec<String> = value_slots(store)
            .into_iter()
            .filter(|sig| sig.starts_with("num|") || sig.starts_with("txt|"))
            .collect();
        assert_eq!(
            sides,
            ["num|/site/people/person/profile|@income"],
            "{system}: Q20's bands build one number side"
        );
    }
}

/// A later probe of the income key by a word compares as text: it
/// builds the key's text side, exactly once however many workers race
/// for it, and leaves the number side Q20 built alone.
#[test]
fn racing_text_probes_build_the_text_side_once() {
    let doc = generate_document(0.002);
    let word = r#"count(/site/people/person/profile[@income >= "abc"])"#;
    for system in [SystemId::A, SystemId::E, SystemId::H] {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        execute(&compile(query(20).text, store).unwrap(), store).unwrap();
        let compiled = compile(word, store).unwrap();
        assert!(
            compiled.explain().contains("Lookup $#n/@income >= \"abc\""),
            "{system}:\n{}",
            compiled.explain()
        );
        let before = store.indexes().builds();
        let expected = execute(
            &compile_with_mode(word, store, PlanMode::Naive).unwrap(),
            store,
        );
        let workers = 4;
        let barrier = std::sync::Barrier::new(workers);
        let answers: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        execute(&compiled, store)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for answer in &answers {
            assert_eq!(answer, &expected, "{system}");
        }
        assert_eq!(store.indexes().builds() - before, 1, "{system}: one build");
        let sides: Vec<String> = value_slots(store)
            .into_iter()
            .filter(|sig| sig.contains("|@income"))
            .collect();
        assert_eq!(
            sides,
            [
                "num|/site/people/person/profile|@income",
                "txt|/site/people/person/profile|@income"
            ],
            "{system}"
        );
    }
}

/// The signatures of the value slots `store` has built.
fn value_slots(store: &dyn XmlStore) -> BTreeSet<String> {
    let built = store.indexes().built_values();
    built.into_iter().map(|(sig, _, _)| sig).collect()
}

/// Satellite: `count(…//tag)` counts from the element index however
/// many of the store's nodes its tag holds, and the plan verifies clean;
/// backends with native extents never plan an indexed count.
#[test]
fn planner_plans_indexed_counts_for_sparse_and_dense_tags() {
    // Sparse: two <needle> among hundreds of <hay>.
    let sparse_xml = format!(
        "<site>{}<needle/><needle/></site>",
        "<hay><straw/></hay>".repeat(100)
    );
    let sparse = NaiveStore::load(&sparse_xml).unwrap();
    // Dense: <hay> is nearly every node of the document.
    let dense = NaiveStore::load(&format!("<site>{}</site>", "<hay/>".repeat(100))).unwrap();
    for (store, text, exact) in [
        (&sparse, "count(/site//needle)", 2),
        (&dense, "count(/site//hay)", 100),
    ] {
        let compiled = compile(text, store).unwrap();
        let plan = compiled.explain();
        assert!(
            plan.contains(&format!("~{exact} [idx]")),
            "{text} must count from the element index:\n{plan}"
        );
        let report = xmark::query::verify_plan(&compiled.plan, store);
        assert!(report.is_clean(), "{text}:\n{report}");
        assert_eq!(report.checks(xmark::query::Invariant::OrderedIndex), 1);
    }

    // Backends whose native descendant access is already extent-based
    // never count from the element index (their architecture is the
    // index).
    let doc = generate_document(0.002);
    for system in [SystemId::D, SystemId::E] {
        let store = build_store(system, &doc.xml).unwrap();
        for number in [6, 7] {
            let plan = compile(query(number).text, store.as_ref())
                .unwrap()
                .explain();
            assert!(
                !plan.contains("[idx]"),
                "{system} has native extents; no indexed count expected:\n{plan}"
            );
        }
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

/// The reference the element and `@id` index builds are held to: one
/// depth-first walk over `children_iter`, recording postings, subtree
/// ends and `id` holders in document order, and whether ids strictly
/// increase along it.
struct Walked {
    postings: HashMap<String, Vec<u32>>,
    subtree_end: Vec<u32>,
    ordered: bool,
    ids: HashMap<String, u32>,
}

fn walk(store: &dyn XmlStore) -> Walked {
    let root = store.root();
    let mut walked = Walked {
        postings: HashMap::new(),
        subtree_end: vec![0; store.node_count()],
        ordered: true,
        ids: HashMap::new(),
    };
    let visit = |walked: &mut Walked, n: Node| {
        if let Some(tag) = store.tag_of(n) {
            match walked.postings.get_mut(tag) {
                Some(list) => list.push(n.0),
                None => {
                    walked.postings.insert(tag.to_string(), vec![n.0]);
                }
            }
        }
        if let Some(id) = store.attribute(n, "id") {
            walked.ids.entry(id.into_owned()).or_insert(n.0);
        }
    };
    visit(&mut walked, root);
    let mut last = root.0;
    let mut stack = vec![(root, store.children_iter(root))];
    while let Some((_, children)) = stack.last_mut() {
        match children.next() {
            Some(child) => {
                walked.ordered &= child.0 > last;
                last = last.max(child.0);
                visit(&mut walked, child);
                stack.push((child, store.children_iter(child)));
            }
            None => {
                let (done, _) = stack.pop().expect("non-empty while looping");
                walked.subtree_end[done.index()] = last;
            }
        }
    }
    walked
}

/// The index builds scan ids in ascending order instead of walking the
/// tree; on every backend and on a 2-shard union they must match the
/// walk: each tag's postings, each node's subtree end, `ordered()`, both
/// indexes' `size_bytes()`, and `lookup_id` of every `id` naming its
/// holder.
#[test]
fn index_builds_match_a_tree_walk_on_every_backend() {
    const ENTRY: usize = 48; // the index layer's per-map-entry estimate
    let session = Benchmark::at_factor(0.002).generate();
    let mut stores: Vec<(String, Box<dyn XmlStore>)> = SystemId::EXTENDED
        .iter()
        .map(|&system| (system.to_string(), session.load(system).store))
        .collect();
    stores.push((
        "E x2 shards".into(),
        session.load_sharded(SystemId::E, 2).store,
    ));
    for (name, store) in &stores {
        let store = store.as_ref();
        let walked = walk(store);
        let index = store.indexes().element(store);
        assert!(walked.ordered, "{name}: ids are pre-order");
        assert_eq!(index.ordered(), walked.ordered, "{name}");
        for (tag, list) in &walked.postings {
            assert_eq!(index.postings(tag), &list[..], "{name}: postings of {tag}");
        }
        assert_eq!(
            index.shared_subtree_end().as_slice(),
            &walked.subtree_end[..],
            "{name}: subtree ends"
        );
        let postings_bytes: usize = walked
            .postings
            .iter()
            .map(|(tag, list)| tag.capacity() + list.capacity() * 4 + ENTRY)
            .sum();
        assert_eq!(
            index.size_bytes(),
            postings_bytes + walked.subtree_end.capacity() * 4,
            "{name}: element index bytes"
        );

        let ids = store.indexes().ids(store);
        assert_eq!(ids.len(), walked.ids.len(), "{name}");
        let id_bytes: usize = walked.ids.keys().map(|k| k.capacity() + 4 + ENTRY).sum();
        assert_eq!(ids.size_bytes(), id_bytes, "{name}: @id index bytes");
        for (value, &holder) in &walked.ids {
            assert_eq!(
                store.lookup_id(value),
                Some(Node(holder)),
                "{name}: {value}"
            );
        }
    }
}

/// H overrides both index-build scans with sequential page passes; at a
/// pool that holds the file, a 64-frame pool and a 4-frame pool they
/// must yield exactly what the default per-node loops yield, for every
/// attribute name the document uses and for one it lacks.
#[test]
fn paged_scan_hooks_equal_the_per_node_loops() {
    use xmark::store::paged::PagedStore;
    let doc = generate_document(0.002);
    for pool in [1 << 16, 64, 4] {
        let store = PagedStore::load_temp(&doc.xml, pool).unwrap();
        let ids = 0..store.node_count() as u32;
        let nodes: Vec<_> = ids
            .clone()
            .map(|id| (Node(id), store.parent(Node(id)), store.tag_of(Node(id))))
            .collect();
        let mut scanned = Vec::new();
        store.for_each_parent_and_tag(&mut |n, parent, tag| scanned.push((n, parent, tag)));
        assert_eq!(scanned, nodes, "pool {pool}: parents and tags");
        for name in [
            "id", "person", "item", "category", "featured", "income", "ghost",
        ] {
            let values: Vec<_> = ids
                .clone()
                .filter_map(|id| Some((Node(id), store.attribute(Node(id), name)?.into_owned())))
                .collect();
            let mut scanned = Vec::new();
            store.for_each_attribute_value(name, &mut |n, value| {
                scanned.push((n, value.to_string()))
            });
            assert_eq!(scanned, values, "pool {pool}: @{name}");
            if name == "id" {
                assert!(values.len() > 100, "pool {pool}: the document has ids");
            }
        }
        if pool == 4 {
            assert!(store.pool_stats().evictions > 0, "a 4-frame pool evicts");
        }
    }
}

/// Two elements share an `id`, and one element carries `id` twice: on
/// every backend the `@id` index names the first holder in document
/// order and indexes only an element's first `id`, the one `attribute`
/// answers with.
#[test]
fn a_duplicated_id_names_its_first_holder_on_every_backend() {
    let xml = r#"<site><people><person id="p0"><name>first</name></person><person id="p1" id="p2"/><person id="p0"><name>second</name></person></people></site>"#;
    for system in SystemId::EXTENDED {
        let store = build_store(system, xml).unwrap();
        let people: Vec<Node> = store
            .descendants_named_iter(store.root(), "person")
            .collect();
        assert_eq!(people.len(), 3, "{system}");
        assert_eq!(store.lookup_id("p0"), Some(people[0]), "{system}");
        assert_eq!(store.lookup_id("p1"), Some(people[1]), "{system}");
        assert_eq!(store.lookup_id("p2"), None, "{system}");
        assert_eq!(store.indexes().ids(store.as_ref()).len(), 2, "{system}");
    }
}
