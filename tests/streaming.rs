//! Streaming oracle: the pull-based result API must be *observationally
//! identical* to the materializing one, and genuinely lazy.
//!
//! Two families of assertions:
//!
//! * **Byte identity** — for all twenty queries on every backend A–H
//!   and on sharded unions (A in memory, H cold per-shard page files),
//!   draining a [`ResultStream`] yields exactly the sequence `execute`
//!   returns, and `write_to` produces exactly the bytes
//!   `serialize_sequence` produces from the materialized result.
//! * **Early termination** — the stream's pull counter proves that
//!   `exists()` / `take(n)` stop the operator cursors early: they pull
//!   strictly fewer items than a full drain on real XMark queries, and an
//!   existential predicate (`[bidder]`-shaped) stops at its first witness
//!   instead of draining the axis.

use std::sync::Arc;

use xmark::prelude::*;
use xmark::query::{Compiled, Sequence, WriteError};
use xmark::store::NaiveStore;

fn compiled(store: &dyn XmlStore, text: &str) -> Compiled {
    compile(text, store).expect("query compiles")
}

/// `systems` loaded from the factor-0.002 document, then the same
/// document as a 2-shard union of A and as a union of cold-opened
/// per-shard H page files: sharded requests are served by `write_to`
/// over the union, so the unions are inputs like any backend.
fn stores_and_unions(systems: &[SystemId]) -> Vec<(String, Arc<dyn XmlStore>)> {
    let session = Benchmark::at_factor(0.002).generate();
    let mut stores: Vec<(String, Arc<dyn XmlStore>)> = systems
        .iter()
        .map(|&system| (system.to_string(), Arc::from(session.load(system).store)))
        .collect();
    stores.push((
        "A x2 shards".to_string(),
        session.load_sharded_shared(SystemId::A, 2),
    ));
    stores.push((
        "H x2 cold shards".to_string(),
        Arc::from(session.load_sharded_paged(2, Some(32)).store),
    ));
    stores
}

#[test]
fn stream_matches_execute_on_all_twenty_queries_and_backends() {
    for (system, store) in stores_and_unions(&SystemId::EXTENDED) {
        let store = store.as_ref();
        for q in &ALL_QUERIES {
            let c = compiled(store, q.text);
            let materialized = execute(&c, store).expect("query runs");
            let expected = serialize_sequence(store, &materialized);

            // Draining the stream yields the same item sequence …
            let streamed = stream(&c, store).collect_seq().expect("stream runs");
            assert_eq!(
                serialize_sequence(store, &streamed),
                expected,
                "Q{} streamed items diverge on {system}",
                q.number
            );

            // … and sink serialization produces the same bytes without
            // ever materializing the sequence.
            let mut sunk = String::new();
            let stats = stream(&c, store)
                .write_to(&mut sunk)
                .expect("write_to runs");
            assert_eq!(
                sunk, expected,
                "Q{} write_to bytes diverge on {system}",
                q.number
            );
            assert_eq!(stats.items, materialized.len());
            assert_eq!(stats.bytes, expected.len() as u64);

            // The fast paths and the iterator agree with the materialized
            // result.
            let n = materialized.len();
            let count = stream(&c, store).count().unwrap();
            assert_eq!(count, n, "Q{} count diverges on {system}", q.number);
            let exists = stream(&c, store).exists().unwrap();
            assert_eq!(exists, n > 0, "Q{} exists diverges on {system}", q.number);
            assert_eq!(
                serialize_sequence(store, &stream(&c, store).take(3).unwrap()),
                serialize_sequence(store, &materialized[..3.min(n)]),
                "Q{} take(3) diverges on {system}",
                q.number
            );
            let first = stream(&c, store).next().transpose().expect("query runs");
            assert_eq!(
                serialize_sequence(store, first.as_slice()),
                serialize_sequence(store, &materialized[..1.min(n)]),
                "Q{} first iterated item diverges on {system}",
                q.number
            );
        }
    }
}

#[test]
fn write_to_reaches_io_sinks() {
    // The fmt::Write-generic path serves io::Write targets through IoSink
    // — same bytes, counted, no intermediate String.
    let doc = generate_document(0.001);
    let loaded = load_system(SystemId::E, &doc.xml);
    let store = loaded.store.as_ref();
    let c = compiled(store, query(13).text);
    let expected = serialize_sequence(store, &execute(&c, store).unwrap());

    let mut sink = IoSink::new(Vec::<u8>::new());
    let stats = stream(&c, store)
        .write_to(&mut sink)
        .expect("streams to io::Write");
    assert!(sink.take_error().is_none());
    assert_eq!(stats.bytes, sink.bytes());
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expected);
}

/// Drain a stream completely, returning (items, pulls).
fn drain_counting(mut s: ResultStream<'_>) -> (usize, u64) {
    let mut items = 0;
    while let Some(r) = s.next_item() {
        r.expect("query runs");
        items += 1;
    }
    (items, s.pulls())
}

/// Pull the first `n` items only, returning the pull count.
fn pulls_after_taking(mut s: ResultStream<'_>, n: usize) -> u64 {
    for _ in 0..n {
        s.next_item()
            .expect("result is non-empty")
            .expect("query runs");
    }
    s.pulls()
}

#[test]
fn take_and_exists_pull_strictly_fewer_items_than_full_evaluation() {
    let doc = generate_document(0.002);
    let loaded = load_system(SystemId::D, &doc.xml);
    let store = loaded.store.as_ref();

    // Q13 (serialization-heavy projection over australia's items), Q14
    // (descendant scan with a contains-filter) and Q15 (a deep child
    // chain ending in a value-tail `keyword/text()`) all have streaming
    // pipelines and multi-item results. Q15 pins that the child-value
    // tail stays pipelining: taking one item must not drain the chain.
    for number in [13, 14, 15] {
        let c = compiled(store, query(number).text);
        let (items, full_pulls) = drain_counting(stream(&c, store));
        assert!(items > 1, "Q{number} must have a multi-item result");

        let first_pulls = pulls_after_taking(stream(&c, store), 1);
        assert!(
            first_pulls < full_pulls,
            "Q{number}: pulling one item cost {first_pulls} pulls, \
             no fewer than the full drain's {full_pulls}"
        );

        // The public fast paths agree with the materialized prefix.
        let all = execute(&c, store).unwrap();
        assert_eq!(
            serialize_sequence(store, &stream(&c, store).take(2).unwrap()),
            serialize_sequence(store, &all[..2.min(all.len())]),
            "Q{number}: take(2) diverges from the materialized prefix"
        );
        assert!(stream(&c, store).exists().unwrap());
        assert_eq!(stream(&c, store).count().unwrap(), all.len());
    }
}

#[test]
fn existential_predicate_stops_at_the_first_witness() {
    // Every <a> holds many <b> children; `[b]` only asks whether one
    // exists. The pull counter proves the predicate cursor stops at its
    // first witness instead of draining the child axis.
    const FANOUT: usize = 40;
    let body: String = (0..3)
        .map(|_| format!("<a>{}</a>", "<b/>".repeat(FANOUT)))
        .collect();
    let store = NaiveStore::load(&format!("<site>{body}</site>")).unwrap();
    let c = compiled(&store, r#"document("auction.xml")/site/a[b]"#);

    let (items, pulls) = drain_counting(stream(&c, &store));
    assert_eq!(items, 3, "all three <a> elements qualify");
    assert!(
        (pulls as usize) < 3 * FANOUT,
        "predicate evaluation pulled {pulls} items — it drained the \
         b-axis instead of stopping at the first witness"
    );
}

#[test]
fn a_multi_item_path_base_is_evaluated_once() {
    // The FLWOR base runs once when the path cursor opens, and its items
    // feed the blocking `name` step. The first execution publishes the
    // loop-invariant `/site/people/person` to the store, so the measured
    // drain replays it and pulls once per binding plus once per name.
    // Evaluating the base a second time would add a pass of bindings,
    // three pulls per person.
    let doc = generate_document(0.002);
    for system in [SystemId::A, SystemId::E, SystemId::H] {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        let c = compiled(store, "(for $p in /site/people/person return $p)/name");
        execute(&c, store).expect("query runs");
        let (items, pulls) = drain_counting(stream(&c, store));
        assert!(items > 1, "{system}: {items} names");
        assert!(
            pulls < 3 * items as u64,
            "{system}: {pulls} pulls for {items} names — the base ran more than once"
        );
    }
}

#[test]
fn exists_function_pulls_at_most_one_item() {
    // Same probe through the XQuery surface: exists(...) and the
    // where-clause EBV both go through the short-circuiting cursor.
    let doc = generate_document(0.002);
    let loaded = load_system(SystemId::G, &doc.xml);
    let store = loaded.store.as_ref();

    let c = compiled(store, r#"exists(document("auction.xml")/site//item)"#);
    let (_, pulls) = drain_counting(stream(&c, store));

    let scan = compiled(store, r#"document("auction.xml")/site//item"#);
    let (items, scan_pulls) = drain_counting(stream(&scan, store));
    assert!(items > 1);
    assert!(
        pulls < scan_pulls,
        "exists() pulled {pulls} items, no fewer than the {scan_pulls} \
         of a full //item scan"
    );
}

#[test]
fn partly_consumed_stream_drains_exactly_the_remaining_suffix() {
    // One pull protocol: `next_item()` × k followed by `collect_seq()` or
    // `write_to()` continues from where the prefix stopped — the drain
    // is exactly the remaining suffix of a fresh full drain, byte for
    // byte, and ends on the same `pulls()` total. Prefix lengths cover
    // the empty prefix, the middle (inside replayed memo sequences and
    // half-expanded axis cursors) and the last item.
    for (system, store) in stores_and_unions(&[SystemId::A, SystemId::E, SystemId::H]) {
        let store = store.as_ref();
        for q in &ALL_QUERIES {
            let c = compiled(store, q.text);
            // The first execution publishes the loop-invariant paths to
            // the store; every drain below then sees the same cache state.
            let all = execute(&c, store).expect("query runs");
            let expected = serialize_sequence(store, &all);
            let (_, full_pulls) = drain_counting(stream(&c, store));

            let mut prefixes = vec![0, 1, 2, all.len() / 2, all.len().saturating_sub(1)];
            prefixes.retain(|&k| k <= all.len());
            prefixes.sort_unstable();
            prefixes.dedup();
            for k in prefixes {
                let prefix = |s: &mut ResultStream<'_>| -> Sequence {
                    (0..k)
                        .map(|_| {
                            s.next_item()
                                .expect("prefix item exists")
                                .expect("query runs")
                        })
                        .collect()
                };

                let mut s = stream(&c, store);
                let mut items = prefix(&mut s);
                items.extend(s.collect_seq().expect("stream resumes"));
                assert_eq!(
                    serialize_sequence(store, &items),
                    expected,
                    "Q{}: {k} items then collect_seq diverges on {system}",
                    q.number
                );
                assert_eq!(
                    s.pulls(),
                    full_pulls,
                    "Q{}: {k} items then collect_seq pull total diverges on {system}",
                    q.number
                );

                let mut s = stream(&c, store);
                prefix(&mut s);
                let mut sunk = String::new();
                let stats = s.write_to(&mut sunk).expect("stream resumes");
                assert_eq!(
                    sunk,
                    serialize_sequence(store, &all[k..]),
                    "Q{}: {k} items then write_to diverges on {system}",
                    q.number
                );
                assert_eq!(stats.items, all.len() - k);
                assert_eq!(
                    s.pulls(),
                    full_pulls,
                    "Q{}: {k} items then write_to pull total diverges on {system}",
                    q.number
                );
            }
        }
    }
}

/// A sink that rejects every write.
struct ClosedSink;

impl std::fmt::Write for ClosedSink {
    fn write_str(&mut self, _: &str) -> std::fmt::Result {
        Err(std::fmt::Error)
    }
}

#[test]
fn write_to_reaches_the_sink_after_the_first_pull() {
    // First-byte contract: `write_to` serializes each item as it is
    // pulled, so a sink that rejects its first write stops the scan
    // after a constant number of pulls — whatever the result size.
    let docs = [0.002, 0.01].map(generate_document);
    for system in [SystemId::A, SystemId::E] {
        let mut pulls_at = Vec::new();
        for doc in &docs {
            let store = build_store(system, &doc.xml).unwrap();
            let store = store.as_ref();
            let c = compiled(store, r#"document("auction.xml")/site//item"#);
            // A fresh store: nothing has drained (and so memoized) the
            // path yet, the stream walks the descendant axis lazily.
            let mut s = stream(&c, store);
            let err = s.write_to(&mut ClosedSink).expect_err("the sink rejects");
            assert!(matches!(err, WriteError::Sink(_)), "{system}: {err}");
            let pulls = s.pulls();
            pulls_at.push((stream(&c, store).count().unwrap(), pulls));
        }
        let [(small, small_pulls), (large, large_pulls)] = pulls_at[..] else {
            unreachable!("two factors");
        };
        assert!(
            small > 2 && large > 2 * small,
            "{system}: {small} vs {large} items"
        );
        assert!(
            (1..=2).contains(&small_pulls),
            "{system}: {small_pulls} pulls before the first write"
        );
        assert_eq!(
            small_pulls, large_pulls,
            "{system}: pulls before the first write grow with the result"
        );
    }
}

#[test]
fn take_one_over_a_lookup_probes_no_item_past_the_first_match() {
    // Ten probe items of which only the `HIT`-th has a join partner:
    // the join emits one tuple. `take(1)` must stop probing right there,
    // so it pulls exactly the `PROBES - HIT` trailing probe items' work
    // fewer than the full drain — the only work the full drain adds.
    // Each probe item costs its `$t` binding plus the two steps of its
    // Lookup's outer key `$t/itemref/@item`.
    const PROBES: usize = 10;
    const HIT: usize = 4;
    const PULLS_PER_PROBE: u64 = 3;
    let auctions: String = (1..=PROBES)
        .map(|i| {
            let item = if i == HIT { "item1" } else { "nowhere" };
            format!(r#"<closed_auction><itemref item="{item}"/></closed_auction>"#)
        })
        .collect();
    let items: String = (0..3)
        .map(|i| format!(r#"<item id="item{i}"><name>thing {i}</name></item>"#))
        .collect();
    let xml = format!(
        "<site><regions><europe>{items}</europe></regions>\
         <closed_auctions>{auctions}</closed_auctions></site>"
    );
    for system in [SystemId::A, SystemId::E, SystemId::G] {
        let store = build_store(system, &xml).unwrap();
        let store = store.as_ref();
        let c = compiled(
            store,
            r#"for $t in document("auction.xml")/site/closed_auctions/closed_auction,
                   $e in document("auction.xml")/site/regions/europe/item
               where $t/itemref/@item = $e/@id
               return $e/name/text()"#,
        );
        assert!(c.explain().contains("Lookup"), "{}", c.explain());
        let all = execute(&c, store).expect("query runs");
        assert_eq!(serialize_sequence(store, &all), "thing 1");

        let (_, full_pulls) = drain_counting(stream(&c, store));
        let first_pulls = pulls_after_taking(stream(&c, store), 1);
        assert_eq!(
            full_pulls - first_pulls,
            PULLS_PER_PROBE * (PROBES - HIT) as u64,
            "{system}: take(1) probed past the first matching probe item"
        );
    }
}

#[test]
fn session_stream_facade_short_circuits() {
    // The façade surface: a store loaded through a Session and a plan from
    // `compile` reach the same fast paths through `stream`.
    let session = Benchmark::at_scale("mini").generate();
    let loaded = session.load(SystemId::D);
    let store = loaded.store.as_ref();
    let people = compiled(store, "/site/people/person");
    assert!(stream(&people, store).exists().unwrap());
    let two = stream(&people, store).take(2).unwrap();
    assert_eq!(two.len(), 2);
    let all = execute(&people, store).unwrap();
    assert_eq!(stream(&people, store).count().unwrap(), all.len());

    let mut sunk = String::new();
    let stats = stream(&people, store).write_to(&mut sunk).unwrap();
    assert_eq!(stats.items, all.len());
    assert_eq!(sunk, serialize_sequence(store, &all));
}

/// How many loop-invariant path memos `store` has published.
fn path_slots(store: &dyn XmlStore) -> usize {
    let built = store.indexes().built_values();
    built
        .iter()
        .filter(|(sig, _, _)| sig.starts_with("path|"))
        .count()
}

#[test]
fn a_memoized_path_is_published_only_by_a_complete_optimized_drain() {
    // A root-based, predicate-free path is memoized: its open streams
    // through a tee that publishes the path's items to the store only
    // when it is drained to the end. Abandoning the stream publishes
    // nothing, a naive plan never publishes, and a path opened again in
    // the same execution after an abandoned open streams lazily again.
    const PEOPLE: &str = r#"document("auction.xml")/site/people/person"#;
    let doc = generate_document(0.002);
    for system in [SystemId::E, SystemId::H] {
        let fresh = || build_store(system, &doc.xml).unwrap();

        let store = fresh();
        let store = store.as_ref();
        let people = compiled(store, PEOPLE);
        assert!(people.explain().contains("[memo]"), "{}", people.explain());
        assert_eq!(stream(&people, store).take(1).unwrap().len(), 1);
        assert!(stream(&people, store).exists().unwrap());
        assert_eq!(path_slots(store), 0, "{system}: take/exists");
        let (items, _) = drain_counting(stream(&people, store));
        assert!(items > 1);
        assert_eq!(path_slots(store), 1, "{system}: a complete drain");

        let store = fresh();
        let store = store.as_ref();
        let naive = compile_with_mode(PEOPLE, store, PlanMode::Naive).unwrap();
        drain_counting(stream(&naive, store));
        assert_eq!(path_slots(store), 0, "{system}: naive");

        let store = fresh();
        let store = store.as_ref();
        let first_item = pulls_after_taking(stream(&people, store), 1);
        assert!(
            first_item <= 2,
            "{system}: {first_item} pulls to the first person"
        );
        let twice = compiled(store, &format!("(exists({PEOPLE}), {PEOPLE})"));
        let pulls = pulls_after_taking(stream(&twice, store), 2);
        assert!(
            pulls <= 2 * first_item,
            "{system}: {pulls} pulls to the first person of a re-open — it materialized"
        );
        assert_eq!(path_slots(store), 0, "{system}: re-open");
    }
}
