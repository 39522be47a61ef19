//! The transaction subsystem, end to end: MVCC snapshot isolation
//! semantics, cross-backend result identity under structural updates,
//! the index-maintenance oracle (incremental == rebuilt-from-scratch),
//! WAL crash recovery on backend H, and non-blocking readers under a
//! concurrent writer.

mod common;

use std::io::Write as _;
use std::sync::Arc;

use common::{apply_update_script, descend, first_text_child, NEW_BIDDER};
use proptest::prelude::*;
use xmark::prelude::*;
use xmark::store::paged::{wal_path_for, LogRecord};
use xmark::store::{Node, PagedStore};

#[test]
fn pinned_snapshots_never_move_and_commits_publish_epochs() {
    let doc = generate_document(0.001);
    let versioned = VersionedStore::new(Arc::from(load_system(SystemId::A, &doc.xml).store));
    let s0 = versioned.snapshot();
    assert_eq!(s0.epoch(), 0);
    let root = s0.root();
    let bidders_before = s0.count_descendants_named(root, "bidder");
    let nodes_before = s0.node_count();

    // Insert a bidder into the first open auction.
    let auction = descend(s0.as_ref(), &["open_auctions", "open_auction"]);
    let mut txn = versioned.begin();
    txn.insert_subtree(auction, NEW_BIDDER);
    let info = txn.commit().expect("insert commits");
    assert_eq!(info.epoch, 1);

    // The pinned snapshot still answers from epoch 0…
    assert_eq!(s0.count_descendants_named(root, "bidder"), bidders_before);
    assert_eq!(s0.node_count(), nodes_before);
    // …while the new snapshot sees the bidder (4 elements + 4 texts).
    let s1 = versioned.snapshot();
    assert_eq!(s1.epoch(), 1);
    assert_eq!(
        s1.count_descendants_named(root, "bidder"),
        bidders_before + 1
    );
    assert_eq!(s1.node_count(), nodes_before + 8);

    // The inserted bidder is the auction's *last* bidder in document
    // order, and document-order comparison ranks it after base nodes.
    let last = s1
        .children_named_iter(auction, "bidder")
        .last()
        .expect("inserted bidder is listed");
    assert!(s1.doc_order_key(last) > s1.doc_order_key(auction));

    // Replace the new bidder's increase text and verify through the
    // overlay reads.
    let inc = s1
        .children_named_iter(last, "increase")
        .next()
        .expect("bidder has an increase");
    let inc_text = first_text_child(s1.as_ref(), inc);
    let mut txn = versioned.begin();
    txn.replace_text(inc_text, "11.00");
    txn.replace_attr(
        s1.children_named_iter(last, "personref")
            .next()
            .expect("bidder has a personref"),
        "person",
        "person1",
    );
    txn.commit().expect("text+attr commit");
    let s2 = versioned.snapshot();
    assert_eq!(s2.text(inc_text).as_deref(), Some("11.00"));
    assert_eq!(
        s1.text(inc_text).as_deref(),
        Some("9.50"),
        "epoch 1 stays pinned"
    );
    let personref = s2
        .children_named_iter(last, "personref")
        .next()
        .expect("still there");
    assert_eq!(
        s2.attribute(personref, "person").as_deref(),
        Some("person1")
    );

    // Delete the bidder again: counts return to the baseline.
    let mut txn = versioned.begin();
    txn.delete_subtree(last);
    txn.commit().expect("delete commits");
    let s3 = versioned.snapshot();
    assert_eq!(s3.count_descendants_named(root, "bidder"), bidders_before);
    assert_eq!(s3.node_count(), nodes_before);
    assert_eq!(s3.epoch(), 3);
}

#[test]
fn first_committer_wins_and_losers_get_a_conflict() {
    let doc = generate_document(0.001);
    let versioned = VersionedStore::new(Arc::from(load_system(SystemId::D, &doc.xml).store));
    let s = versioned.snapshot();
    let auction = descend(s.as_ref(), &["open_auctions", "open_auction"]);

    let mut winner = versioned.begin();
    let mut loser = versioned.begin();
    winner.insert_subtree(auction, NEW_BIDDER);
    loser.insert_subtree(auction, NEW_BIDDER);
    winner.commit().expect("first committer wins");
    match loser.commit() {
        Err(TxnError::Conflict) => {}
        other => panic!("stale transaction must conflict, got {other:?}"),
    }

    // Validation errors surface as typed errors, not panics.
    let mut bad = versioned.begin();
    bad.insert_subtree(Node(u32::MAX - 1), NEW_BIDDER);
    assert!(matches!(bad.commit(), Err(TxnError::NodeMissing(_))));
    let s = versioned.snapshot();
    let mut bad = versioned.begin();
    bad.delete_subtree(s.root());
    assert!(matches!(bad.commit(), Err(TxnError::RootImmutable)));
}

/// The same update script produces byte-identical answers on three
/// in-memory backends and on backend H behind a tiny pool — structural
/// updates preserve the repo's cross-backend equivalence invariant. The
/// script dirties the root but leaves most of its children clean, so on
/// H serialization switches between the overlay walk and H's own
/// page-run reader inside one subtree.
#[test]
fn updated_stores_answer_queries_byte_identically_across_backends() {
    let doc = generate_document(0.002);
    let queries = [1, 2, 3, 4, 8, 13, 17, 20];
    let tiny_pool_h: Arc<dyn XmlStore> =
        Arc::new(PagedStore::load_temp(&doc.xml, 8).expect("document parses"));
    let bases = [SystemId::A, SystemId::D, SystemId::G]
        .map(|system| Arc::from(load_system(system, &doc.xml).store))
        .into_iter()
        .chain([tiny_pool_h]);
    let mut reference: Option<Vec<String>> = None;
    for base in bases {
        let system = base.system();
        let versioned = VersionedStore::new(base);
        apply_update_script(&versioned);
        let snap = versioned.snapshot();
        let outputs: Vec<String> = queries
            .iter()
            .map(|&q| canonical_output(snap.as_ref(), q))
            .collect();
        match &reference {
            None => reference = Some(outputs),
            Some(expected) => {
                for (i, &q) in queries.iter().enumerate() {
                    assert_eq!(
                        &outputs[i], &expected[i],
                        "Q{q} diverged on {system} after updates"
                    );
                }
            }
        }
    }
}

// ---- index-maintenance oracle ---------------------------------------------

/// Normalize a child-values map for comparison: a maintained map may
/// keep an entry whose vec emptied out, a rebuilt one may omit it —
/// both answer `get()` with the empty slice.
fn normalized(
    map: std::collections::HashMap<u32, Vec<u32>>,
) -> std::collections::BTreeMap<u32, Vec<u32>> {
    map.into_iter().filter(|(_, v)| !v.is_empty()).collect()
}

/// Assert the maintained indexes of `snap` answer identically to a
/// fresh rebuild over the same snapshot.
fn assert_indexes_match_rebuild(snap: &SnapshotStore, context: &str) {
    let rebuilt = IndexManager::new();
    let fresh = rebuilt.element(snap);
    let kept = snap.indexes().element(snap);
    assert_eq!(
        kept.elements(),
        fresh.elements(),
        "{context}: element count drifted"
    );
    let mut tags: Vec<&String> = fresh.shared_postings().keys().collect();
    tags.extend(kept.shared_postings().keys());
    tags.sort();
    tags.dedup();
    for tag in tags {
        assert_eq!(
            kept.postings(tag),
            fresh.postings(tag),
            "{context}: postings of <{tag}> drifted"
        );
    }
    // Subtree stabbing must never be *claimed* when a rebuild would not
    // claim it (over-conservatism is allowed, wrong slices are not).
    if kept.ordered() {
        assert!(
            fresh.ordered(),
            "{context}: maintained index claims ordered postings a rebuild rejects"
        );
    }

    let kept_ids = snap.indexes().attribute(snap, "id");
    let fresh_ids = rebuilt.attribute(snap, "id");
    let kept_map: std::collections::BTreeMap<String, u32> =
        kept_ids.clone_map().into_iter().collect();
    let fresh_map: std::collections::BTreeMap<String, u32> =
        fresh_ids.clone_map().into_iter().collect();
    assert_eq!(kept_map, fresh_map, "{context}: @id index drifted");

    for tag in ["increase", "current"] {
        let kept_cv = snap.indexes().child_values(snap, tag);
        let fresh_cv = rebuilt.child_values(snap, tag);
        assert_eq!(
            normalized(kept_cv.clone_map()),
            normalized(fresh_cv.clone_map()),
            "{context}: cvals|{tag} drifted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The oracle: after a randomized update sequence, the incrementally
    /// maintained index manager answers identically to one rebuilt from
    /// scratch over the final snapshot — on every backend.
    #[test]
    fn maintained_indexes_match_rebuilt_from_scratch(
        script in proptest::collection::vec((0u8..5, 0usize..64, 0u32..1000), 1..7),
    ) {
        let doc = generate_document(0.001);
        for system in SystemId::EXTENDED {
            let versioned =
                VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
            // Warm the structures maintenance must carry forward.
            {
                let s = versioned.snapshot();
                s.indexes().build_all(s.as_ref());
                s.indexes().child_values(s.as_ref(), "increase");
                s.indexes().child_values(s.as_ref(), "current");
            }
            let mut uniq = 0u32;
            for &(kind, selector, value) in &script {
                let s = versioned.snapshot();
                let mut txn = versioned.begin();
                let applied = apply_random_op(s.as_ref(), &mut txn, kind, selector, value, &mut uniq);
                if !applied {
                    continue;
                }
                txn.commit().expect("scripted op commits");
                let snap = versioned.snapshot();
                assert_indexes_match_rebuild(
                    &snap,
                    &format!("{system} after op {kind}/{selector}"),
                );
            }
        }
    }
}

/// Translate one `(kind, selector, value)` triple into a transaction
/// operation against whatever the current snapshot looks like. Returns
/// false when no suitable target exists (the op is skipped).
fn apply_random_op(
    s: &dyn XmlStore,
    txn: &mut Transaction,
    kind: u8,
    selector: usize,
    value: u32,
    uniq: &mut u32,
) -> bool {
    let root = s.root();
    let pick = |tag: &str, selector: usize| -> Option<Node> {
        let all: Vec<Node> = s.descendants_named_iter(root, tag).collect();
        if all.is_empty() {
            None
        } else {
            Some(all[selector % all.len()])
        }
    };
    match kind {
        0 => match pick("open_auction", selector) {
            Some(auction) => {
                txn.insert_subtree(auction, NEW_BIDDER);
                true
            }
            None => false,
        },
        1 => match pick("people", 0) {
            Some(people) => {
                *uniq += 1;
                txn.insert_subtree(
                    people,
                    &format!(
                        "<person id=\"txnrand{uniq}\"><name>R {value}</name>\
                         <emailaddress>mailto:r{uniq}@example.invalid</emailaddress></person>"
                    ),
                );
                true
            }
            None => false,
        },
        2 => match pick("bidder", selector).or_else(|| pick("closed_auction", selector)) {
            Some(victim) => {
                txn.delete_subtree(victim);
                true
            }
            None => false,
        },
        3 => match pick("increase", selector) {
            Some(increase) => match s.children_iter(increase).find(|&c| s.is_text_node(c)) {
                Some(text) => {
                    txn.replace_text(text, &format!("{value}.00"));
                    true
                }
                None => false,
            },
            None => false,
        },
        _ => match pick("personref", selector) {
            Some(personref) => {
                txn.replace_attr(personref, "person", &format!("person{}", value % 7));
                true
            }
            None => false,
        },
    }
}

// ---- crash recovery on backend H ------------------------------------------

#[test]
fn backend_h_replays_committed_and_discards_uncommitted_after_crash() {
    let session = Benchmark::at_factor(0.001).generate();
    let dir = std::env::temp_dir().join(format!("xmark-txn-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("crash.xmk");
    drop(session.persist_paged(&path, None).expect("persist H"));

    // The in-memory reference: System A with the same committed script.
    let reference = VersionedStore::new(Arc::from(load_system(SystemId::A, session.xml()).store));
    apply_update_script(&reference);
    let reference_snap = reference.snapshot();

    {
        // Run the same committed script against H…
        let (versioned, report) = open_paged_versioned(&path, None).expect("clean open");
        assert_eq!(report.replayed, 0);
        assert_eq!(report.truncated_bytes, 0);
        apply_update_script(&versioned);
        // …then simulate a crash mid-commit: an in-flight transaction
        // logged operations but never its commit record…
        let wal = versioned.base().txn_wal().expect("backend H has a WAL");
        wal.append(&LogRecord::TxnBegin { txn: 999 });
        wal.append(&LogRecord::TxnDelete {
            txn: 999,
            node: 1,
            undo_xml: String::new(),
        });
        wal.flush_all().expect("flush the in-flight records");
        // …and the process dies here (drop without further commits).
    }
    // Torn tail: a partial record hit the disk before the crash.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(wal_path_for(&path))
            .expect("open WAL for tearing");
        file.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0x04, 0x00])
            .expect("append torn bytes");
    }

    let (recovered, report) = open_paged_versioned(&path, None).expect("recovery");
    assert_eq!(report.replayed, 3, "the three committed txns replay");
    assert_eq!(report.discarded, 1, "the in-flight txn rolls back");
    assert!(report.truncated_bytes >= 6, "the torn tail is cut");
    let snap = recovered.snapshot();
    assert_eq!(snap.epoch(), 3);

    // Cold-reopened H serves every benchmark query byte-identically to
    // the in-memory reference that committed the same script.
    for q in 1..=20usize {
        assert_eq!(
            canonical_output(snap.as_ref(), q),
            canonical_output(reference_snap.as_ref(), q),
            "Q{q} diverged between recovered H and updated A"
        );
    }

    // A second recovery is idempotent: the log already ends cleanly.
    drop(recovered);
    let (again, report) = open_paged_versioned(&path, None).expect("idempotent recovery");
    assert_eq!(report.replayed, 3);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(
        canonical_output(again.snapshot().as_ref(), 13),
        canonical_output(reference_snap.as_ref(), 13),
    );
    drop(again);
    std::fs::remove_dir_all(&dir).ok();
}

/// Backend H keeps no copy of the document beside its pages: serving
/// Q1–Q20 through the MVCC overlay, with commits in between, leaves the
/// base's resident bytes (pool frames and catalog, indexes aside) flat
/// once the pool is full.
#[test]
fn versioned_h_resident_bytes_stay_flat_once_the_pool_is_full() {
    let session = Benchmark::at_factor(0.002).generate();
    let dir = std::env::temp_dir().join(format!("xmark-txn-flat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("flat.xmk");
    drop(session.persist_paged(&path, None).expect("persist H"));
    let (versioned, _) = open_paged_versioned(&path, Some(16)).expect("cold open");
    let base = Arc::clone(versioned.base());
    let resident = || base.size_bytes() - base.index_size_bytes();

    // Fill every frame with H's own serializer, which reads each page.
    base.serialize_node_to(base.root(), &mut String::new())
        .expect("a String sink never fails");
    assert!(base.paged_stats().expect("H has a pool").evictions > 0);
    let full = resident();

    let serve = || {
        for q in 1..=20usize {
            canonical_output(versioned.snapshot().as_ref(), q);
        }
    };
    serve();
    apply_update_script(&versioned);
    serve();
    assert_eq!(resident(), full, "H's resident bytes grew past its pool");
    drop((base, versioned));
    std::fs::remove_dir_all(&dir).ok();
}

// ---- concurrent readers under a writer ------------------------------------

#[test]
fn readers_pin_snapshots_while_the_writer_commits() {
    let doc = generate_document(0.001);
    let versioned = VersionedStore::new(Arc::from(load_system(SystemId::A, &doc.xml).store));
    let service = QueryService::start_source(
        Arc::clone(&versioned) as Arc<dyn StoreSource>,
        3,
        DEFAULT_PLAN_CACHE,
    );
    let (auctions, baseline_bidders): (Vec<Node>, usize) = {
        let s = versioned.snapshot();
        (
            s.descendants_named_iter(s.root(), "open_auction").collect(),
            s.count_descendants_named(s.root(), "bidder"),
        )
    };
    // The writer alternates: an insert into the next auction, then a
    // delete of that auction's last bidder, so every commit but a
    // trailing insert is paired and the final count is checkable.
    let mut inserts = 0usize;
    let mut pending_delete: Option<Node> = None;
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
                let auction = auctions[inserts % auctions.len()];
                inserts += 1;
                txn.insert_subtree(auction, NEW_BIDDER);
                pending_delete = Some(auction);
            }
        }
        txn.commit().expect("writer lane commit");
        Some(start.elapsed())
    };
    // 10 writes per 100 reads; the collector panics on any same-epoch
    // result divergence — the torn-read detector.
    let report = service.run_mixed(&[1, 8, 13], 60, 10, &mut write);
    assert_eq!(report.read.requests, 60);
    assert!(
        report.commits >= 5,
        "writer lane committed {}",
        report.commits
    );
    assert!(
        report.epochs_observed >= 2,
        "reads must overlap at least one commit (saw {} epochs)",
        report.epochs_observed
    );
    assert!(report.commit_p50 <= report.commit_p95);
    // Writer-lane parity: inserts and deletes pair up, leaving the
    // baseline plus the one insert still awaiting its delete.
    let s = versioned.snapshot();
    assert_eq!(
        s.count_descendants_named(s.root(), "bidder"),
        baseline_bidders + usize::from(pending_delete.is_some()),
        "writer-lane parity"
    );
}
