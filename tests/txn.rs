//! The transaction subsystem, end to end: MVCC snapshot isolation
//! semantics, cross-backend result identity under structural updates,
//! the reload oracle (an updated snapshot == a fresh load of its own
//! serialization), plan portability (a plan compiled at one epoch ==
//! a fresh compile at another), multi-op transactions == the same ops
//! committed one by one, the index oracle (every `lookup_id` and
//! carried child-value answer == rebuilt-from-scratch, and commits carry
//! `cvals|` slots and drop every other), the overlay-scan oracle
//! (snapshot descendant scans == a walk of the overlay's cursors), WAL
//! crash recovery on backend H, and non-blocking readers under a
//! concurrent writer, whose cached plans and index counters span every
//! epoch they pin.

mod common;

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use common::{
    apply_update_script, canonical_query, descend, first_text_child, DEEP_FRAGMENT, NEW_BIDDER,
    ORDER_PROBES, PROBE_BIDDER,
};
use proptest::prelude::*;
use xmark::prelude::*;
use xmark::query::{canonicalize, compile_with_mode, Compiled};
use xmark::store::paged::{wal_path_for, LogManager, LogRecord};
use xmark::store::{descendants_by_cursors, Node, PagedStore};

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

// ---- reload oracle ---------------------------------------------------------

/// The serialized document a store holds.
fn serialized(store: &dyn XmlStore) -> String {
    let mut xml = String::new();
    store
        .serialize_node_to(store.root(), &mut xml)
        .expect("a String sink never fails");
    xml
}

/// An updated snapshot answers exactly like a fresh load of its own
/// serialization, on every backend. Comparing backends with each other
/// cannot catch a document-order bug they all share; this compares a
/// snapshot with the document it claims to be.
#[test]
fn updated_snapshots_answer_like_a_reload_of_their_serialization() {
    let doc = generate_document(0.001);
    for system in SystemId::EXTENDED {
        let versioned = VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
        apply_update_script(&versioned);
        let s = versioned.snapshot();
        let mut txn = versioned.begin();
        txn.insert_subtree(
            descend(s.as_ref(), &["open_auctions", "open_auction"]),
            PROBE_BIDDER,
        );
        txn.insert_subtree(descend(s.as_ref(), &["people", "person"]), DEEP_FRAGMENT);
        txn.commit().expect("probe inserts commit");

        let snap = versioned.snapshot();
        let reload = load_system(system, &serialized(snap.as_ref())).store;
        for q in 1..=20usize {
            assert_eq!(
                canonical_output(snap.as_ref(), q),
                canonical_output(reload.as_ref(), q),
                "Q{q} on {system}: the snapshot differs from its reload"
            );
        }
        for probe in ORDER_PROBES {
            assert_eq!(
                canonical_query(snap.as_ref(), probe),
                canonical_query(reload.as_ref(), probe),
                "`{probe}` on {system}: the snapshot differs from its reload"
            );
        }
    }
}

// ---- plan portability ------------------------------------------------------

/// Commits drop the sorted key indexes Q11 and Q12 probe: the number
/// side of the initials' index, whose signature
/// `num|…/initial|(5000 * /#t)` holds a `*`, which the signature test
/// of commit-time index maintenance treats as touched by every commit
/// (an inserted or deleted `<initial>` must drop it in any case), and
/// the number side of Q12's income selection, `num|…/person|/profile@income`,
/// which a rewritten income must drop. After each commit — an open
/// auction with an `<initial>` inserted, then deleted, then a person's
/// income rewritten — Q11 and Q12 answer as the naive plan does on the
/// same snapshot, rebuilding both sides.
#[test]
fn commits_drop_the_range_lookup_index() {
    let sigs = [
        "num|/site/open_auctions/open_auction/initial|(5000 * /#t)",
        "num|/site/people/person|/profile@income",
    ];
    let doc = generate_document(0.001);
    for system in [SystemId::E, SystemId::H] {
        let versioned = VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
        let has_index = |snap: &SnapshotStore| {
            let slots = snap.indexes().built_values();
            let held = sigs
                .iter()
                .filter(|&&sig| slots.iter().any(|(s, _, _)| s == sig));
            match held.count() {
                0 => false,
                2 => true,
                _ => panic!("{system}: one of {sigs:?} survived without the other"),
            }
        };
        let answers = |snap: &SnapshotStore, context: &str| {
            for q in [11, 12] {
                let text = query(q).text;
                let naive = compile_with_mode(text, snap, PlanMode::Naive).expect("compiles");
                assert_eq!(
                    run_on(&compile(text, snap).expect("compiles"), snap),
                    run_on(&naive, snap),
                    "{system}: Q{q} {context}"
                );
            }
            assert!(
                has_index(snap),
                "{system}: Q11 and Q12 probed no index {context}"
            );
        };
        answers(&versioned.snapshot(), "before any commit");

        let auction = r#"<open_auction id="txnauction0"><initial>0.01</initial></open_auction>"#;
        let snap = commit_with(&versioned, |s, txn| {
            txn.insert_subtree(descend(s, &["open_auctions"]), auction)
        });
        assert!(!has_index(&snap), "{system}: the insert kept the index");
        answers(&snap, "after inserting an auction");

        let snap = commit_with(&versioned, |s, txn| {
            let inserted = s
                .children_named_iter(descend(s, &["open_auctions"]), "open_auction")
                .find(|&a| s.attribute(a, "id").as_deref() == Some("txnauction0"))
                .expect("the inserted auction is there");
            txn.delete_subtree(inserted)
        });
        assert!(!has_index(&snap), "{system}: the delete kept the index");
        answers(&snap, "after deleting it");

        let snap = commit_with(&versioned, |s, txn| {
            let profile = s
                .descendants_named_iter(s.root(), "profile")
                .find(|&p| s.attribute(p, "income").is_some())
                .expect("some profile states an income");
            txn.replace_attr(profile, "income", "9999999.99")
        });
        assert!(
            !has_index(&snap),
            "{system}: the income rewrite kept the index"
        );
        answers(&snap, "after rewriting an income");
    }
}

/// A deletion-only update script: prune a closed auction, then an open
/// auction's first bidder. Element ids stay in document order, so
/// subtree stabbing survives it.
fn apply_delete_script(versioned: &Arc<VersionedStore>) {
    for path in [
        &["closed_auctions", "closed_auction"][..],
        &["open_auctions", "open_auction", "bidder"],
    ] {
        let s = versioned.snapshot();
        let mut txn = versioned.begin();
        txn.delete_subtree(descend(s.as_ref(), path));
        txn.commit().expect("delete script commits");
    }
}

/// `compiled` run on `store`, canonicalized.
fn run_on(compiled: &Compiled, store: &dyn XmlStore) -> String {
    let result = execute(compiled, store).expect("the plan executes");
    canonicalize(store, &result)
}

/// A plan compiled at one epoch answers at another exactly like a fresh
/// compile there, in both directions and on every backend: epoch-0 plans
/// run on the updated snapshot, and the updated snapshot's plans run on
/// the pinned epoch-0 one. This is what lets the service's plan cache
/// key on query text alone.
#[test]
fn plans_compiled_at_one_epoch_answer_like_fresh_compiles_at_another() {
    let doc = generate_document(0.001);
    let texts: Vec<&str> = (1..=20)
        .map(|q| query(q).text)
        .chain(ORDER_PROBES)
        .collect();
    let mut differing_plans = 0;
    for system in SystemId::EXTENDED {
        for (script_name, script) in [
            ("insert script", apply_update_script as fn(&_)),
            ("delete script", apply_delete_script),
        ] {
            let versioned = VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
            let old = versioned.snapshot();
            let old_plans: Vec<Compiled> = texts
                .iter()
                .map(|text| compile(text, old.as_ref()).expect("compiles"))
                .collect();
            script(&versioned);
            let new = versioned.snapshot();
            for (text, old_plan) in texts.iter().zip(&old_plans) {
                let new_plan = compile(text, new.as_ref()).expect("compiles");
                let context = format!("`{text}` on {system} after the {script_name}");
                assert_eq!(
                    run_on(old_plan, new.as_ref()),
                    run_on(&new_plan, new.as_ref()),
                    "{context}: the old plan misreads the new snapshot"
                );
                assert_eq!(
                    run_on(&new_plan, old.as_ref()),
                    run_on(old_plan, old.as_ref()),
                    "{context}: the new plan misreads the old snapshot"
                );
                if old_plan.explain() != new_plan.explain() {
                    differing_plans += 1;
                }
            }
        }
    }
    assert!(differing_plans > 0, "no cell compared two different plans");
}

// ---- multi-op transactions -------------------------------------------------

/// One operation to queue on a transaction.
type Edit = Box<dyn Fn(&mut Transaction)>;

/// Operations located on the pristine document, each reading state an
/// earlier one wrote: insert a bidder into an auction, then delete that
/// auction's first bidder; replace a bidder's increase, then delete that
/// bidder (its undo image must carry the new text); set a personref.
fn dependent_ops(s: &dyn XmlStore) -> Vec<Edit> {
    let bidders: Vec<Node> = s.descendants_named_iter(s.root(), "bidder").collect();
    assert!(bidders.len() >= 3, "the document needs three bidders");
    let (first, middle, last) = (bidders[0], bidders[1], bidders[bidders.len() - 1]);
    let auction = s.parent(first).expect("a bidder has an auction");
    let child = |n: Node, tag: &str| {
        s.children_named_iter(n, tag)
            .next()
            .unwrap_or_else(|| panic!("bidder has no <{tag}>"))
    };
    let increase = first_text_child(s, child(last, "increase"));
    let personref = child(middle, "personref");
    vec![
        Box::new(move |t| t.insert_subtree(auction, NEW_BIDDER)),
        Box::new(move |t| t.delete_subtree(first)),
        Box::new(move |t| t.replace_text(increase, "31.41")),
        Box::new(move |t| t.delete_subtree(last)),
        Box::new(move |t| t.replace_attr(personref, "person", "person2")),
    ]
}

/// The transactional records in `path`'s WAL, transaction ids zeroed.
fn logged_ops(path: &Path) -> Vec<LogRecord> {
    let (records, _) = LogManager::read_prefix(&wal_path_for(path)).expect("WAL reads");
    records
        .into_iter()
        .filter_map(|rec| match rec {
            LogRecord::TxnInsert { parent, xml, .. } => Some(LogRecord::TxnInsert {
                txn: 0,
                parent,
                xml,
            }),
            LogRecord::TxnDelete { node, undo_xml, .. } => Some(LogRecord::TxnDelete {
                txn: 0,
                node,
                undo_xml,
            }),
            LogRecord::TxnSetText { node, old, new, .. } => Some(LogRecord::TxnSetText {
                txn: 0,
                node,
                old,
                new,
            }),
            LogRecord::TxnSetAttr {
                node,
                name,
                old,
                new,
                ..
            } => Some(LogRecord::TxnSetAttr {
                txn: 0,
                node,
                name,
                old,
                new,
            }),
            _ => None,
        })
        .collect()
}

/// One transaction of dependent operations leaves the same document as
/// the same operations committed one at a time — and on backend H the
/// same log records, and a WAL that recovers to the same document.
#[test]
fn one_transaction_equals_its_ops_committed_one_by_one() {
    let session = Benchmark::at_factor(0.001).generate();
    let dir = std::env::temp_dir().join(format!("xmark-txn-multi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for system in [SystemId::A, SystemId::D, SystemId::G, SystemId::H] {
        let mut outcomes = Vec::new();
        for batched in [true, false] {
            let path = dir.join(format!("{batched}.xmk"));
            let versioned = if system == SystemId::H {
                drop(session.persist_paged(&path, None).expect("persist H"));
                open_paged_versioned(&path, None).expect("open H").0
            } else {
                VersionedStore::new(Arc::from(load_system(system, session.xml()).store))
            };
            let ops = dependent_ops(versioned.snapshot().as_ref());
            if batched {
                let mut txn = versioned.begin();
                ops.iter().for_each(|op| op(&mut txn));
                txn.commit().expect("the batched transaction commits");
            } else {
                for op in &ops {
                    let mut txn = versioned.begin();
                    op(&mut txn);
                    txn.commit().expect("a single-op transaction commits");
                }
            }
            let snap = versioned.snapshot();
            let queries: Vec<String> = (1..=20)
                .map(|q| canonical_output(snap.as_ref(), q))
                .collect();
            let log = (system == SystemId::H).then(|| logged_ops(&path));
            outcomes.push((serialized(snap.as_ref()), queries, log));
        }
        let (batched, one_by_one) = (&outcomes[0], &outcomes[1]);
        assert_eq!(batched.0, one_by_one.0, "{system}: documents differ");
        assert_eq!(batched.1, one_by_one.1, "{system}: Q1-Q20 differ");
        assert_eq!(batched.2, one_by_one.2, "{system}: logged records differ");
        if system == SystemId::H {
            let (recovered, report) =
                open_paged_versioned(&dir.join("true.xmk"), None).expect("recovery");
            assert_eq!(report.replayed, 1);
            assert_eq!(serialized(recovered.snapshot().as_ref()), batched.0);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- index-maintenance oracle ---------------------------------------------

/// Every `id` value an element of `s` carries, mapped to its first
/// holder in document order: a pre-order walk of `s`'s cursors. (A
/// snapshot numbers inserted nodes above the base, so the `@id` index's
/// id-order scan cannot serve as this reference.)
fn first_holders(s: &dyn XmlStore) -> HashMap<String, Node> {
    let mut holders = HashMap::new();
    let mut stack = vec![s.root()];
    while let Some(n) = stack.pop() {
        if let Some(value) = s.attribute(n, "id") {
            holders.entry(value.into_owned()).or_insert(n);
        }
        let children: Vec<Node> = s.children_iter(n).collect();
        stack.extend(children.into_iter().rev());
    }
    holders
}

/// Every element of `s`, by a pre-order walk of its cursors.
fn live_elements(s: &dyn XmlStore) -> Vec<Node> {
    let mut out = Vec::new();
    let mut stack = vec![s.root()];
    while let Some(n) = stack.pop() {
        if s.tag_of(n).is_some() {
            out.push(n);
            stack.extend(s.children_iter(n));
        }
    }
    out
}

/// The text nodes of `n`'s `tag` children, walked through the overlay's
/// cursors: what a value tail reads for a context the store declines.
fn walked_child_values(s: &dyn XmlStore, n: Node, tag: &str) -> Vec<u32> {
    s.children_named_iter(n, tag)
        .flat_map(|c| s.children_iter(c).filter(|&t| s.is_text_node(t)))
        .map(|t| t.0)
        .collect()
}

/// Assert the indexes of `snap`, a post-commit snapshot, answer
/// identically to a fresh rebuild over the same snapshot: its element
/// index holds no postings (readers stab the base's through the
/// cursors), `lookup_id` of every value in `ever_held` — each value any
/// holder ever carried — names the first holder in document order, or
/// nothing once no element holds it, and every element's child values —
/// the carried map's entry where the snapshot vouches for it, else the
/// overlay walk — equal the rebuilt map's. A carried map's own entries
/// are stale by design wherever the snapshot is dirty.
fn assert_indexes_match_rebuild(snap: &SnapshotStore, ever_held: &BTreeSet<String>, context: &str) {
    let kept = snap.indexes().element(snap);
    assert!(
        !kept.ordered() && kept.size_bytes() == 0,
        "{context}: a commit derived element postings"
    );

    let holders = first_holders(snap);
    for value in ever_held {
        assert_eq!(
            snap.lookup_id(value),
            holders.get(value).copied(),
            "{context}: lookup_id({value}) drifted"
        );
    }

    let rebuilt = IndexManager::new();
    let elements = live_elements(snap);
    for tag in ["increase", "current"] {
        let kept_cv = snap.indexes().child_values(snap, tag);
        let fresh_cv = rebuilt.child_values(snap, tag);
        for &p in &elements {
            let answer = match snap.indexed_child_values(&kept_cv, p) {
                Some(texts) => texts.to_vec(),
                None => walked_child_values(snap, p, tag),
            };
            assert_eq!(
                answer,
                fresh_cv.get(p),
                "{context}: cvals|{tag} answers drifted at node {}",
                p.0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The oracle: after a randomized update sequence, the carried
    /// index manager answers identically to one rebuilt from scratch
    /// over each snapshot — on every backend.
    #[test]
    fn maintained_indexes_match_rebuilt_from_scratch(
        script in proptest::collection::vec((0u8..10, 0usize..64, 0u32..1000), 1..7),
    ) {
        let doc = generate_document(0.001);
        for system in SystemId::EXTENDED {
            let versioned =
                VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
            // Warm the structures maintenance must carry forward.
            let s = versioned.snapshot();
            s.indexes().build_all(s.as_ref());
            s.indexes().child_values(s.as_ref(), "increase");
            s.indexes().child_values(s.as_ref(), "current");
            let mut ever_held: BTreeSet<String> = first_holders(s.as_ref()).into_keys().collect();
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
                ever_held.extend(first_holders(snap.as_ref()).into_keys());
                assert_indexes_match_rebuild(
                    &snap,
                    &ever_held,
                    &format!("{system} after op {kind}/{selector}"),
                );
            }
        }
    }
}

/// The `@id` oracle's edge cases, one commit at a time on every
/// backend: a duplicate of a person's id inserted before the person
/// (under `regions`, shadowing it) and after it (under `people`), the
/// shadowing duplicate deleted again, one item's id rewritten to a fresh
/// value, the person deleted, and another item's id rewritten to the
/// person's.
#[test]
fn id_lookups_follow_deletes_rewrites_and_duplicates() {
    let doc = generate_document(0.001);
    for system in SystemId::EXTENDED {
        let versioned = VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
        let s = versioned.snapshot();
        let mut ever_held: BTreeSet<String> = first_holders(s.as_ref()).into_keys().collect();
        let person = descend(s.as_ref(), &["people", "person"]);
        let taken = s.attribute(person, "id").expect("persons carry an id");
        let dup = format!("<item id=\"{taken}\"><name>dup</name></item>");
        let last_child = |s: &dyn XmlStore, tag: &str| {
            let parent = descend(s, &[tag]);
            s.children_iter(parent).last().expect("a child")
        };
        let items = |s: &dyn XmlStore| -> Vec<Node> {
            s.descendants_named_iter(s.root(), "item").collect()
        };
        let mut step = |name: &str, stage: &dyn Fn(&dyn XmlStore, &mut Transaction)| {
            let snap = commit_with(&versioned, |s, txn| stage(s, txn));
            ever_held.extend(first_holders(snap.as_ref()).into_keys());
            assert_indexes_match_rebuild(&snap, &ever_held, &format!("{system} after {name}"));
        };
        step("dup before", &|s, txn| {
            txn.insert_subtree(descend(s, &["regions"]), &dup)
        });
        step("dup after", &|s, txn| {
            txn.insert_subtree(descend(s, &["people"]), &dup)
        });
        step("unshadow", &|s, txn| {
            txn.delete_subtree(last_child(s, "regions"))
        });
        step("fresh id", &|s, txn| {
            txn.replace_attr(items(s)[0], "id", "txnitem0")
        });
        step("person gone", &|_, txn| txn.delete_subtree(person));
        step("taken id", &|s, txn| {
            txn.replace_attr(items(s)[1], "id", &taken)
        });
    }
}

/// The filled value slots of `snap`'s manager, by signature.
fn value_slots(snap: &SnapshotStore) -> BTreeMap<String, Arc<dyn Any + Send + Sync>> {
    let slots = snap.indexes().built_values().into_iter();
    slots.map(|(sig, value, _)| (sig, value)).collect()
}

/// Carried child-value maps, one commit at a time on every backend.
/// `cvals|increase` is warmed by a materializing `sum`; then a bidder
/// insert, an `increase` rewrite and a bidder delete commit, and
/// `cvals|current` is first built on the dirty snapshot before a last
/// commit inserts an auction and rewrites a price. Each commit carries
/// every `cvals|` slot as the predecessor's `Arc` and drops every other
/// slot, and the streamed value tails (read through the snapshot's
/// clean gate) equal the naive plan's walks. System C plans these tails
/// over its entity columns, so there the slots are built directly.
#[test]
fn commits_carry_child_value_maps_behind_the_clean_gate() {
    const TAILS: [&str; 4] = [
        "for $b in /site/open_auctions/open_auction/bidder return $b/increase/text()",
        "sum(/site/open_auctions/open_auction/bidder/increase/text())",
        "for $a in /site/open_auctions/open_auction return $a/current/text()",
        "sum(/site/open_auctions/open_auction/current/text())",
    ];
    const AUCTION: &str =
        r#"<open_auction id="txnauction1"><current>1.00</current></open_auction>"#;
    let doc = generate_document(0.001);
    for system in SystemId::EXTENDED {
        let versioned = VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
        // The `sum` over `tag`'s value tail builds its slot.
        let warm = |snap: &SnapshotStore, tag: &str, sum: &str| {
            run_on(&compile(sum, snap).expect("compiles"), snap);
            let sig = format!("cvals|{tag}");
            if !value_slots(snap).contains_key(&sig) {
                assert_eq!(system, SystemId::C, "{system}: `{sum}` built no {sig}");
                snap.indexes().child_values(snap, tag);
            }
        };
        let check = |snap: &SnapshotStore, context: &str| {
            for text in TAILS {
                let naive = compile_with_mode(text, snap, PlanMode::Naive).expect("compiles");
                assert_eq!(
                    run_on(&compile(text, snap).expect("compiles"), snap),
                    run_on(&naive, snap),
                    "{system}: `{text}` {context}"
                );
            }
        };
        let commit = |name: &str, stage: &dyn Fn(&dyn XmlStore, &mut Transaction)| {
            let mut before = value_slots(&versioned.snapshot());
            let count = before.len();
            before.retain(|sig, _| sig.starts_with("cvals|"));
            assert!(before.len() < count, "{system}: no slot to drop by {name}");
            let snap = commit_with(&versioned, |s, txn| stage(s, txn));
            let after = value_slots(&snap);
            let kept: Vec<_> = after.keys().collect();
            assert_eq!(kept, before.keys().collect::<Vec<_>>(), "{system}: {name}");
            for (sig, value) in &before {
                assert!(
                    Arc::ptr_eq(value, &after[sig]),
                    "{system}: {sig} was rebuilt or copied by {name}"
                );
            }
            check(&snap, &format!("after {name}"));
            snap
        };

        let snap = versioned.snapshot();
        warm(&snap, "increase", TAILS[1]);
        check(&snap, "at epoch 0");
        commit("a bidder insert", &|s, txn| {
            txn.insert_subtree(descend(s, &["open_auctions", "open_auction"]), NEW_BIDDER)
        });
        commit("an increase rewrite", &|s, txn| {
            let increase = descend(s, &["open_auctions", "open_auction", "bidder", "increase"]);
            txn.replace_text(first_text_child(s, increase), "13.37")
        });
        let snap = commit("a bidder delete", &|s, txn| {
            let last = s.descendants_named_iter(s.root(), "bidder").last();
            txn.delete_subtree(last.expect("some auction has bidders"))
        });
        warm(&snap, "current", TAILS[3]);

        commit("an auction insert and a price rewrite", &|s, txn| {
            txn.insert_subtree(descend(s, &["open_auctions"]), AUCTION);
            let current = descend(s, &["open_auctions", "open_auction", "current"]);
            txn.replace_text(first_text_child(s, current), "424.42");
        });
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
        4 => match pick("personref", selector) {
            Some(personref) => {
                txn.replace_attr(personref, "person", &format!("person{}", value % 7));
                true
            }
            None => false,
        },
        5 => match pick("person", selector) {
            Some(person) => {
                txn.delete_subtree(person);
                true
            }
            None => false,
        },
        6 => match pick("item", selector) {
            Some(item) => {
                *uniq += 1;
                txn.replace_attr(item, "id", &format!("txnitem{uniq}"));
                true
            }
            None => false,
        },
        7 => match (pick("item", selector), pick("person", value as usize)) {
            (Some(item), Some(person)) => {
                let taken = s.attribute(person, "id").expect("persons carry an id");
                txn.replace_attr(item, "id", &taken);
                true
            }
            _ => false,
        },
        // A second holder of a person's id, ranked before the person
        // (under `regions`) or after it (under `people`).
        _ => match (
            pick(if kind == 8 { "regions" } else { "people" }, 0),
            pick("person", selector),
        ) {
            (Some(parent), Some(person)) => {
                let taken = s.attribute(person, "id").expect("persons carry an id");
                txn.insert_subtree(
                    parent,
                    &format!("<item id=\"{taken}\"><name>dup</name></item>"),
                );
                true
            }
            _ => false,
        },
    }
}

// ---- overlay descendant scans ----------------------------------------------

/// Tags the scan oracle asks for: base-only, grown by inserts
/// (`bidder`, `personref`), shrunk by deletes, and one no document has.
const SCAN_TAGS: [&str; 8] = [
    "bidder",
    "personref",
    "increase",
    "person",
    "closed_auction",
    "annotation",
    "description",
    "no_such_tag",
];

/// Tags whose elements the scan oracle samples as context nodes.
const SCAN_CONTEXTS: [&str; 8] = [
    "open_auctions",
    "open_auction",
    "bidder",
    "people",
    "person",
    "closed_auctions",
    "closed_auction",
    "regions",
];

/// Assert that every sampled `descendants_named_iter(n, tag)` of `snap`
/// equals the plain cursor walk over the overlay, as a sequence, and
/// that `count_descendants_named` equals its length. Contexts: the
/// root, the first, last and `selector`-th element of each
/// [`SCAN_CONTEXTS`] tag, and `extra`.
fn assert_scans_match_cursor_walks(
    snap: &SnapshotStore,
    selector: usize,
    extra: &[Node],
    context: &str,
) {
    let root = snap.root();
    let mut nodes = vec![root];
    for ctx in SCAN_CONTEXTS {
        let all: Vec<Node> = descendants_by_cursors(snap, root, ctx).collect();
        if let (Some(&first), Some(&last)) = (all.first(), all.last()) {
            nodes.extend([first, last, all[selector % all.len()]]);
        }
    }
    nodes.extend(extra);
    for n in nodes {
        for tag in SCAN_TAGS {
            let walked: Vec<Node> = descendants_by_cursors(snap, n, tag).collect();
            let scanned: Vec<Node> = snap.descendants_named_iter(n, tag).collect();
            assert_eq!(
                scanned, walked,
                "{context}: //{tag} under node {} diverged from the cursor walk",
                n.0
            );
            assert_eq!(
                snap.count_descendants_named(n, tag),
                walked.len(),
                "{context}: count(//{tag}) under node {}",
                n.0
            );
        }
    }
}

/// Commit one transaction built by `stage` and return the new snapshot.
fn commit_with(
    versioned: &Arc<VersionedStore>,
    stage: impl FnOnce(&dyn XmlStore, &mut Transaction),
) -> Arc<SnapshotStore> {
    let s = versioned.snapshot();
    let mut txn = versioned.begin();
    stage(s.as_ref(), &mut txn);
    txn.commit().expect("staged ops commit");
    versioned.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The overlay-scan oracle: after every commit of a random update
    /// script (and of the shared fixed script), snapshot descendant
    /// scans and counts answer exactly like a walk of the overlay's
    /// cursors, on an element-index store and on the paged store.
    #[test]
    fn overlay_scans_match_cursor_walks_under_random_updates(
        script in proptest::collection::vec((0u8..5, 0usize..64, 0u32..1000), 1..7),
    ) {
        let doc = generate_document(0.001);
        for system in [SystemId::E, SystemId::H] {
            let versioned =
                VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
            let mut uniq = 0u32;
            for &(kind, selector, value) in &script {
                let s = versioned.snapshot();
                let mut txn = versioned.begin();
                if !apply_random_op(s.as_ref(), &mut txn, kind, selector, value, &mut uniq) {
                    continue;
                }
                txn.commit().expect("scripted op commits");
                assert_scans_match_cursor_walks(
                    &versioned.snapshot(),
                    selector,
                    &[],
                    &format!("{system} after op {kind}/{selector}"),
                );
            }
            apply_update_script(&versioned);
            assert_scans_match_cursor_walks(
                &versioned.snapshot(),
                script.len(),
                &[],
                &format!("{system} after the update script"),
            );
        }
    }
}

/// The scan oracle's edge cases, one commit at a time: an element
/// inserted right after a context's subtree (its next sibling), an
/// insert into an inserted element, the delete of a base subtree that
/// holds inserted elements, and a history of deletes only.
#[test]
fn overlay_scans_cover_next_siblings_nested_inserts_and_deleted_subtrees() {
    let doc = generate_document(0.001);
    for system in [SystemId::E, SystemId::H] {
        let versioned = VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
        let s = versioned.snapshot();
        let auctions: Vec<Node> = descendants_by_cursors(s.as_ref(), s.root(), "open_auction")
            .take(2)
            .collect();
        let (auction, doomed) = (auctions[0], auctions[1]);
        // The new bidder becomes the next sibling of the auction's last
        // child and ranks right after that child's subtree.
        let tail = s.children_iter(auction).last().expect("auction children");
        let snap = commit_with(&versioned, |_, txn| txn.insert_subtree(auction, NEW_BIDDER));
        assert_eq!(snap.count_descendants_named(tail, "bidder"), 0);
        assert_scans_match_cursor_walks(&snap, 0, &[auction, tail], &format!("{system} sibling"));

        let bidder = snap
            .children_named_iter(auction, "bidder")
            .last()
            .expect("the inserted bidder");
        let snap = commit_with(&versioned, |_, txn| {
            txn.insert_subtree(bidder, "<personref person=\"person1\"/>")
        });
        assert_scans_match_cursor_walks(
            &snap,
            1,
            &[auction, tail, bidder],
            &format!("{system} nested insert"),
        );

        commit_with(&versioned, |_, txn| {
            txn.insert_subtree(doomed, NEW_BIDDER);
            txn.insert_subtree(doomed, DEEP_FRAGMENT);
        });
        let snap = commit_with(&versioned, |_, txn| txn.delete_subtree(doomed));
        assert_scans_match_cursor_walks(
            &snap,
            2,
            &[auction, tail, bidder],
            &format!("{system} deleted subtree with inserts"),
        );

        let versioned = VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
        for round in 0..3 {
            let snap = commit_with(&versioned, |s, txn| {
                let closed = descend(s, &["closed_auctions", "closed_auction"]);
                txn.delete_subtree(closed);
                txn.delete_subtree(descend(s, &["people", "person"]));
            });
            assert_scans_match_cursor_walks(
                &snap,
                round,
                &[],
                &format!("{system} deletes only, round {round}"),
            );
        }
    }
}

/// After an insert, a count and a drained scan from the root of a
/// versioned H answer from the base's element index and the overlay's
/// inserted postings: not one page is pinned.
#[test]
fn root_scans_of_an_updated_h_pin_no_pages() {
    let session = Benchmark::at_factor(0.002).generate();
    let dir = std::env::temp_dir().join(format!("xmark-txn-scan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("scan.xmk");
    drop(session.persist_paged(&path, None).expect("persist H"));
    let (versioned, _) = open_paged_versioned(&path, Some(16)).expect("cold open");
    let snap = commit_with(&versioned, |s, txn| {
        txn.insert_subtree(descend(s, &["open_auctions", "open_auction"]), NEW_BIDDER)
    });
    let root = snap.root();
    let pins = || {
        let stats = snap.paged_stats().expect("H has a pool");
        stats.hits + stats.misses
    };
    let before = pins();
    let descriptions = snap.count_descendants_named(root, "description");
    let items = snap.descendants_named_iter(root, "item").count();
    assert_eq!(pins() - before, 0, "root scans pinned pages");
    assert_eq!(
        descriptions,
        descendants_by_cursors(snap.as_ref(), root, "description").count()
    );
    assert_eq!(
        items,
        descendants_by_cursors(snap.as_ref(), root, "item").count()
    );
    drop((snap, versioned));
    std::fs::remove_dir_all(&dir).ok();
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

/// The writer lane: it alternates an insert into the next open auction
/// with a delete of that auction's last bidder, so every commit but a
/// trailing insert is paired and the final bidder count is checkable.
struct BidderLane {
    versioned: Arc<VersionedStore>,
    auctions: Vec<Node>,
    inserts: usize,
    pending_delete: Option<Node>,
}

impl BidderLane {
    fn new(versioned: &Arc<VersionedStore>) -> BidderLane {
        let s = versioned.snapshot();
        BidderLane {
            versioned: Arc::clone(versioned),
            auctions: s.descendants_named_iter(s.root(), "open_auction").collect(),
            inserts: 0,
            pending_delete: None,
        }
    }

    /// One commit, returning its latency.
    fn commit(&mut self) -> Option<Duration> {
        let start = Instant::now();
        let mut txn = self.versioned.begin();
        match self.pending_delete.take() {
            Some(auction) => {
                let s = self.versioned.snapshot();
                let bidder = s
                    .children_named_iter(auction, "bidder")
                    .last()
                    .expect("the bidder inserted by the previous call");
                txn.delete_subtree(bidder);
            }
            None => {
                let auction = self.auctions[self.inserts % self.auctions.len()];
                self.inserts += 1;
                txn.insert_subtree(auction, NEW_BIDDER);
                self.pending_delete = Some(auction);
            }
        }
        txn.commit().expect("writer lane commit");
        Some(start.elapsed())
    }
}

/// The source the test pools read: it holds every worker request after
/// the first until the writer has committed, so a mixed run pins at
/// least two epochs however fast the reads drain. Calls from the thread
/// that built it — the test, which also collects and commits — pass.
struct HoldUntilCommit {
    versioned: Arc<VersionedStore>,
    collector: ThreadId,
    first_taken: AtomicBool,
}

impl StoreSource for HoldUntilCommit {
    fn snapshot(&self) -> Arc<dyn XmlStore> {
        if thread::current().id() != self.collector && self.first_taken.swap(true, Ordering::SeqCst)
        {
            while self.versioned.epoch() == 0 {
                thread::yield_now();
            }
        }
        self.versioned.snapshot()
    }
}

/// A pool over a versioned System A at factor 0.001.
fn versioned_service(workers: usize) -> (Arc<VersionedStore>, QueryService) {
    let doc = generate_document(0.001);
    let versioned = VersionedStore::new(Arc::from(load_system(SystemId::A, &doc.xml).store));
    let source = HoldUntilCommit {
        versioned: Arc::clone(&versioned),
        collector: thread::current().id(),
        first_taken: AtomicBool::new(false),
    };
    let service = QueryService::start_source(Arc::new(source), workers, DEFAULT_PLAN_CACHE);
    (versioned, service)
}

#[test]
fn readers_pin_snapshots_while_the_writer_commits() {
    let (versioned, service) = versioned_service(3);
    let baseline_bidders = {
        let s = versioned.snapshot();
        s.count_descendants_named(s.root(), "bidder")
    };
    let mut lane = BidderLane::new(&versioned);
    // 10 writes per 100 reads; the collector panics on any same-epoch
    // result divergence — the torn-read detector.
    let report = service.run_mixed(&[1, 8, 13], 60, 10, &mut || lane.commit());
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
        baseline_bidders + usize::from(lane.pending_delete.is_some()),
        "writer-lane parity"
    );
}

/// Cached plans survive commits: each query of the mix compiles once,
/// however many epochs its requests pin.
#[test]
fn cached_plans_survive_commits() {
    let (versioned, service) = versioned_service(1);
    let mut lane = BidderLane::new(&versioned);
    let mix = [1, 8, 13];
    let report = service.run_mixed(&mix, 60, 20, &mut || lane.commit());
    assert!(report.epochs_observed >= 2, "reads must span commits");
    assert_eq!(
        report.read.plan_cache_misses,
        mix.len() as u64,
        "one compile per query, whatever the epoch"
    );
}

/// The service counts index work on the epochs its requests pin, not on
/// the snapshot that was current when it started.
#[test]
fn index_hits_count_on_the_pinned_epoch() {
    let (versioned, service) = versioned_service(1);
    service.build_indexes();
    let s = versioned.snapshot();
    let mut txn = versioned.begin();
    txn.insert_subtree(
        descend(s.as_ref(), &["open_auctions", "open_auction"]),
        NEW_BIDDER,
    );
    txn.commit().expect("insert commits");
    let report = service.run_mix(&[1], 10);
    assert!(
        report.index_hits >= 10,
        "each Q1 probes the @id index (counted {})",
        report.index_hits
    );
}

/// Commits build neither an element nor an `@id` index: each successor
/// manager is seeded from its predecessor, and both builds scan ids
/// `0..node_count`, which no snapshot numbers in document order. Across
/// inserts, a delete, a text and an `id` rewrite, the base's manager and
/// the snapshots' shared counters record no build.
#[test]
fn commits_build_no_element_or_id_index() {
    let doc = generate_document(0.001);
    for system in SystemId::EXTENDED {
        let base: Arc<dyn XmlStore> = Arc::from(load_system(system, &doc.xml).store);
        let versioned = VersionedStore::new(Arc::clone(&base));
        let builds = |snap: &SnapshotStore| (base.indexes().builds(), snap.indexes().builds());
        let before = builds(&versioned.snapshot());
        apply_update_script(&versioned);
        let snap = commit_with(&versioned, |s, txn| {
            txn.replace_attr(descend(s, &["people", "person"]), "id", "person-renamed")
        });
        assert_eq!(builds(&snap), before, "{system}: a commit built an index");
        let kept = snap.indexes().element(snap.as_ref());
        assert!(!kept.ordered() && kept.size_bytes() == 0, "{system}");
        assert_eq!(
            builds(&snap),
            before,
            "{system}: the element index was not seeded"
        );
    }
}

/// No snapshot walks itself to build an element or `@id` index: on a
/// post-insert snapshot, `build_all` builds nothing, and Q1–Q20 build
/// only value slots.
#[test]
fn post_commit_snapshots_build_no_element_or_id_index() {
    let doc = generate_document(0.001);
    for system in SystemId::EXTENDED {
        let versioned = VersionedStore::new(Arc::from(load_system(system, &doc.xml).store));
        let snap = commit_with(&versioned, |s, txn| {
            txn.insert_subtree(descend(s, &["open_auctions", "open_auction"]), NEW_BIDDER)
        });
        let indexes = snap.indexes();
        let before = indexes.builds();
        indexes.build_all(snap.as_ref());
        assert_eq!(indexes.builds(), before, "{system}: build_all built");
        let slots = indexes.built_values().len();
        for q in &ALL_QUERIES {
            let compiled = compile(q.text, snap.as_ref()).expect("query compiles");
            run_on(&compiled, snap.as_ref());
        }
        let value_builds = (indexes.built_values().len() - slots) as u64;
        assert_eq!(
            indexes.builds() - before,
            value_builds,
            "{system}: Q1-Q20 built more than value slots"
        );
    }
}
