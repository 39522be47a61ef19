//! Optimizer oracle: every decision the planner makes (hash join,
//! decorrelated index lookup, predicate pushdown, ID/positional/inlined
//! access paths, summary aggregates) must be *semantically invisible* —
//! the optimized and the pure nested-loop execution of all twenty queries
//! must produce byte-identical canonical output on **every** backend A–G.
//!
//! This is the reproduction-side analogue of the paper's §1 concern that
//! query-processor verification is hard: the naive plan
//! ([`PlanMode::Naive`] — generic cursors, no joins, no pushdown) is the
//! executable specification; the optimized plan is the implementation
//! under test.

use xmark::prelude::*;
use xmark::query::{canonicalize, compile_with_mode, EvalError, WriteError};

fn run_with(store: &dyn XmlStore, text: &str, mode: PlanMode) -> String {
    run_streamed(store, text, mode).expect("query runs")
}

/// `text` under `mode`, canonicalized, after checking that `write_to`
/// streams exactly the bytes of the materialized result, or fails with
/// the same error.
fn run_streamed(store: &dyn XmlStore, text: &str, mode: PlanMode) -> Result<String, EvalError> {
    let compiled = compile_with_mode(text, store, mode).expect("query compiles");
    let executed = execute(&compiled, store);
    let mut sunk = String::new();
    match (&executed, compiled.write_to(store, &mut sunk)) {
        (Ok(seq), Ok(_)) => assert_eq!(
            sunk,
            serialize_sequence(store, seq),
            "{}: {mode:?} write_to diverges from execute: {text}",
            store.system()
        ),
        (Err(e), Err(WriteError::Eval(streamed))) => assert_eq!(
            e,
            &streamed,
            "{}: {mode:?} write_to fails differently: {text}",
            store.system()
        ),
        (executed, streamed) => panic!(
            "{}: {mode:?} execute gave {executed:?}, write_to {streamed:?}: {text}",
            store.system()
        ),
    }
    executed.map(|seq| canonicalize(store, &seq))
}

fn assert_planned_matches_naive(store: &dyn XmlStore, number: usize, text: &str) {
    let optimized = run_with(store, text, PlanMode::Optimized);
    let naive = run_with(store, text, PlanMode::Naive);
    assert_eq!(
        optimized,
        naive,
        "Q{number}: the planner changed the result on {}",
        store.system()
    );
}

#[test]
fn planned_plans_preserve_all_twenty_queries_on_every_backend() {
    let doc = generate_document(0.002);
    for system in SystemId::ALL {
        let store = build_store(system, &doc.xml).unwrap();
        for q in &ALL_QUERIES {
            assert_planned_matches_naive(store.as_ref(), q.number, q.text);
        }
    }
}

#[test]
fn planned_plans_preserve_results_on_other_seeds() {
    for seed in [3u64, 1999] {
        let xml = xmark::gen::generate_string(&xmark::gen::GeneratorConfig {
            factor: 0.001,
            seed,
        });
        for system in SystemId::ALL {
            let store = build_store(system, &xml).unwrap();
            // The plan-sensitive queries: joins (8, 9, 10), pushdown (11,
            // 12), quantifiers (4), positional access (2, 3) and summary
            // counts (6, 7).
            for q in [2, 3, 4, 6, 7, 8, 9, 10, 11, 12] {
                assert_planned_matches_naive(store.as_ref(), q, query(q).text);
            }
        }
    }
}

#[test]
fn multi_item_path_bases_answer_in_document_order_on_every_backend() {
    // A path base holding several items (a `let` binding, a comma
    // expression) may be in any order, repeat a node, or pair an
    // ancestor with its descendant. The planned shortcuts (inlined and
    // value tails, ID probes, positional children) must still answer in
    // document order without duplicates, exactly as the generic steps
    // do: planned ≡ naive, streamed ≡ executed, and each case equals its
    // reference, whose base is already sorted and duplicate-free.
    let cases = [
        (
            "let $x := /site/people/person return $x/name/text()",
            "/site/people/person/name/text()",
        ),
        (
            "let $x := (/site/people/person[2], /site/people/person[1]) return $x/name/text()",
            "let $x := (/site/people/person[1], /site/people/person[2]) return $x/name/text()",
        ),
        (
            "let $x := (/site/people/person[1], /site/people/person[1]) return $x/name/text()",
            "/site/people/person[1]/name/text()",
        ),
        (
            "(/site/regions, /site/regions/europe)//item/name/text()",
            "/site/regions//item/name/text()",
        ),
        (
            "(/site/regions/europe, /site/regions)//item/name/text()",
            "/site/regions//item/name/text()",
        ),
        (
            r#"let $x := (/site/people, /site/people) return $x/person[@id = "person0"]/name/text()"#,
            r#"/site/people/person[@id = "person0"]/name/text()"#,
        ),
        (
            "let $x := /site/open_auctions/open_auction return $x/bidder[1]/increase/text()",
            "/site/open_auctions/open_auction/bidder[1]/increase/text()",
        ),
        (
            "(/site/open_auctions/open_auction[3], /site/open_auctions/open_auction[1])/initial/text()",
            "(/site/open_auctions/open_auction[1], /site/open_auctions/open_auction[3])/initial/text()",
        ),
    ];
    let non_node = r#"("a", /site/people/person[1])/name"#;
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        for (text, reference) in cases {
            let optimized = run_with(store, text, PlanMode::Optimized);
            let naive = run_with(store, text, PlanMode::Naive);
            assert_eq!(optimized, naive, "{system}: planned ≠ naive: {text}");
            assert!(!optimized.is_empty(), "{system}: empty answer: {text}");
            let expected = run_with(store, reference, PlanMode::Optimized);
            assert_eq!(optimized, expected, "{system}: {text} vs {reference}");
        }
        for mode in [PlanMode::Optimized, PlanMode::Naive] {
            assert_eq!(
                run_streamed(store, non_node, mode),
                Err(EvalError::PathOverNonNode),
                "{system}: {mode:?}"
            );
        }
    }
}

#[test]
fn join_plan_handles_duplicate_keys() {
    // Hand-built document where join keys repeat on both sides: the
    // nested loop emits one tuple per matching *pair*, and so must the
    // hash join.
    let xml = r#"<site><l><x k="a"/><x k="a"/><x k="b"/></l><r><y k="a"/><y k="a"/><y k="c"/></r></site>"#;
    let q = r#"for $l in document("d")/site/l/x, $r in document("d")/site/r/y
               where $l/@k = $r/@k
               return <pair l="{$l/@k}" r="{$r/@k}"/>"#;
    for system in SystemId::ALL {
        let store = build_store(system, xml).unwrap();
        let optimized = run_with(store.as_ref(), q, PlanMode::Optimized);
        let naive = run_with(store.as_ref(), q, PlanMode::Naive);
        assert_eq!(optimized, naive, "{system}");
        // 2 left "a" × 2 right "a" = 4 pairs.
        assert_eq!(optimized.lines().count(), 4, "{system}");
    }
}

#[test]
fn pushdown_respects_clause_scoping() {
    // A where-conjunct that only involves the *outer* variable must not
    // change results when evaluated before the inner binding.
    let xml = r#"<site><p v="1"/><p v="2"/><q w="9"/></site>"#;
    let q = r#"for $p in document("d")/site/p
               let $a := for $q in document("d")/site/q return $q
               where $p/@v = "2"
               return <hit n="{count($a)}"/>"#;
    for system in SystemId::ALL {
        let store = build_store(system, xml).unwrap();
        let optimized = run_with(store.as_ref(), q, PlanMode::Optimized);
        let naive = run_with(store.as_ref(), q, PlanMode::Naive);
        assert_eq!(optimized, naive, "{system}");
        assert_eq!(optimized, r#"<hit n="1"/>"#, "{system}");
    }
}

#[test]
fn decorrelation_handles_empty_probe_keys() {
    // Outer items without the probed attribute must simply match nothing.
    let xml = r#"<site><p id="p1"/><p/><t ref="p1"/><t ref="p2"/></site>"#;
    let q = r#"for $p in document("d")/site/p
               let $a := for $t in document("d")/site/t
                         where $t/@ref = $p/@id
                         return $t
               return <n c="{count($a)}"/>"#;
    for system in SystemId::ALL {
        let store = build_store(system, xml).unwrap();
        let optimized = run_with(store.as_ref(), q, PlanMode::Optimized);
        let naive = run_with(store.as_ref(), q, PlanMode::Naive);
        assert_eq!(optimized, naive, "{system}");
        assert_eq!(optimized, "<n c=\"1\"/>\n<n c=\"0\"/>", "{system}");
    }
}

#[test]
fn join_keys_follow_general_comparison_semantics() {
    // The canonical join key must agree with the general comparison the
    // nested-loop specification evaluates: whitespace-padded strings
    // join their trimmed value, "-0" joins "0", and NaN joins *nothing*
    // (NaN = NaN is false), even though "NaN" parses as a float.
    let xml = concat!(
        r#"<site><l><x k="  a  "/><x k="-0"/><x k="NaN"/><x k="40.0"/></l>"#,
        r#"<r><y k="a"/><y k="0"/><y k="NaN"/><y k="40"/></r></site>"#
    );
    let q = r#"for $l in document("d")/site/l/x, $r in document("d")/site/r/y
               where $l/@k = $r/@k
               return <pair l="{$l/@k}" r="{$r/@k}"/>"#;
    for system in SystemId::ALL {
        let store = build_store(system, xml).unwrap();
        let optimized = run_with(store.as_ref(), q, PlanMode::Optimized);
        let naive = run_with(store.as_ref(), q, PlanMode::Naive);
        assert_eq!(optimized, naive, "{system}");
        // "  a  "~"a", "-0"~"0", "40.0"~"40" join; the NaN pair does not.
        assert_eq!(optimized.lines().count(), 3, "{system}:\n{optimized}");
        assert!(
            !optimized.contains("NaN"),
            "{system}: NaN must join nothing"
        );
    }
}

#[test]
fn hoisted_probe_filters_match_per_pair_evaluation() {
    // A hash join with a second, correlated equality (Q9's shape): the
    // hoisted probe-side filter must keep exactly the pairs the naive
    // per-pair evaluation keeps.
    let xml = concat!(
        r#"<site><p id="p1"/><p id="p2"/>"#,
        r#"<t item="i1" owner="p1"/><t item="i1" owner="p2"/><t item="i9" owner="p1"/>"#,
        r#"<e id="i1"/><e id="i2"/></site>"#
    );
    let q = r#"for $p in document("d")/site/p
               let $a := for $t in document("d")/site/t, $e in document("d")/site/e
                         where $t/@item = $e/@id and $t/@owner = $p/@id
                         return $e
               return <n c="{count($a)}"/>"#;
    for system in SystemId::ALL {
        let store = build_store(system, xml).unwrap();
        let optimized = run_with(store.as_ref(), q, PlanMode::Optimized);
        let naive = run_with(store.as_ref(), q, PlanMode::Naive);
        assert_eq!(optimized, naive, "{system}");
        assert_eq!(optimized, "<n c=\"1\"/>\n<n c=\"1\"/>", "{system}");
    }
}
