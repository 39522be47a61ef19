//! Optimizer oracle: every decision the planner makes (Lookup joins,
//! predicate pushdown, ID/positional/inlined access paths, summary
//! aggregates) must be *semantically invisible* —
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
    match (&executed, stream(&compiled, store).write_to(&mut sunk)) {
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
    // Lookup.
    let xml = r#"<site><l><x k="a"/><x k="a"/><x k="b"/></l><r><y k="a"/><y k="a"/><y k="c"/></r></site>"#;
    let q = r#"for $l in document("d")/site/l/x, $r in document("d")/site/r/y
               where $l/@k = $r/@k
               return <pair l="{$l/@k}" r="{$r/@k}"/>"#;
    // The range form: every left key at most its right partner, as
    // text — "a" reaches both "a"s and "c", "b" only "c".
    let range = r#"for $l in document("d")/site/l/x, $r in document("d")/site/r/y
                   where $l/@k <= $r/@k
                   return <pair l="{$l/@k}" r="{$r/@k}"/>"#;
    for system in SystemId::EXTENDED {
        let store = build_store(system, xml).unwrap();
        // 2 left "a" × 2 right "a" = 4 pairs; 2 × 3 + 1 = 7 for `<=`.
        for (text, pairs) in [(q, 4), (range, 7)] {
            assert!(compile(text, store.as_ref())
                .unwrap()
                .explain()
                .contains("Lookup"));
            let optimized = run_with(store.as_ref(), text, PlanMode::Optimized);
            let naive = run_with(store.as_ref(), text, PlanMode::Naive);
            assert_eq!(optimized, naive, "{system}: {text}");
            assert_eq!(optimized.lines().count(), pairs, "{system}: {text}");
        }
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
    for system in SystemId::EXTENDED {
        let store = build_store(system, xml).unwrap();
        let optimized = run_with(store.as_ref(), q, PlanMode::Optimized);
        let naive = run_with(store.as_ref(), q, PlanMode::Naive);
        assert_eq!(optimized, naive, "{system}");
        assert_eq!(optimized, "<n c=\"1\"/>\n<n c=\"0\"/>", "{system}");
    }
    // More outer keys: a sequence that reaches `t2` twice and `t1` after
    // it (each match emitted once, in source order), an empty one, and a
    // NaN, which equals nothing — not even the source's own NaN.
    let xml = concat!(
        r#"<site><p><r k="t2"/><r k="t1"/><r k="t2"/></p><p/><p><r k="NaN"/></p>"#,
        r#"<t ref="t1"/><t ref="t2"/><t ref="NaN"/><t ref="t3"/></site>"#
    );
    let q = r#"for $p in document("d")/site/p
               let $a := for $t in document("d")/site/t
                         where $t/@ref = $p/r/@k
                         return <hit ref="{$t/@ref}"/>
               return <n>{$a}</n>"#;
    let expected = concat!(r#"<n><hit ref="t1"/><hit ref="t2"/></n>"#, "\n<n/>\n<n/>");
    // The same outer keys under `>`: "t2" and "t3" exceed some key, each
    // emitted once; the NaN outer still compares as the text "NaN" with
    // the keys that are not numbers, and below every "t…" — but not with
    // the source's own NaN, a number.
    let range = q.replace("$t/@ref = $p/r/@k", "$t/@ref > $p/r/@k");
    let range_expected = concat!(
        r#"<n><hit ref="t2"/><hit ref="t3"/></n>"#,
        "\n<n/>\n",
        r#"<n><hit ref="t1"/><hit ref="t2"/><hit ref="t3"/></n>"#
    );
    for system in SystemId::EXTENDED {
        let store = build_store(system, xml).unwrap();
        for (text, expected) in [(q, expected), (range.as_str(), range_expected)] {
            let compiled = compile(text, store.as_ref()).unwrap();
            assert!(compiled.explain().contains("Lookup"), "{system}");
            let optimized = run_with(store.as_ref(), text, PlanMode::Optimized);
            let naive = run_with(store.as_ref(), text, PlanMode::Naive);
            assert_eq!(optimized, naive, "{system}: {text}");
            assert_eq!(optimized, expected, "{system}: {text}");
        }
    }
    // An empty source: the nested loop never evaluates the `where`, so
    // an outer side that would raise is never evaluated by the Lookup
    // either, under any operator.
    let xml = r#"<site><people><person><x/><x/></person></people><closed_auctions/></site>"#;
    for op in ["=", "<", ">="] {
        let q = format!(
            r#"for $p in /site/people/person
               let $a := for $t in /site/closed_auctions/closed_auction
                         where $t/buyer/@person {op} zero-or-one($p/x)
                         return $t
               return count($a)"#
        );
        for system in SystemId::EXTENDED {
            let store = build_store(system, xml).unwrap();
            let store = store.as_ref();
            assert!(
                compile(&q, store).unwrap().explain().contains("Lookup"),
                "{system}"
            );
            for mode in [PlanMode::Optimized, PlanMode::Naive] {
                assert_eq!(
                    run_streamed(store, &q, mode),
                    Ok("0".to_string()),
                    "{system}: {mode:?}: {q}"
                );
            }
        }
    }
}

#[test]
fn lookup_takes_only_the_first_conjunct_at_its_depth() {
    // Two closed auctions, neither with five `<y>`, and a person with two
    // `<x>`: the nested loop evaluates `count($t/y) = 5` first and never
    // reaches the comparison, whose outer side would raise. A Lookup
    // evaluates its outer side on every open, so the comparison stays a
    // filter there. Written first, it is evaluated, raises in both
    // modes, and becomes the Lookup.
    let xml = concat!(
        r#"<site><people><person><x/><x/></person></people><closed_auctions>"#,
        r#"<closed_auction><buyer person="a"/></closed_auction>"#,
        r#"<closed_auction><buyer person="b"/></closed_auction></closed_auctions></site>"#
    );
    let (guard, key) = ("count($t/y) = 5", "$t/buyer/@person = zero-or-one($p/x)");
    for (conjuncts, expected, lookup) in [
        (format!("{guard} and {key}"), Ok("0".to_string()), false),
        (
            format!("{key} and {guard}"),
            Err(EvalError::Cardinality("zero-or-one")),
            true,
        ),
    ] {
        let q = format!(
            r#"for $p in /site/people/person
               let $a := for $t in /site/closed_auctions/closed_auction
                         where {conjuncts}
                         return $t
               return count($a)"#
        );
        for system in SystemId::EXTENDED {
            let store = build_store(system, xml).unwrap();
            let store = store.as_ref();
            let plan = compile(&q, store).unwrap().explain();
            assert_eq!(plan.contains("Lookup"), lookup, "{system}:\n{plan}");
            for mode in [PlanMode::Optimized, PlanMode::Naive] {
                assert_eq!(
                    run_streamed(store, &q, mode),
                    expected,
                    "{system}: {mode:?}: {q}"
                );
            }
        }
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
    for system in SystemId::EXTENDED {
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

    // The ordered operators, with the key (`$r`'s) on either side, over
    // numbers, padded numbers, words, NaN, ±INF, -0 and empty keys: two
    // numbers compare as numbers, every other pair as trimmed text.
    let xml = concat!(
        r#"<site><l><x k="  a  "/><x k="-0"/><x k="NaN"/><x k="40.0"/><x k=" 7 "/>"#,
        r#"<x k="INF"/><x k="abc"/><x k="-INF"/><x k=""/></l>"#,
        r#"<r><y k="a"/><y k="0"/><y k="NaN"/><y k="40"/><y k="  12.5"/><y k="INF"/>"#,
        r#"<y k="b"/><y k="-3"/><y/><y k=""/><y k="40"/></r></site>"#
    );
    let ordered = ["<", "<=", ">", ">="];
    let mut texts = Vec::new();
    for op in ordered.iter().chain(&["="]) {
        for (lhs, rhs) in [
            ("$l/@k", "$r/@k"),
            ("$r/@k", "$l/@k"),
            ("$l/@k", "2 * $r/@k"),
        ] {
            texts.push(format!(
                r#"for $l in document("d")/site/l/x, $r in document("d")/site/r/y
                   where {lhs} {op} {rhs}
                   return <pair l="{{$l/@k}}" r="{{$r/@k}}"/>"#
            ));
        }
    }
    for system in SystemId::EXTENDED {
        let store = build_store(system, xml).unwrap();
        let store = store.as_ref();
        for text in &texts {
            let plan = compile(text, store).unwrap().explain();
            assert!(plan.contains("For $r in Lookup"), "{system}:\n{plan}");
            let optimized = run_with(store, text, PlanMode::Optimized);
            let naive = run_with(store, text, PlanMode::Naive);
            assert_eq!(optimized, naive, "{system}: {text}");
            assert!(!optimized.is_empty(), "{system}: {text}");
        }
    }

    // Q11 and Q12, and their other operators and sides, on a document
    // made of edge cases: incomes that are padded, words (`abc` matches
    // through the text fallback), NaN, INF, -0, empty, missing, or two
    // per person; initials that are words, empty, two text nodes, INF,
    // -0, NaN and repeated values.
    let xml = concat!(
        r#"<site><people>"#,
        r#"<person id="p0"><name>a</name><profile income="95000.00"/></person>"#,
        r#"<person id="p1"><name>b</name><profile income=" 60000 "/><profile income="abc"/></person>"#,
        r#"<person id="p2"><name>c</name><profile income="abc"/></person>"#,
        r#"<person id="p3"><name>d</name><profile income="NaN"/></person>"#,
        r#"<person id="p4"><name>e</name><profile income="INF"/></person>"#,
        r#"<person id="p5"><name>f</name><profile income="-0"/></person>"#,
        r#"<person id="p6"><name>g</name></person>"#,
        r#"<person id="p7"><name>h</name><profile income=""/></person>"#,
        r#"</people><open_auctions>"#,
        r#"<open_auction><initial>10.00</initial></open_auction>"#,
        r#"<open_auction><initial> 7 </initial></open_auction>"#,
        r#"<open_auction><initial>abc</initial></open_auction>"#,
        r#"<open_auction><initial>1<b/>2</initial></open_auction>"#,
        r#"<open_auction><initial/></open_auction>"#,
        r#"<open_auction><initial>INF</initial></open_auction>"#,
        r#"<open_auction><initial>-0</initial></open_auction>"#,
        r#"<open_auction><initial>NaN</initial></open_auction>"#,
        r#"<open_auction><initial>10</initial></open_auction>"#,
        r#"<open_auction><initial>-INF</initial></open_auction>"#,
        r#"</open_auctions></site>"#
    );
    let join = "$p/profile/@income > 5000 * $i/text()";
    let mut texts = vec![query(11).text.to_string(), query(12).text.to_string()];
    for op in ordered.iter().chain(&["="]) {
        for cond in [
            format!("$p/profile/@income {op} 5000 * $i/text()"),
            format!("5000 * $i/text() {op} $p/profile/@income"),
            format!("-$i/text() div 2 {op} $p/profile/@income"),
        ] {
            texts.push(
                query(11)
                    .text
                    .replace(join, &cond)
                    .replace("{count($l)}", "{$l}"),
            );
        }
    }
    for system in SystemId::EXTENDED {
        let store = build_store(system, xml).unwrap();
        let store = store.as_ref();
        for text in &texts {
            let plan = compile(text, store).unwrap().explain();
            assert!(plan.contains("For $i in Lookup"), "{system}:\n{plan}");
            let optimized = run_with(store, text, PlanMode::Optimized);
            let naive = run_with(store, text, PlanMode::Naive);
            assert_eq!(optimized, naive, "{system}: {text}");
        }
        assert!(
            compile(query(11).text, store)
                .unwrap()
                .explain()
                .contains("Lookup 5000 * $i/text() < $p/profile/@income"),
            "{system}: Q11 probes with the mirrored operator"
        );
        // "abc" is above every key's text and "INF" above every number
        // but INF; `b` counts each initial its two incomes reach once.
        assert_eq!(
            run_with(store, query(11).text, PlanMode::Optimized),
            concat!(
                r#"<items name="a">5</items>"#,
                "\n",
                r#"<items name="b">7</items>"#,
                "\n",
                r#"<items name="c">7</items>"#,
                "\n",
                r#"<items name="d">0</items>"#,
                "\n",
                r#"<items name="e">5</items>"#,
                "\n",
                r#"<items name="f">1</items>"#,
                "\n",
                r#"<items name="g">0</items>"#,
                "\n",
                r#"<items name="h">0</items>"#
            ),
            "{system}"
        );
        // Arithmetic is lenient: a word, an empty initial and one with
        // two text nodes make the key empty, not an error.
        let keys = r#"for $i in /site/open_auctions/open_auction/initial
                      return <k>{5000 * $i/text()}</k>"#;
        assert_eq!(
            run_with(store, keys, PlanMode::Naive),
            "<k>50000</k>\n<k>35000</k>\n<k/>\n<k/>\n<k/>\n<k>INF</k>\n<k>0</k>\n<k>NaN</k>\n<k>50000</k>\n<k>-INF</k>",
            "{system}"
        );
    }
}

#[test]
fn lookups_match_per_pair_evaluation() {
    // Q9's shape: `$t` probes with the outer scope's `$p/@id`, `$e` with
    // the earlier clause's `$t/@item`; both Lookups must keep exactly the
    // pairs the naive per-pair evaluation keeps.
    let xml = concat!(
        r#"<site><p id="p1"/><p id="p2"/>"#,
        r#"<t item="i1" owner="p1"/><t item="i1" owner="p2"/><t item="i9" owner="p1"/>"#,
        r#"<e id="i1"/><e id="i2"/><x n="a"/><x n="skip"/><x n="b"/></site>"#
    );
    let q = r#"for $p in document("d")/site/p
               let $a := for $t in document("d")/site/t, $e in document("d")/site/e
                         where $t/@item = $e/@id and $t/@owner = $p/@id
                         return $e
               return <n c="{count($a)}"/>"#;
    // Three clauses: the outer-scope probe on the first, a filtered
    // cross product in the middle, and an earlier-clause probe on the
    // last, which skips over the middle clause to `$t`.
    let three = r#"for $p in document("d")/site/p
                   let $a := for $t in document("d")/site/t, $x in document("d")/site/x,
                                 $e in document("d")/site/e
                             where $t/@owner = $p/@id and $e/@id = $t/@item and $x/@n != "skip"
                             return <hit x="{$x/@n}" e="{$e/@id}"/>
                   return <n>{$a}</n>"#;
    let three_expected = concat!(
        r#"<n><hit e="i1" x="a"/><hit e="i1" x="b"/></n>"#,
        "\n",
        r#"<n><hit e="i1" x="a"/><hit e="i1" x="b"/></n>"#
    );
    // A source estimated to hold one item gains nothing from an index:
    // it stays a plain nested loop wherever the backend estimates.
    let singleton = r#"for $p in document("d")/site/p
                       let $a := for $s in document("d")/site
                                 where $s/p/@id = $p/@id
                                 return $s
                       return <n c="{count($a)}"/>"#;
    let mut estimated = 0;
    for system in SystemId::EXTENDED {
        let store = build_store(system, xml).unwrap();
        let store = store.as_ref();
        for (text, expected) in [
            (q, "<n c=\"1\"/>\n<n c=\"1\"/>"),
            (three, three_expected),
            (singleton, "<n c=\"1\"/>\n<n c=\"1\"/>"),
        ] {
            let optimized = run_with(store, text, PlanMode::Optimized);
            let naive = run_with(store, text, PlanMode::Naive);
            assert_eq!(optimized, naive, "{system}: {text}");
            assert_eq!(optimized, expected, "{system}: {text}");
        }
        let plan = compile(three, store).unwrap().explain();
        assert_eq!(plan.matches("Lookup").count(), 2, "{system}:\n{plan}");
        assert!(
            plan.contains("Lookup $e/@id = $t/@item"),
            "{system}:\n{plan}"
        );
        let plan = compile(singleton, store).unwrap().explain();
        if plan.contains("PathScan /site ~1") {
            assert!(!plan.contains("Lookup"), "{system}:\n{plan}");
            estimated += 1;
        }
    }
    assert!(estimated > 0, "no backend estimated the singleton source");
}

/// The selection document: persons whose profile incomes are a number,
/// a padded number, a word, NaN, `-0`, empty, missing, two values (10
/// and 200000) and a band edge; `limit` holds a loop-invariant outer
/// value, and `nothing` an empty source.
const SELECTIONS: &str = concat!(
    r#"<site><limit v="60000"/><people>"#,
    r#"<person id="p0"><profile income="95000.00"/></person>"#,
    r#"<person id="p1"><profile income=" 60000 "/></person>"#,
    r#"<person id="p2"><profile income="abc"/></person>"#,
    r#"<person id="p3"><profile income="NaN"/></person>"#,
    r#"<person id="p4"><profile income="-0"/></person>"#,
    r#"<person id="p5"><profile income=""/></person>"#,
    r#"<person id="p6"><profile/></person>"#,
    r#"<person id="p7"><profile income="10"/><profile income="200000"/></person>"#,
    r#"<person id="p8"><profile income="30000"/></person>"#,
    r#"</people><nothing/></site>"#
);

/// One selection in its three spellings: `count(S[p])`,
/// `for $v in S[p]` and `for $v in S where p`, with `{K}` in `cond`
/// standing for the key path relative to the selected person.
fn spellings(cond: &str) -> [String; 3] {
    let rel = cond.replace("{K}", "profile/@income");
    let var = cond.replace("{K}", "$v/profile/@income");
    [
        format!("count(/site/people/person[{rel}])"),
        format!(r#"for $v in /site/people/person[{rel}] return <r id="{{$v/@id}}"/>"#),
        format!(r#"for $v in /site/people/person where {var} return <r id="{{$v/@id}}"/>"#),
    ]
}

#[test]
fn selections_match_the_naive_plan_in_every_spelling() {
    let outers = [
        "60000",
        "\"60000\"",
        "\"abc\"",
        "\"b\"",
        "/site/limit/@v",
        "-0",
    ];
    let mut conds = Vec::new();
    for op in ["=", "<", "<=", ">", ">="] {
        for outer in outers {
            conds.push((format!("{{K}} {op} {outer}"), "Lookup"));
            conds.push((format!("{outer} {op} {{K}}"), "Lookup"));
        }
    }
    // Two bounds on one key, each existential: p7's 10 and 200000 meet
    // `< 100000` and `>= 150000` one each.
    for two in [
        "{K} < 100000 and {K} >= 150000",
        "{K} >= 30000 and {K} < 100000",
        "100000 > {K} and {K} >= 30000",
        r#"{K} > "a" and {K} < "b""#,
    ] {
        conds.push((two.to_string(), " and $v/profile/@income"));
    }
    // Boolean predicates that move but probe nothing.
    for filter in [
        "empty({K})",
        "exists({K})",
        r#"not({K} = "abc")"#,
        r#"{K} = "abc" or {K} = 10"#,
        "{K} != 10",
    ] {
        conds.push((filter.to_string(), "Filter@1"));
    }
    for system in SystemId::EXTENDED {
        let store = build_store(system, SELECTIONS).unwrap();
        let store = store.as_ref();
        for (cond, shape) in &conds {
            let [count, source, clause] = spellings(cond);
            for text in [&count, &source, &clause] {
                let optimized = run_with(store, text, PlanMode::Optimized);
                let naive = run_with(store, text, PlanMode::Naive);
                assert_eq!(optimized, naive, "{system}: {text}");
            }
            let plan = compile(&source, store).unwrap().explain();
            assert!(plan.contains(shape), "{system}: {source}\n{plan}");
            let hits = run_with(store, &source, PlanMode::Optimized);
            assert_eq!(hits, run_with(store, &clause, PlanMode::Optimized));
            let counted = run_with(store, &count, PlanMode::Optimized);
            assert_eq!(
                counted,
                hits.lines().count().to_string(),
                "{system}: {cond}"
            );
        }
        let [_, two_bounds, _] = spellings("{K} < 100000 and {K} >= 150000");
        assert_eq!(
            run_with(store, &two_bounds, PlanMode::Optimized),
            r#"<r id="p7"/>"#,
            "{system}"
        );
    }
}

#[test]
fn selections_raise_as_the_nested_loop_does() {
    // Over an empty source the predicate is never evaluated, so an outer
    // side that would raise never is; over a non-empty one both plans
    // raise.
    let raising = "zero-or-one(/site/people/person)";
    let empty = [
        format!("count(/site/nothing/x[@a > {raising}])"),
        format!("for $v in /site/nothing/x[@a > {raising}] return $v"),
        format!("for $v in /site/nothing/x where $v/@a > {raising} return $v"),
    ];
    for system in SystemId::EXTENDED {
        let store = build_store(system, SELECTIONS).unwrap();
        let store = store.as_ref();
        for (text, expected) in empty.iter().zip(["0", "", ""]) {
            assert!(compile(text, store).unwrap().explain().contains("Lookup"));
            for mode in [PlanMode::Optimized, PlanMode::Naive] {
                assert_eq!(
                    run_streamed(store, text, mode),
                    Ok(expected.to_string()),
                    "{system}: {mode:?}: {text}"
                );
            }
        }
        for text in spellings(&format!("{{K}} > {raising}")) {
            for mode in [PlanMode::Optimized, PlanMode::Naive] {
                assert_eq!(
                    run_streamed(store, &text, mode),
                    Err(EvalError::Cardinality("zero-or-one")),
                    "{system}: {mode:?}: {text}"
                );
            }
        }
    }
}

#[test]
fn predicates_that_must_not_move_stay_on_their_step() {
    // Positional predicates, the ID probe, non-boolean tests, predicates
    // on a step before the last, predicates that never read the context
    // item or call a user function (whose body sees the caller's context
    // item), and a boolean predicate before a positional one: each stays
    // on its step, so the plan holds no Lookup and binds no `$#n`.
    let cases = [
        "/site/people/person[1]",
        "/site/people/person[last()]",
        r#"/site/people/person[@id = "p7"]"#,
        "/site/people/person[profile]",
        "/site/people/person[profile/@income > 50000]/profile",
        "/site/people/person[count(/site/people/person) > 3]",
        "/site/people/person[profile/@income > 50000][1]",
        "declare function local:f($x) { $x }; /site/people/person[local:f(profile/@income) > 5]",
        "declare function local:g() { profile/@income }; /site/people/person[local:g() > 5]",
    ];
    for system in SystemId::EXTENDED {
        let store = build_store(system, SELECTIONS).unwrap();
        let store = store.as_ref();
        for path in cases {
            let (decl, path) = path.rsplit_once("; ").unwrap_or(("", path));
            let decl = if decl.is_empty() {
                String::new()
            } else {
                format!("{decl}; ")
            };
            for text in [
                format!("{decl}count({path})"),
                format!(r#"{decl}for $v in {path} return <r id="{{$v/@id}}"/>"#),
            ] {
                let plan = compile(&text, store).unwrap().explain();
                assert!(
                    !plan.contains("Lookup") && !plan.contains("$#n"),
                    "{system}: {text}\n{plan}"
                );
                assert_eq!(
                    run_streamed(store, &text, PlanMode::Optimized),
                    run_streamed(store, &text, PlanMode::Naive),
                    "{system}: {text}"
                );
            }
        }
    }
}

#[test]
fn equivalent_spellings_plan_alike() {
    // A predicate on the `for` source and the same test as a `where`
    // conjunct compile to one EXPLAIN; a bare `S[p]` and its FLWOR
    // differ only in the bound variable's name. The join that a source
    // predicate used to cut off from the Lookup rule is among them.
    let pairs = [
        (
            "for $v in /site/people/person[profile/@income >= 60000] return $v/@id",
            "for $v in /site/people/person where $v/profile/@income >= 60000 return $v/@id",
        ),
        (
            "for $v in /site/people/person[profile/@income < 100000 and profile/@income >= 30000][empty(profile/@x)] return $v",
            "for $v in /site/people/person where $v/profile/@income < 100000 and $v/profile/@income >= 30000 and empty($v/profile/@x) return $v",
        ),
        (
            r#"for $v in /site/people/person[profile/@income = "abc"] where $v/@id != "p0" return $v"#,
            r#"for $v in /site/people/person where $v/profile/@income = "abc" and $v/@id != "p0" return $v"#,
        ),
        (
            r#"for $p in /site/people/person
               let $a := for $t in /site/closed_auctions/closed_auction[price > 100]
                         where $t/buyer/@person = $p/@id return $t
               return count($a)"#,
            r#"for $p in /site/people/person
               let $a := for $t in /site/closed_auctions/closed_auction
                         where $t/price > 100 and $t/buyer/@person = $p/@id return $t
               return count($a)"#,
        ),
        (
            "count(/site/people/person/profile[@income >= 100000])",
            "count(for $x in /site/people/person/profile where $x/@income >= 100000 return $x)",
        ),
    ];
    let doc = generate_document(0.002);
    for system in SystemId::EXTENDED {
        let store = build_store(system, &doc.xml).unwrap();
        let store = store.as_ref();
        for (predicate, clause) in pairs {
            let explain = |text: &str| compile(text, store).unwrap().explain();
            assert_eq!(
                explain(predicate).replace("$#n", "$x"),
                explain(clause),
                "{system}: {predicate}"
            );
            assert_eq!(
                run_with(store, predicate, PlanMode::Naive),
                run_with(store, clause, PlanMode::Optimized),
                "{system}: {predicate}"
            );
        }
    }
}
