//! Plan-snapshot golden tests: the `EXPLAIN` rendering of all twenty
//! benchmark queries, pinned for Systems A and E on the canonical
//! document (factor 0.002, seed 0).
//!
//! Any planner change — a different join strategy, a moved filter, a
//! gained or lost access-path annotation, a changed cardinality estimate
//! — shows up here as a readable diff, so plan regressions are visible in
//! review instead of only as runtime slowdowns. To update after an
//! intentional planner change, regenerate (render_all below is the
//! generator) and paste the new rendering.

use xmark::prelude::*;

/// Render all twenty plans for one system in the pinned format.
fn render_all(system: SystemId, xml: &str) -> String {
    let store = build_store(system, xml).unwrap();
    let mut out = String::new();
    for q in &ALL_QUERIES {
        let compiled = compile(q.text, store.as_ref()).unwrap();
        out.push_str(&format!("=== {:?} Q{} ===\n", system, q.number));
        out.push_str(&compiled.explain());
    }
    out
}

fn assert_explains_match(system: SystemId, expected: &str) {
    let doc = generate_document(0.002);
    let actual = render_all(system, &doc.xml);
    if actual != expected {
        // Print the divergent lines so the diff is reviewable from the
        // test log.
        for (a, e) in actual.lines().zip(expected.lines()) {
            if a != e {
                println!("- {e}");
                println!("+ {a}");
            }
        }
        panic!(
            "{system}: EXPLAIN output changed — if intentional, update the \
             golden in tests/explain.rs"
        );
    }
}

const EXPLAIN_A: &str = r#"=== A Q1 ===
Project $b/name/text()->vals("name")
  NestedLoop
    For $b in PathScan /site/people/person[./@id = "person0"]->id("person0") ~51
=== A Q2 ===
Project <increase>{$b/bidder[1]/increase/text()->vals("increase")}</increase>
  NestedLoop
    For $b in PathScan /site/open_auctions/open_auction ~24 [memo]
=== A Q3 ===
Project <increase first="{$b/bidder[1]/increase/text()->vals("increase")}" last="{$b/bidder[last()]/inc…
  NestedLoop
    For $b in PathScan /site/open_auctions/open_auction ~24 [memo]
    Filter@1 zero-or-one($b/bidder[1]/increase/text()->vals("increase")) * 2 <= $b/bidder[last()]/increase/t…
=== A Q4 ===
Project <history>{$b/reserve/text()->vals("reserve")}</history>
  NestedLoop
    For $b in PathScan /site/open_auctions/open_auction ~24 [memo]
    Filter@1 some $pr1 in $b/bidder/personref[./@person = "person20"], $pr2 in $b/bidder/personref[./@person…
=== A Q5 ===
Eval count(flwor(… return $i/price))
  Project $i/price
    NestedLoop
      For $i in PathScan /site/closed_auctions/closed_auction ~19 [memo]
      Filter@1 $i/price/text()->vals("price") >= 40
=== A Q6 ===
Project count($b//item)
  Aggregate count(//item) ~43 [idx]
    PathScan $b
  NestedLoop
    For $b in PathScan /site/regions ~1 [memo]
=== A Q7 ===
Project count($p//description) + count($p//annotation) + count($p//email)
  Aggregate count(//description) ~73 [idx]
    PathScan $p
  Aggregate count(//annotation) ~36 [idx]
    PathScan $p
  Aggregate count(//email) [idx]
    PathScan $p
  NestedLoop
    For $p in PathScan /site ~1 [memo]
=== A Q8 ===
Project <item person="{$p/name/text()->vals("name")}">{count($a)}</item>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Let $a in
      Project $t
        IndexLookup $t/buyer/@person = $p/@id ~19
          index $t [memo] in PathScan /site/closed_auctions/closed_auction ~19 [memo]
=== A Q9 ===
Project <person name="{$p/name/text()->vals("name")}">{$a}</person>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Let $a in
      Project <item>{$e/name/text()->vals("name")}</item>
        HashJoin $t/itemref/@item = $e/@id ~19x43
          probe $t in PathScan /site/closed_auctions/closed_auction ~19 [memo]
          build $e [memo] in PathScan /site/regions/europe/item ~43 [memo]
          Filter@probe $t/buyer/@person = $p/@id [memo]
=== A Q10 ===
Project <categorie>{(<id>{$i}</id>, $p)}</categorie>
  NestedLoop
    For $i in distinct-values(/site/people/person/profile/interest/@category)
    Let $p in
      Project <personne><statistiques><sexe>{$t/profile/gender/text()->vals("gender")}</sexe><age>{$t/profile…
        IndexLookup $t/profile/interest/@category = $i ~51
          index $t [memo] in PathScan /site/people/person ~51 [memo]
=== A Q11 ===
Project <items name="{$p/name/text()->vals("name")}">{count($l)}</items>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Let $l in
      Project $i
        NestedLoop
          For $i in PathScan /site/open_auctions/open_auction/initial ~24 [memo]
          Filter@1 $p/profile/@income > 5000 * $i/text()
=== A Q12 ===
Project <items person="{$p/name/text()->vals("name")}">{count($l)}</items>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Filter@1 $p/profile/@income > 50000
    Let $l in
      Project $i
        NestedLoop
          For $i in PathScan /site/open_auctions/open_auction/initial ~24 [memo]
          Filter@1 $p/profile/@income > 5000 * $i/text()
=== A Q13 ===
Project <item name="{$i/name/text()->vals("name")}">{$i/description}</item>
  NestedLoop
    For $i in PathScan /site/regions/australia/item ~43 [memo]
=== A Q14 ===
Project $i/name/text()->vals("name")
  NestedLoop
    For $i in PathScan /site//item->idx ~43 [memo]
    Filter@1 contains(string($i/description), "gold")
=== A Q15 ===
Project <text>{$a}</text>
  NestedLoop
    For $a in PathScan /site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()->vals("keyword") ~119 [memo]
=== A Q16 ===
Project <person id="{$a/seller/@person}"/>
  NestedLoop
    For $a in PathScan /site/closed_auctions/closed_auction ~19 [memo]
    Filter@1 not(empty($a/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()-…
=== A Q17 ===
Project <person name="{$p/name/text()->vals("name")}"/>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Filter@1 empty($p/homepage/text()->vals("homepage"))
=== A Q18 ===
Function local:convert($v)
  Eval 2.20371 * $v
Project local:convert(zero-or-one($i/reserve/text()->vals("reserve")))
  NestedLoop
    For $i in PathScan /site/open_auctions/open_auction ~24 [memo]
=== A Q19 ===
Project <item name="{$k}">{$b/location/text()->vals("location")}</item>
  Sort zero-or-one($b/location) ascending
    NestedLoop
      For $b in PathScan /site/regions//item->idx ~43 [memo]
      Let $k in PathScan $b/name/text()->vals("name") ~96
=== A Q20 ===
Eval <result><preferred>{count(/site/people/person/profile[./@income >= 100000])}</preferred><standa…
  Project $p
    NestedLoop
      For $p in PathScan /site/people/person ~51 [memo]
      Filter@1 empty($p/profile/@income)
"#;

const EXPLAIN_E: &str = r#"=== E Q1 ===
Project $b/name/text()->vals("name")
  NestedLoop
    For $b in PathScan /site/people/person[./@id = "person0"]->id("person0") ~51
=== E Q2 ===
Project <increase>{$b/bidder[1]/increase/text()->vals("increase")}</increase>
  NestedLoop
    For $b in PathScan /site/open_auctions/open_auction ~24 [memo]
=== E Q3 ===
Project <increase first="{$b/bidder[1]/increase/text()->vals("increase")}" last="{$b/bidder[last()]/inc…
  NestedLoop
    For $b in PathScan /site/open_auctions/open_auction ~24 [memo]
    Filter@1 zero-or-one($b/bidder[1]/increase/text()->vals("increase")) * 2 <= $b/bidder[last()]/increase/t…
=== E Q4 ===
Project <history>{$b/reserve/text()->vals("reserve")}</history>
  NestedLoop
    For $b in PathScan /site/open_auctions/open_auction ~24 [memo]
    Filter@1 some $pr1 in $b/bidder/personref[./@person = "person20"], $pr2 in $b/bidder/personref[./@person…
=== E Q5 ===
Eval count(flwor(… return $i/price))
  Project $i/price
    NestedLoop
      For $i in PathScan /site/closed_auctions/closed_auction ~19 [memo]
      Filter@1 $i/price/text()->vals("price") >= 40
=== E Q6 ===
Project count($b//item)
  Aggregate count(//item) ~43 [summary]
    PathScan $b
  NestedLoop
    For $b in PathScan /site/regions ~1 [memo]
=== E Q7 ===
Project count($p//description) + count($p//annotation) + count($p//email)
  Aggregate count(//description) ~73 [summary]
    PathScan $p
  Aggregate count(//annotation) ~36 [summary]
    PathScan $p
  Aggregate count(//email) [summary]
    PathScan $p
  NestedLoop
    For $p in PathScan /site ~1 [memo]
=== E Q8 ===
Project <item person="{$p/name/text()->vals("name")}">{count($a)}</item>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Let $a in
      Project $t
        IndexLookup $t/buyer/@person = $p/@id ~19
          index $t [memo] in PathScan /site/closed_auctions/closed_auction ~19 [memo]
=== E Q9 ===
Project <person name="{$p/name/text()->vals("name")}">{$a}</person>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Let $a in
      Project <item>{$e/name/text()->vals("name")}</item>
        HashJoin $t/itemref/@item = $e/@id ~19x43
          probe $t in PathScan /site/closed_auctions/closed_auction ~19 [memo]
          build $e [memo] in PathScan /site/regions/europe/item ~43 [memo]
          Filter@probe $t/buyer/@person = $p/@id [memo]
=== E Q10 ===
Project <categorie>{(<id>{$i}</id>, $p)}</categorie>
  NestedLoop
    For $i in distinct-values(/site/people/person/profile/interest/@category)
    Let $p in
      Project <personne><statistiques><sexe>{$t/profile/gender/text()->vals("gender")}</sexe><age>{$t/profile…
        IndexLookup $t/profile/interest/@category = $i ~51
          index $t [memo] in PathScan /site/people/person ~51 [memo]
=== E Q11 ===
Project <items name="{$p/name/text()->vals("name")}">{count($l)}</items>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Let $l in
      Project $i
        NestedLoop
          For $i in PathScan /site/open_auctions/open_auction/initial ~24 [memo]
          Filter@1 $p/profile/@income > 5000 * $i/text()
=== E Q12 ===
Project <items person="{$p/name/text()->vals("name")}">{count($l)}</items>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Filter@1 $p/profile/@income > 50000
    Let $l in
      Project $i
        NestedLoop
          For $i in PathScan /site/open_auctions/open_auction/initial ~24 [memo]
          Filter@1 $p/profile/@income > 5000 * $i/text()
=== E Q13 ===
Project <item name="{$i/name/text()->vals("name")}">{$i/description}</item>
  NestedLoop
    For $i in PathScan /site/regions/australia/item ~43 [memo]
=== E Q14 ===
Project $i/name/text()->vals("name")
  NestedLoop
    For $i in PathScan /site//item ~43 [memo]
    Filter@1 contains(string($i/description), "gold")
=== E Q15 ===
Project <text>{$a}</text>
  NestedLoop
    For $a in PathScan /site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()->vals("keyword") ~119 [memo]
=== E Q16 ===
Project <person id="{$a/seller/@person}"/>
  NestedLoop
    For $a in PathScan /site/closed_auctions/closed_auction ~19 [memo]
    Filter@1 not(empty($a/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()-…
=== E Q17 ===
Project <person name="{$p/name/text()->vals("name")}"/>
  NestedLoop
    For $p in PathScan /site/people/person ~51 [memo]
    Filter@1 empty($p/homepage/text()->vals("homepage"))
=== E Q18 ===
Function local:convert($v)
  Eval 2.20371 * $v
Project local:convert(zero-or-one($i/reserve/text()->vals("reserve")))
  NestedLoop
    For $i in PathScan /site/open_auctions/open_auction ~24 [memo]
=== E Q19 ===
Project <item name="{$k}">{$b/location/text()->vals("location")}</item>
  Sort zero-or-one($b/location) ascending
    NestedLoop
      For $b in PathScan /site/regions//item ~43 [memo]
      Let $k in PathScan $b/name/text()->vals("name") ~96
=== E Q20 ===
Eval <result><preferred>{count(/site/people/person/profile[./@income >= 100000])}</preferred><standa…
  Project $p
    NestedLoop
      For $p in PathScan /site/people/person ~51 [memo]
      Filter@1 empty($p/profile/@income)
"#;

#[test]
fn explain_golden_system_a() {
    assert_explains_match(SystemId::A, EXPLAIN_A);
}

#[test]
fn explain_golden_system_e() {
    assert_explains_match(SystemId::E, EXPLAIN_E);
}

#[test]
fn backend_capabilities_show_up_in_plans() {
    let doc = generate_document(0.002);
    let xml = &doc.xml;
    let plan_for = |system: SystemId, text: &str| {
        let store = build_store(system, xml).unwrap();
        compile(text, store.as_ref()).unwrap().explain()
    };
    // System C's positional index and inlined columns annotate Q2's plan…
    let c_q2 = plan_for(SystemId::C, query(2).text);
    assert!(
        c_q2.contains("->pos(1)"),
        "C plans bidder[1] positionally:\n{c_q2}"
    );
    assert!(
        c_q2.contains("->inlined(\"increase\")"),
        "C plans increase/text() from entity columns:\n{c_q2}"
    );
    // `bidder[last()]` as a scan source (Q3 buries it in a truncated
    // filter line): the PathScan line carries the marker untruncated.
    let c_last = plan_for(
        SystemId::C,
        "for $x in /site/open_auctions/open_auction/bidder[last()] return $x",
    );
    assert!(
        c_last.contains("->pos(last)"),
        "C plans bidder[last()] positionally:\n{c_last}"
    );
    // …while System G (no capabilities) plans the same queries generically.
    let g_q2 = plan_for(SystemId::G, query(2).text);
    assert!(
        !g_q2.contains("->pos("),
        "G has no positional index:\n{g_q2}"
    );
    assert!(!g_q2.contains("->inlined("), "G inlines nothing:\n{g_q2}");
    // System F has neither an ID index nor statistics: no probe, no ~N.
    let f_q1 = plan_for(SystemId::F, query(1).text);
    assert!(!f_q1.contains("->id("), "F scans for Q1:\n{f_q1}");
    assert!(!f_q1.contains('~'), "F plans without estimates:\n{f_q1}");
    // Summary-backed counting is visible on D, absent on A.
    let d_q6 = plan_for(SystemId::D, query(6).text);
    assert!(
        d_q6.contains("[summary]"),
        "D counts from the summary:\n{d_q6}"
    );
    let a_q6 = plan_for(SystemId::A, query(6).text);
    assert!(!a_q6.contains("[summary]"), "A counts by walking:\n{a_q6}");
}

#[test]
fn naive_plans_contain_no_rewrites() {
    let doc = generate_document(0.002);
    let store = build_store(SystemId::E, &doc.xml).unwrap();
    for q in &ALL_QUERIES {
        let naive = compile_with_mode(q.text, store.as_ref(), PlanMode::Naive).unwrap();
        let rendered = naive.explain();
        for operator in [
            "HashJoin",
            "IndexLookup",
            "Aggregate",
            "->id(",
            "->pos(",
            "->inlined(",
            "->idx",
            "[idx]",
            "->vals(",
        ] {
            assert!(
                !rendered.contains(operator),
                "Q{}: naive plan must not contain {operator}:\n{rendered}",
                q.number
            );
        }
    }
}
