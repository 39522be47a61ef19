//! Property tests: all seven storage architectures are *navigationally
//! equivalent* on arbitrary documents — same children, descendants,
//! attributes, string values and serializations. The query layer's
//! cross-backend equivalence rests on exactly these primitives. The
//! disk-resident eighth, H, is held to System E under pools of 2–8
//! frames, read by one thread and by two sharing the pool.

use proptest::prelude::*;

use xmark_store::{build_store, PagedStore, SystemId, XmlStore};

const TAGS: [&str; 6] = ["site", "a", "b", "c", "item", "person"];

/// Generate a random well-formed XML document string by construction.
fn arb_document() -> impl Strategy<Value = String> {
    arb_elem(3).prop_map(|body| format!("<site>{body}</site>"))
}

fn arb_elem(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        "[a-z ]{1,12}".prop_filter("non-blank", |s| !s.trim().is_empty()),
        (0..TAGS.len(), proptest::option::of("[a-z0-9]{1,6}")).prop_map(|(t, attr)| {
            let tag = TAGS[t];
            match attr {
                Some(v) => format!("<{tag} id=\"{v}\"/>"),
                None => format!("<{tag}/>"),
            }
        }),
    ];
    leaf.prop_recursive(depth, 32, 4, |inner| {
        (0..TAGS.len(), prop::collection::vec(inner, 0..4)).prop_map(|(t, children)| {
            let tag = TAGS[t];
            format!("<{tag}>{}</{tag}>", children.concat())
        })
    })
    .boxed()
}

/// Elements that carry attributes *and* text (plus children), so one
/// read of the paged store touches its node, attribute and text extents
/// together; long enough values that a document spans several pages.
fn arb_rich_document() -> impl Strategy<Value = String> {
    let item = (
        0..TAGS.len(),
        prop::collection::vec("[a-z0-9&<\" ]{0,40}", 0..4),
        "[a-z ]{1,200}",
        prop::collection::vec(arb_elem(1), 0..3),
    )
        .prop_map(|(t, attrs, text, children)| {
            let tag = TAGS[t];
            let mut open = format!("<{tag}");
            for (name, value) in ["id", "kind", "lang", "rank"].iter().zip(&attrs) {
                open.push_str(&format!(" {name}=\""));
                xmark_xml::escape::escape_attr_into(value, &mut open);
                open.push('"');
            }
            format!("{open}>{text}{}</{tag}>", children.concat())
        });
    prop::collection::vec(item, 1..40).prop_map(|items| format!("<site>{}</site>", items.concat()))
}

/// H ≡ E on every per-node read of nodes `ids`: children (all and
/// named `tag`), descendants named `tag`, text, attributes, string
/// value and serialization.
fn paged_probes_agree(
    h: &PagedStore,
    e: &dyn XmlStore,
    tag: &str,
    ids: impl Iterator<Item = u32>,
) -> Result<(), TestCaseError> {
    for id in ids {
        let n = xmark_store::Node(id);
        prop_assert_eq!(
            h.children_iter(n).collect::<Vec<_>>(),
            e.children_iter(n).collect::<Vec<_>>(),
            "children of {}",
            n
        );
        prop_assert_eq!(
            h.children_named_iter(n, tag).collect::<Vec<_>>(),
            e.children_named_iter(n, tag).collect::<Vec<_>>(),
            "children_named of {}",
            n
        );
        prop_assert_eq!(
            h.descendants_named_iter(n, tag).collect::<Vec<_>>(),
            e.descendants_named_iter(n, tag).collect::<Vec<_>>(),
            "descendants_named of {}",
            n
        );
        // H copies text and attribute values off its pages; E lends
        // them. The contents must match either way.
        prop_assert_eq!(h.text(n), e.text(n), "text of {}", n);
        prop_assert_eq!(
            h.attributes_iter(n).collect::<Vec<_>>(),
            e.attributes_iter(n).collect::<Vec<_>>(),
            "attributes of {}",
            n
        );
        prop_assert_eq!(
            h.string_value(n),
            e.string_value(n),
            "string_value of {}",
            n
        );
        let (mut hs, mut es) = (String::new(), String::new());
        h.serialize_node_to(n, &mut hs).unwrap();
        e.serialize_node_to(n, &mut es).unwrap();
        prop_assert_eq!(hs, es, "serialize_node of {}", n);
    }
    Ok(())
}

fn stores(xml: &str) -> Vec<Box<dyn XmlStore>> {
    SystemId::ALL
        .iter()
        .map(|&s| build_store(s, xml).expect("document parses"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_stores_agree_on_descendants(xml in arb_document(), tag in 0..TAGS.len()) {
        let all = stores(&xml);
        let reference: Vec<u32> = all[0]
            .descendants_named_iter(all[0].root(), TAGS[tag])
            .map(|n| n.0)
            .collect();
        for store in &all[1..] {
            let got: Vec<u32> = store
                .descendants_named_iter(store.root(), TAGS[tag])
                .map(|n| n.0)
                .collect();
            prop_assert_eq!(&got, &reference, "{} disagrees", store.system());
        }
    }

    #[test]
    fn all_stores_agree_on_counts(xml in arb_document(), tag in 0..TAGS.len()) {
        let all = stores(&xml);
        let reference = all[0].count_descendants_named(all[0].root(), TAGS[tag]);
        for store in &all[1..] {
            prop_assert_eq!(
                store.count_descendants_named(store.root(), TAGS[tag]),
                reference,
                "{} disagrees",
                store.system()
            );
        }
    }

    #[test]
    fn all_stores_agree_on_serialization(xml in arb_document()) {
        let all = stores(&xml);
        let mut reference = String::new();
        all[0].serialize_node_to(all[0].root(), &mut reference).unwrap();
        for store in &all[1..] {
            let mut got = String::new();
            store.serialize_node_to(store.root(), &mut got).unwrap();
            prop_assert_eq!(&got, &reference, "{} disagrees", store.system());
        }
        // And the serialization parses back to the same node count.
        let reparsed = xmark_xml::parse_document(&reference).unwrap();
        prop_assert_eq!(reparsed.node_count(), all[0].node_count());
    }

    #[test]
    fn sink_serialization_matches_string_serialization(xml in arb_document()) {
        // `serialize_node_to` (the streaming-write primitive behind the
        // query layer's `write_to`) must produce the same bytes into a
        // `String` and into a sink that records write granularity, on
        // every backend and every element of the document — proving no
        // backend depends on buffering the whole subtree.
        struct CountingSink {
            out: String,
            writes: usize,
        }
        impl std::fmt::Write for CountingSink {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.writes += 1;
                self.out.push_str(s);
                Ok(())
            }
        }

        for store in stores(&xml) {
            let mut stack = vec![store.root()];
            while let Some(n) = stack.pop() {
                let mut expected = String::new();
                store.serialize_node_to(n, &mut expected).unwrap();
                let mut sink = CountingSink { out: String::new(), writes: 0 };
                store.serialize_node_to(n, &mut sink).unwrap();
                prop_assert_eq!(
                    &sink.out,
                    &expected,
                    "{} sink bytes diverge",
                    store.system()
                );
                prop_assert!(sink.writes >= 1, "nothing reached the sink");
                stack.extend(store.children_iter(n));
            }
        }
    }

    #[test]
    fn tiny_pool_paged_store_equals_the_interval_store(
        xml in arb_rich_document(),
        pool in 2usize..9,
        tag in 0..TAGS.len(),
    ) {
        // H's page-run reader may hold a node, a text and an attribute
        // page at once; a pool of two frames cannot, so every path must
        // also work by giving its cached pins up.
        let e = build_store(SystemId::E, &xml).expect("document parses");
        let h = PagedStore::load_temp(&xml, pool).expect("document parses");
        prop_assert_eq!(h.node_count(), e.node_count());
        paged_probes_agree(&h, e.as_ref(), TAGS[tag], 0..e.node_count() as u32)?;
    }

    #[test]
    fn tiny_pool_paged_store_equals_the_interval_store_from_two_threads(
        xml in arb_rich_document(),
        pool in 4usize..9,
        tag in 0..TAGS.len(),
    ) {
        // Two readers share one pool, so their hits race the other's
        // evictions. A pool of at least four frames leaves one free for
        // a reader that has given its pins up while the other holds its
        // three.
        let e = build_store(SystemId::E, &xml).expect("document parses");
        let h = PagedStore::load_temp(&xml, pool).expect("document parses");
        prop_assert_eq!(h.node_count(), e.node_count());
        let ids = 0..e.node_count() as u32;
        let (h, e, tag) = (&h, e.as_ref(), TAGS[tag]);
        let [forward, backward] = std::thread::scope(|s| {
            let forward = s.spawn(|| paged_probes_agree(h, e, tag, ids.clone()));
            let backward = s.spawn(|| paged_probes_agree(h, e, tag, ids.clone().rev()));
            [forward, backward].map(|t| t.join().expect("reader thread panicked"))
        });
        forward?;
        backward?;
    }

    #[test]
    fn all_stores_agree_on_string_values(xml in arb_document()) {
        let all = stores(&xml);
        let reference = all[0].string_value(all[0].root());
        for store in &all[1..] {
            prop_assert_eq!(
                store.string_value(store.root()),
                reference.clone(),
                "{} disagrees",
                store.system()
            );
        }
    }

    #[test]
    fn children_partition_matches_navigation(xml in arb_document()) {
        // children() of every element equals the concatenation of its
        // element and text children in document order, on every backend.
        let all = stores(&xml);
        let reference = &all[0];
        let ref_children: Vec<Vec<u32>> = reference
            .descendants_named_iter(reference.root(), "a")
            .map(|n| reference.children_iter(n).map(|c| c.0).collect())
            .collect();
        for store in &all[1..] {
            let got: Vec<Vec<u32>> = store
                .descendants_named_iter(store.root(), "a")
                .map(|n| store.children_iter(n).map(|c| c.0).collect())
                .collect();
            prop_assert_eq!(&got, &ref_children, "{} disagrees", store.system());
        }
    }

    #[test]
    fn parent_of_child_is_self(xml in arb_document()) {
        for store in stores(&xml) {
            let root = store.root();
            let mut stack = vec![root];
            while let Some(n) = stack.pop() {
                for c in store.children_iter(n) {
                    prop_assert_eq!(store.parent(c), Some(n), "{}", store.system());
                    stack.push(c);
                }
            }
            prop_assert_eq!(store.parent(root), None);
        }
    }

    #[test]
    fn streaming_axes_agree_across_all_backends(xml in arb_document(), tag in 0..TAGS.len()) {
        // The streaming cursors are the storage contract, and every
        // backend overrides them with its own native lazy walk, so the
        // oracle is cross-backend: on every element of the document, every
        // backend's cursors must yield exactly the node sequences (and
        // attribute pairs) the first backend reports. Counts must agree
        // with the streamed sequence too (System D answers them from pure
        // summary arithmetic).
        let tag = TAGS[tag];
        let all = stores(&xml);
        let reference = &all[0];
        let mut pending = vec![reference.root()];
        while let Some(n) = pending.pop() {
            let ref_children: Vec<u32> = reference.children_iter(n).map(|c| c.0).collect();
            let ref_named: Vec<u32> = reference.children_named_iter(n, tag).map(|c| c.0).collect();
            let ref_desc: Vec<u32> =
                reference.descendants_named_iter(n, tag).map(|c| c.0).collect();
            let ref_attrs: Vec<_> = reference.attributes_iter(n).collect();
            prop_assert_eq!(
                reference.count_descendants_named(n, tag),
                ref_desc.len(),
                "{} count_descendants_named",
                reference.system()
            );
            for store in &all[1..] {
                let children: Vec<u32> = store.children_iter(n).map(|c| c.0).collect();
                prop_assert_eq!(&children, &ref_children, "{} children_iter", store.system());

                let named: Vec<u32> = store.children_named_iter(n, tag).map(|c| c.0).collect();
                prop_assert_eq!(&named, &ref_named, "{} children_named_iter", store.system());

                let desc: Vec<u32> =
                    store.descendants_named_iter(n, tag).map(|c| c.0).collect();
                prop_assert_eq!(&desc, &ref_desc, "{} descendants_named_iter", store.system());
                prop_assert_eq!(
                    store.count_descendants_named(n, tag),
                    desc.len(),
                    "{} count_descendants_named",
                    store.system()
                );

                let attrs: Vec<_> = store.attributes_iter(n).collect();
                prop_assert_eq!(&attrs, &ref_attrs, "{} attributes_iter", store.system());
            }
            pending.extend(ref_children.into_iter().map(xmark_store::Node));
        }
    }

    #[test]
    fn element_index_postings_equal_descendant_walks(xml in arb_document(), tag in 0..TAGS.len()) {
        // The stabbing contract: on every backend and every element of a
        // random document, the shared element index's stabbed posting
        // slice must equal the native descendant cursor's output — same
        // nodes, same (document) order. This is what lets the planner
        // count a posting slice instead of a walk, and a transaction
        // snapshot scan the base's slices, without an output diff.
        let tag = TAGS[tag];
        for store in stores(&xml) {
            let store = store.as_ref();
            let index = store.indexes().element(store);
            prop_assert!(index.ordered(), "{} ids must be pre-order", store.system());
            let mut stack = vec![store.root()];
            while let Some(n) = stack.pop() {
                let walked: Vec<u32> = store
                    .descendants_named_iter(n, tag)
                    .map(|c| c.0)
                    .collect();
                let stabbed = index
                    .postings_in(tag, n)
                    .expect("ordered index always stabs");
                prop_assert_eq!(
                    stabbed,
                    &walked[..],
                    "{} postings diverge under node {}",
                    store.system(),
                    n
                );
                prop_assert_eq!(
                    index.count_in(tag, n),
                    Some(walked.len()),
                    "{} counts diverge",
                    store.system()
                );
                stack.extend(store.children_iter(n));
            }
        }
    }

    #[test]
    fn id_lookups_agree_where_supported(xml in arb_document(), probe in "[a-z0-9]{1,6}") {
        let all = stores(&xml);
        // Ground truth from a walk.
        let reference = &all[0];
        let mut truth = None;
        let mut stack = vec![reference.root()];
        while let Some(n) = stack.pop() {
            if reference.attribute(n, "id").as_deref() == Some(probe.as_str()) {
                // Random docs may repeat ids; only check single-match docs.
                if truth.is_some() {
                    return Ok(());
                }
                truth = Some(n.0);
            }
            stack.extend(reference.children_iter(n));
        }
        for store in &all {
            let hit = store.lookup_id(&probe).map(|n| n.0);
            prop_assert_eq!(hit, truth, "{} disagrees", store.system());
        }
    }
}
