//! Property tests for sink serialization: on arbitrary constructed
//! sequences — store nodes, strings full of metacharacters, numbers
//! including the non-finite and huge-integral edge cases, booleans, and
//! recursively nested constructed elements — streaming the items into a
//! [`fmt::Write`] sink ([`write_sequence`], [`IoSink`]) must produce
//! exactly the bytes of the materializing [`serialize_sequence`].

use std::sync::Arc;

use proptest::prelude::*;

use xmark_query::result::{serialize_sequence, write_sequence, CElem, IoSink, Item};
use xmark_store::{NaiveStore, XmlStore};

fn fixture() -> NaiveStore {
    NaiveStore::load(
        r#"<site><people><person id="p&quot;0"><name>A &amp; B</name>
           <age>42</age></person><person id="p1"><name>C</name></person>
           </people></site>"#,
    )
    .expect("fixture parses")
}

/// Numbers that stress `format_number`: ordinary, integral, huge
/// integral (positional, not scientific), and non-finite.
fn arb_num() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e6..1.0e6f64,
        (-1000i64..1000i64).prop_map(|i| i as f64),
        Just(1e15),
        Just(-1e18),
        Just(1e19),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ]
}

/// Text with the XML metacharacters mixed in.
fn arb_text() -> impl Strategy<Value = String> {
    "[a-z<>&\" ]{0,16}"
}

fn arb_item(store: &NaiveStore) -> BoxedStrategy<Item> {
    // Every node of the fixture document is fair game. Node ids are
    // deterministic per document, so ids sampled here are valid in the
    // test body's own fixture instance.
    let nodes: Vec<xmark_store::Node> = {
        let mut all = Vec::new();
        let mut stack = vec![store.root()];
        while let Some(n) = stack.pop() {
            all.push(n);
            stack.extend(store.children_iter(n));
        }
        all
    };
    let leaf = prop_oneof![
        arb_text().prop_map(Item::str),
        arb_num().prop_map(Item::Num),
        any::<bool>().prop_map(Item::Bool),
        (0..nodes.len()).prop_map(move |i| Item::Node(nodes[i])),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            "[a-z]{1,6}",
            prop::collection::vec(("[a-z]{1,4}", arb_text()), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(tag, attrs, children)| {
                Item::Elem(Arc::new(CElem {
                    tag,
                    attrs,
                    children,
                }))
            })
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_sequence_matches_serialize_sequence(
        seq in prop::collection::vec(arb_item(&fixture()), 0..8)
    ) {
        let store = fixture();
        let expected = serialize_sequence(&store, &seq);

        // Into a fmt::Write sink …
        let mut sunk = String::new();
        write_sequence(&store, &seq, &mut sunk).unwrap();
        prop_assert_eq!(&sunk, &expected);

        // … and through the io::Write adapter, with an accurate byte
        // count.
        let mut io = IoSink::new(Vec::<u8>::new());
        write_sequence(&store, &seq, &mut io).unwrap();
        prop_assert!(io.take_error().is_none());
        prop_assert_eq!(io.bytes(), expected.len() as u64);
        prop_assert_eq!(String::from_utf8(io.into_inner()).unwrap(), expected);
    }
}
