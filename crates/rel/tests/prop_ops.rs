//! Property tests for the relational substrate: the total order on values
//! and hash-index lookups against brute-force scans.

use proptest::prelude::*;

use xmark_rel::{HashIndex, OrdValue, Table, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-100i64..100).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::str),
    ]
}

proptest! {
    #[test]
    fn ord_value_is_a_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
        let (a, b, c) = (OrdValue(a), OrdValue(b), OrdValue(c));
        // Antisymmetry.
        if a <= b && b <= a {
            prop_assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Totality.
        prop_assert!(a <= b || b <= a);
    }

    #[test]
    fn equal_ord_values_hash_equal(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let (a, b) = (OrdValue(a), OrdValue(b));
        if a == b || a.cmp(&b) == std::cmp::Ordering::Equal {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    #[test]
    fn indexes_agree_with_scans(
        keys in prop::collection::vec(arb_value(), 1..40),
        probe in arb_value(),
    ) {
        let mut t = Table::new("t", &["k"]);
        for k in &keys {
            t.insert(vec![k.clone()]);
        }
        let hash = HashIndex::build(&t, 0);
        let expected: Vec<usize> = t
            .scan()
            .filter(|(_, row)| {
                !row[0].is_null()
                    && !probe.is_null()
                    && OrdValue(row[0].clone()) == OrdValue(probe.clone())
            })
            .map(|(rid, _)| rid)
            .collect();
        prop_assert_eq!(hash.get(&probe).to_vec(), expected);
    }
}
