//! Pull-count golden: the number of items each of Q1–Q20 pulls through
//! the executor's operator cursors, pinned exactly on all eight backends.
//!
//! `query.pulls_per_item` is the executor's work counter: an executor
//! change that keeps every output byte but walks more (or fewer) items,
//! or moves work between the cold first execution (which builds and
//! publishes the loop-invariant paths) and the warm ones, shows here.
//! The protocol is fixed: a fresh store per system, queries in order
//! Q1..Q20, each compiled and drained twice through [`ResultStream`].
//! The table records `(items, cold pulls, warm pulls)`.

use xmark::prelude::*;

const FACTOR: f64 = 0.002;

/// `(query, items, cold pulls, warm pulls)`.
type Row = (usize, usize, u64, u64);

/// The rows of A, B, D, E and H, which plan every query alike.
const GOLDEN: [Row; 20] = [
    (1, 1, 5, 5),
    (2, 24, 75, 50),
    (3, 5, 96, 96),
    (4, 0, 86, 86),
    (5, 1, 67, 28),
    (6, 1, 2, 1),
    (7, 1, 1, 1),
    (8, 51, 262, 172),
    (9, 51, 256, 230),
    (10, 2, 855, 521),
    (11, 51, 294, 221),
    (12, 17, 171, 92),
    (13, 4, 18, 12),
    (14, 31, 160, 117),
    (15, 3, 99, 3),
    (16, 2, 89, 89),
    (17, 32, 102, 102),
    (18, 8, 32, 32),
    (19, 43, 216, 172),
    (20, 1, 297, 166),
];

/// The rows where a plan family departs from [`GOLDEN`]: C answers the
/// `…/text()` tails of Q1, Q15 and Q16 from its inlined entity columns
/// instead of the child-value index; F and G, which have no `@id`
/// index, scan the people for Q1.
const DEPARTURES: [(&[SystemId], &[Row]); 2] = [
    (
        &[SystemId::C],
        &[(1, 1, 4, 4), (15, 3, 96, 3), (16, 2, 96, 96)],
    ),
    (&[SystemId::F, SystemId::G], &[(1, 1, 56, 56)]),
];

/// The golden table of `system`: [`GOLDEN`] with its family's departures.
fn golden(system: SystemId) -> Vec<Row> {
    let mut rows = GOLDEN.to_vec();
    for (systems, departures) in DEPARTURES {
        if systems.contains(&system) {
            for row in departures {
                rows[row.0 - 1] = *row;
            }
        }
    }
    rows
}

fn drain(mut s: ResultStream<'_>) -> (usize, u64) {
    let mut items = 0;
    while let Some(r) = s.next_item() {
        r.expect("query runs");
        items += 1;
    }
    (items, s.pulls())
}

fn measure(system: SystemId, xml: &str) -> Vec<Row> {
    let store = build_store(system, xml).expect("store loads");
    let store = store.as_ref();
    ALL_QUERIES
        .iter()
        .map(|q| {
            let c = compile(q.text, store).expect("query compiles");
            let (items, cold) = drain(stream(&c, store));
            let (again, warm) = drain(stream(&c, store));
            assert_eq!(items, again, "Q{}: warm drain changed the result", q.number);
            (q.number, items, cold, warm)
        })
        .collect()
}

#[test]
fn pull_counts_match_the_golden_table() {
    let doc = generate_document(FACTOR);
    for system in SystemId::EXTENDED {
        let measured = measure(system, &doc.xml);
        assert_eq!(
            measured,
            golden(system),
            "{system}: measured (query, items, cold pulls, warm pulls)"
        );
    }
}
