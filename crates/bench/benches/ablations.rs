//! Architecture ablations from DESIGN.md.
//!
//! * `summary_count/*` — System D's structural summary vs a naive walk for
//!   `count(//tag)` (the paper's Q6/Q7 observation, isolated).
//! * `interval_descendants/*` — System E's tag-indexed stab join vs
//!   System F's interval scan for `//item` (the E-vs-F delta of Table 3).
//! * `positional_bidder/*` — System C's positional child index vs generic
//!   child enumeration for `bidder[1]` (the Q2/Q3 delta).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use xmark::prelude::*;
use xmark::store::{InlinedStore, IntervalStore, NaiveStore, PositionSpec, SummaryStore};

fn bench_summary_count(c: &mut Criterion) {
    let doc = generate_document(0.01);
    let summary = SummaryStore::load(&doc.xml).unwrap();
    let naive = NaiveStore::load(&doc.xml).unwrap();
    let mut group = c.benchmark_group("summary_count");
    group.bench_function("with_summary", |b| {
        b.iter(|| {
            summary.count_descendants_named(summary.root(), black_box("item"))
                + summary.count_descendants_named(summary.root(), black_box("email"))
        })
    });
    group.bench_function("naive_walk", |b| {
        b.iter(|| {
            naive.count_descendants_named(naive.root(), black_box("item"))
                + naive.count_descendants_named(naive.root(), black_box("email"))
        })
    });
    group.finish();
}

fn bench_interval_descendants(c: &mut Criterion) {
    let doc = generate_document(0.01);
    let indexed = IntervalStore::load_indexed(&doc.xml).unwrap();
    let scan = IntervalStore::load_scan(&doc.xml).unwrap();
    let mut group = c.benchmark_group("interval_descendants");
    group.bench_function("indexed_stab_join", |b| {
        b.iter(|| {
            indexed
                .descendants_named_iter(indexed.root(), black_box("keyword"))
                .count()
        })
    });
    group.bench_function("interval_scan", |b| {
        b.iter(|| {
            scan.descendants_named_iter(scan.root(), black_box("keyword"))
                .count()
        })
    });
    group.finish();
}

fn bench_positional_bidder(c: &mut Criterion) {
    let doc = generate_document(0.01);
    let inlined = InlinedStore::load(&doc.xml).unwrap();
    let auctions: Vec<_> = inlined
        .descendants_named_iter(inlined.root(), "open_auction")
        .collect();
    let mut group = c.benchmark_group("positional_bidder");
    group.bench_function("positional_index", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for &a in &auctions {
                if inlined
                    .positional_child(a, "bidder", PositionSpec::First(1))
                    .expect("C supports positional access")
                    .is_some()
                {
                    found += 1;
                }
            }
            found
        })
    });
    group.bench_function("generic_children", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for &a in &auctions {
                if inlined.children_named_iter(a, "bidder").next().is_some() {
                    found += 1;
                }
            }
            found
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_summary_count,
    bench_interval_descendants,
    bench_positional_bidder
);
criterion_main!(benches);
