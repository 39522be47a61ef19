//! Table 3 reproduction: the thirteen reported queries (Q1–Q3, Q5–Q12,
//! Q17, Q20) across all six mass-storage systems, in milliseconds, plus
//! two in-text observations of §7: the Q15/Q16 ratio ("Systems A, B and
//! C needed about 8 times longer to execute Q16 than … Q15") and Q10's
//! output volume.
//!
//! ```text
//! cargo run --release -p xmark-bench --bin table3_queries [--factor 0.05]
//! ```

use std::cmp::Reverse;

use xmark::prelude::*;
use xmark_bench::{Finding, TextTable};

/// §7: "about 8 times longer" for Q16 than for Q15 on Systems A–C.
const PAPER_Q16_OVER_Q15: f64 = 8.0;
/// §7: Q10 produces "more than 10 MB" of output at factor 1.0.
const PAPER_Q10_OUTPUT_BYTES_PER_FACTOR: f64 = 10e6;

fn main() {
    let factor = xmark_bench::factor_from_args(0.05);
    println!("== Table 3: query performance in ms (factor {factor}) ==\n");

    // Q15 and Q16 ride along under the same protocol for the §7 ratio.
    let report = Benchmark::at_factor(factor)
        .systems(&SystemId::MASS_STORAGE)
        .queries(TABLE3_QUERIES.into_iter().chain([15, 16]))
        .warmups(1)
        .run();
    println!(
        "document: {} — measured {} queries on six stores",
        xmark_bench::human_bytes(report.document.xml.len()),
        TABLE3_QUERIES.len()
    );
    let total =
        |system: SystemId, q: usize| report.measurement(system, q).expect("measured").total();

    let mut header = vec!["Query".to_string()];
    header.extend(report.systems().map(|s| format!("{s:?}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    for q in TABLE3_QUERIES {
        let mut row = vec![format!("Q {q}")];
        row.extend(report.systems().map(|s| xmark_bench::ms(total(s, q))));
        table.row(row);
    }
    println!("{}", table.render());

    println!("paper's Table 3 (factor 1.0, ms) for shape comparison:");
    println!("  Q1   A 689  B 784  C 257  D 120  E 1597  F 2814");
    println!("  Q3   A 41030  B 6389  C 1942  D 3900  E 4630  F 8074");
    println!("  Q6   A 293  B 331  C 509  D 10  E 336  F 508");
    println!("  Q10  A 3414285  B 86886  C 1568  D 22000  E 54721  F 69422");
    println!("  Q11  A 205675  B 2551760  C 2533738  D 8700  E 602223  F 741730");

    println!("\n== §7 in-text observations ==\n");
    let relational = [SystemId::A, SystemId::B, SystemId::C];
    let q16_over_q15 =
        |s: SystemId| total(s, 16).as_secs_f64() / total(s, 15).as_secs_f64().max(1e-9);
    let mut extra = TextTable::new(&["System", "Q15 (ms)", "Q16 (ms)", "Q16/Q15"]);
    for system in relational {
        extra.row(vec![
            format!("{system:?}"),
            xmark_bench::ms(total(system, 15)),
            xmark_bench::ms(total(system, 16)),
            format!("{:.1}x", q16_over_q15(system)),
        ]);
    }
    println!("{}", extra.render());
    let q10 = report.measurement(SystemId::D, 10).expect("measured");
    println!(
        "Q10 output: {} across {} items",
        xmark_bench::human_bytes(q10.result_bytes),
        q10.result_items
    );

    let fastest = |q: usize| report.systems().min_by_key(|&s| total(s, q));
    let q10_to_q12_slowest = report.systems().all(|system| {
        let mut by_time = TABLE3_QUERIES.to_vec();
        by_time.sort_by_key(|&q| Reverse(total(system, q)));
        by_time[..3].iter().all(|q| (10..=12).contains(q))
    });
    let geo_mean = |system: SystemId| {
        let logs = TABLE3_QUERIES.map(|q| total(system, q).as_secs_f64().ln());
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    xmark_bench::print_findings(&[
        Finding::check(
            "Table 3",
            "D is fastest of A-F on Q6",
            fastest(6) == Some(SystemId::D),
        ),
        Finding::check(
            "Table 3",
            "D is fastest of A-F on Q7",
            fastest(7) == Some(SystemId::D),
        ),
        Finding::check(
            "Table 3",
            "C is fastest of A-F on Q2",
            fastest(2) == Some(SystemId::C),
        ),
        Finding::check(
            "Table 3",
            "C is fastest of A-F on Q3",
            fastest(3) == Some(SystemId::C),
        ),
        Finding::check(
            "Table 3",
            "Q10-Q12 are the three slowest queries on every system",
            q10_to_q12_slowest,
        ),
        Finding::check(
            "Table 3",
            "F is slower than E (geometric mean over the thirteen queries)",
            geo_mean(SystemId::F) > geo_mean(SystemId::E),
        ),
        Finding::check(
            "§7",
            format!(
                "Q16 takes at least {PAPER_Q16_OVER_Q15}x as long as Q15 on each of A, B and C"
            ),
            relational
                .into_iter()
                .all(|s| q16_over_q15(s) >= PAPER_Q16_OVER_Q15),
        ),
        Finding::check(
            "§7",
            "Q10's output exceeds 10 MB x factor",
            q10.result_bytes as f64 > PAPER_Q10_OUTPUT_BYTES_PER_FACTOR * factor,
        ),
    ]);
}
