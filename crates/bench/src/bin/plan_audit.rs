//! Plan-invariant audit: verify Q1–Q20 × all 8 backends × both plan
//! modes and print the per-invariant matrix.
//!
//! Every (query, backend, mode) cell compiles the query and runs the
//! post-optimizer verifier ([`xmark::query::verify`]), which re-derives
//! each structural invariant of the physical algebra — access-path
//! capabilities, the ordered element index behind indexed counts,
//! naive-plan purity, Lookup key canonicalization, Sort presence, cache
//! signatures, cardinality consistency and variable scoping — from the
//! live store and compares it with what the plan records. The exit code
//! is non-zero if any cell reports a violation, so CI can gate on it.
//!
//! ```text
//! cargo run --release -p xmark-bench --bin plan_audit [--factor F] [--smoke]
//! ```
//!
//! The full run (factor 0.01, all eight backends) is what CI gates on.
//! `--smoke` shrinks the document and audits one backend per storage
//! family (A, D, G, H), for a quick local check; the matrix shape and
//! the zero-violation gate are identical.

use xmark::prelude::*;
use xmark::query::verify::Invariant;
use xmark::query::{parse_query, verify_plan_against, PlanMode, VerifyReport};
use xmark_bench::TextTable;

fn main() {
    let smoke = xmark_bench::has_flag("--smoke");
    let factor = xmark_bench::factor_from_args(if smoke { 0.002 } else { 0.01 });
    let systems: &[SystemId] = if smoke {
        &[SystemId::A, SystemId::D, SystemId::G, SystemId::H]
    } else {
        &SystemId::EXTENDED
    };
    let modes = [PlanMode::Optimized, PlanMode::Naive];

    println!(
        "== Plan-invariant audit: Q1-Q20 x {} backends x {{optimized, naive}} ==",
        systems.len()
    );
    println!("(factor {factor}; every plan re-checked against the live store)\n");

    let session = Benchmark::at_factor(factor).generate();

    // One aggregate report per (system, mode) column; the per-invariant
    // rows sum across all twenty queries.
    let mut total = VerifyReport::default();
    let mut columns: Vec<(SystemId, PlanMode, VerifyReport)> = Vec::new();
    for &system in systems {
        let loaded = session.load(system);
        let store = loaded.store.as_ref();
        for mode in modes {
            let mut column = VerifyReport::default();
            for q in &ALL_QUERIES {
                let parsed = parse_query(q.text)
                    .unwrap_or_else(|e| panic!("Q{} failed to parse: {e}", q.number));
                let compiled = xmark::query::compile::plan(&parsed, store, mode);
                let report = verify_plan_against(&parsed, &compiled.plan, store);
                for v in &report.violations {
                    println!("VIOLATION [{} Q{} {}] {v}", system, q.number, mode);
                }
                column.merge(&report);
            }
            total.merge(&column);
            columns.push((system, mode, column));
        }
    }

    let mut table = TextTable::new(&["Invariant", "Checks", "Violations"]);
    for inv in Invariant::ALL {
        table.row(vec![
            format!("{} {}", inv.code(), inv.name()),
            total.checks(inv).to_string(),
            total.violations_of(inv).to_string(),
        ]);
    }
    println!("{}", table.render());

    let mut matrix = TextTable::new(&["Backend", "Mode", "Checks", "Violations"]);
    for (system, mode, column) in &columns {
        matrix.row(vec![
            system.to_string(),
            mode.to_string(),
            column.total_checks().to_string(),
            column.violations.len().to_string(),
        ]);
    }
    println!("{}", matrix.render());

    if total.is_clean() {
        println!(
            "clean: {} checks across {} plans, zero violations",
            total.total_checks(),
            columns.len() * ALL_QUERIES.len()
        );
    } else {
        println!(
            "FAILED: {} violation(s) across {} checks",
            total.violations.len(),
            total.total_checks()
        );
        std::process::exit(1);
    }
}
