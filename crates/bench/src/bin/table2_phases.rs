//! Table 2 reproduction: the parse / plan / execute split of Q1 and Q2,
//! extended from the paper's three relational systems to all seven
//! backends.
//!
//! The paper reports compilation vs execution percentages per (query,
//! system) and explains them through metadata access counts ("System A
//! has to access fewer metadata to compile a query than System B, thus
//! spending only half as much time on query compilation"). With the
//! explicit plan layer, compilation itself splits into *parse* (text →
//! AST, backend-independent) and *plan* (metadata resolution +
//! optimization, the backend-dependent part the paper's explanation is
//! about), so the table shows three phases.
//!
//! ```text
//! cargo run --release -p xmark-bench --bin table2_phases \
//!     [--factor 0.05] [--smoke]
//! ```
//!
//! `--smoke` runs a seconds-scale version (tiny document, fewer repeats)
//! so CI exercises the three-phase timing path end to end.

use std::collections::HashMap;

use xmark::prelude::*;
use xmark_bench::{Finding, TextTable};

fn main() {
    let smoke = xmark_bench::has_flag("--smoke");
    let factor = xmark_bench::factor_from_args(if smoke { 0.005 } else { 0.05 });
    let repeats = if smoke { 2 } else { 5 };
    println!(
        "== Table 2: parse/plan/execute split of Q1 and Q2 across all seven systems \
         (factor {factor}) ==\n"
    );

    // The phase split needs custom best-of timing per phase, so keep the
    // session open instead of using the one-shot `run()`.
    let session = Benchmark::at_factor(factor)
        .systems(&SystemId::ALL)
        .queries([1, 2])
        .generate();
    let loaded = session.load_all();

    let mut table = TextTable::new(&[
        "Query",
        "System",
        "Parse",
        "Plan",
        "Execute",
        "Compile %",
        "Execute %",
        "Metadata accesses",
        "Est. rows",
    ]);

    let mut metadata = HashMap::new();
    let mut execute_pct = HashMap::new();
    for &q in session.queries() {
        for l in &loaded {
            let text = query(q).text;
            // Best-of-N for each phase to de-noise the microsecond scale.
            let (parse_time, parsed) =
                xmark_bench::best_of(repeats, || xmark::query::parse_query(text).expect("parses"));
            let (plan_time, compiled) = xmark_bench::best_of(repeats, || {
                xmark::query::compile::plan(&parsed, l.store.as_ref(), PlanMode::Optimized)
            });
            let (execute_time, _result) = xmark_bench::best_of(repeats.min(3), || {
                xmark::query::execute(&compiled, l.store.as_ref()).expect("executes")
            });
            let compile_time = parse_time + plan_time;
            let total = compile_time + execute_time;
            let cpct = 100.0 * compile_time.as_secs_f64() / total.as_secs_f64();
            table.row(vec![
                format!("Q{q}"),
                format!("{:?}", l.system).replace("System ", ""),
                xmark_bench::ms(parse_time) + " ms",
                xmark_bench::ms(plan_time) + " ms",
                xmark_bench::ms(execute_time) + " ms",
                format!("{cpct:.0}%"),
                format!("{:.0}%", 100.0 - cpct),
                compiled.stats.metadata_accesses.to_string(),
                compiled.stats.estimated_rows.to_string(),
            ]);
            metadata.insert((q, l.system), compiled.stats.metadata_accesses);
            execute_pct.insert((q, l.system), 100.0 - cpct);
        }
    }
    println!("{}", table.render());

    println!("paper's Table 2 (totals) for shape comparison:");
    println!(
        "  Q1: A compile 25% / exec 75%   B compile 51% / exec 49%   C compile 29% / exec 71%"
    );
    println!(
        "  Q2: A compile 13% / exec 87%   B compile 20% / exec 80%   C compile 16% / exec 84%"
    );

    if smoke {
        println!("\nsmoke: three-phase timing exercised across all seven backends — OK");
    }

    let metadata = |q: usize, system: SystemId| metadata[&(q, system)];
    xmark_bench::print_findings(&[
        Finding::check(
            "Table 2",
            "B makes more metadata accesses than A on Q1 and on Q2",
            [1, 2]
                .into_iter()
                .all(|q| metadata(q, SystemId::B) > metadata(q, SystemId::A)),
        ),
        Finding::check(
            "Table 2",
            "C makes the fewest metadata accesses of A, B and C on Q1 and on Q2",
            [1, 2].into_iter().all(|q| {
                let c = metadata(q, SystemId::C);
                c < metadata(q, SystemId::A) && c < metadata(q, SystemId::B)
            }),
        ),
        Finding::check(
            "Table 2",
            "execution is more than half of Q2's total on every system",
            loaded.iter().all(|l| execute_pct[&(2, l.system)] > 50.0),
        ),
    ]);
}
