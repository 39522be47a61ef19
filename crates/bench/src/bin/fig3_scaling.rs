//! Figure 3 + §4.5 reproduction: document scaling and xmlgen efficiency.
//!
//! The paper's Fig. 3 maps scaling factors to document sizes (0.1 → 10 MB,
//! 1.0 → 100 MB, …); §4.5 claims xmlgen is linear-time, constant-memory
//! (< 2 MB) and produced 100 MB in 33.4 s on a 450 MHz Pentium III.
//!
//! ```text
//! cargo run --release -p xmark-bench --bin fig3_scaling [--factor 0.1]
//! ```
//!
//! `--factor` is the largest preset factor generated.

use std::io::Write;

use xmark::gen::{Generator, GeneratorConfig};
use xmark::prelude::SCALES;
use xmark_bench::{Finding, TextTable};

/// Fig. 3 sizes every scale at exactly 100 MB per unit factor (10 MB,
/// 100 MB, 1 GB); bytes per unit factor that stay within this fraction
/// of each other across the measured scales count as flat.
const FLAT_TOLERANCE: f64 = 0.10;

/// An `io::Write` sink that counts bytes — generation is measured without
/// any buffering or disk cost, like the paper's elapsed-time figures.
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn main() {
    let max_factor = xmark_bench::factor_from_args(0.1);
    println!("== Fig. 3: scaling the benchmark document ==");
    println!("(paper: tiny 0.1 -> 10 MB, standard 1.0 -> 100 MB, large 10 -> 1 GB)\n");

    let mut table = TextTable::new(&[
        "Name", "Factor", "Nominal", "Bytes", "Size", "Elements", "Gen time", "MB/s",
    ]);

    let mut sizes: Vec<(f64, u64)> = Vec::new();
    for preset in SCALES {
        let (name, factor) = (preset.name, preset.factor);
        if factor > max_factor {
            continue;
        }
        let generator = Generator::new(GeneratorConfig::at_factor(factor));
        let mut sink = CountingSink(0);
        let start = std::time::Instant::now();
        let stats = generator.write(&mut sink).expect("sink write");
        let elapsed = start.elapsed();
        let mbps = stats.bytes as f64 / 1e6 / elapsed.as_secs_f64();
        table.row(vec![
            name.to_string(),
            format!("{factor}"),
            preset.nominal.to_string(),
            stats.bytes.to_string(),
            xmark_bench::human_bytes(stats.bytes as usize),
            stats.elements.to_string(),
            format!("{elapsed:.2?}"),
            format!("{mbps:.1}"),
        ]);
        sizes.push((factor, stats.bytes));
    }
    println!("{}", table.render());

    // Linearity check (the paper's "accurately scalable").
    println!("linearity (bytes per unit factor):");
    let per_factor: Vec<f64> = sizes
        .iter()
        .map(|&(factor, bytes)| bytes as f64 / factor)
        .collect();
    for ((factor, _), bytes) in sizes.iter().zip(&per_factor) {
        println!("  factor {factor:<8} -> {:.1} MB / factor", bytes / 1e6);
    }

    let lowest = per_factor.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = per_factor.iter().copied().fold(0.0, f64::max);
    let flat = if sizes.len() >= 2 {
        Finding::check(
            "Fig. 3",
            format!(
                "bytes per unit factor stay within {:.0}% across the measured scales",
                FLAT_TOLERANCE * 100.0
            ),
            highest <= lowest * (1.0 + FLAT_TOLERANCE),
        )
    } else {
        Finding::not_reproducible(
            "Fig. 3",
            "bytes per unit factor are flat across scales",
            "fewer than two scales at this --factor",
        )
    };
    xmark_bench::print_findings(&[
        flat,
        Finding::not_reproducible(
            "§4.5",
            "xmlgen runs in less than 2 MB of main memory",
            "this binary does not measure the generator's memory",
        ),
    ]);
}
