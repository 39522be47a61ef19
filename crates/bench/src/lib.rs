//! Shared infrastructure for the benchmark harness.
//!
//! The `xmark-bench` crate regenerates every table and figure of the
//! paper's evaluation (§7):
//!
//! | Artifact | Binary |
//! |----------|--------|
//! | Fig. 3 (document scaling) + §4.5 xmlgen claims | `fig3_scaling` |
//! | Table 1 (bulkload time, database size) | `table1_bulkload` |
//! | Table 2 (parse/plan/execute split, Q1/Q2 on A–G) | `table2_phases` |
//! | Table 3 (13 queries × systems A–F) | `table3_queries` |
//! | Fig. 4 (Q1–Q20 on embedded System G) | `fig4_embedded` |
//!
//! plus `plan_audit`, the plan-invariant audit over Q1–Q20 × every
//! backend. Each report binary ends with a block of [`Finding`]s: the
//! paper's qualitative claims, checked against the numbers the binary
//! just measured. Throughput, latency and time-to-first-item are
//! measured by `perflab/`, not here.

use std::fmt;
use std::time::{Duration, Instant};

/// Parse `--factor <f>` (or a bare positional float) from argv, with a
/// default.
pub fn factor_from_args(default: f64) -> f64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    factor_from(&args, default)
}

fn factor_from(args: &[String], default: f64) -> f64 {
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--factor" {
            if let Some(v) = args.get(i + 1).and_then(|a| a.parse().ok()) {
                return v;
            }
        }
        // A bare numeric is a positional factor — but not when it is the
        // value of some other flag (`--requests 104` must not become
        // factor 104).
        let follows_flag = i > 0 && args[i - 1].starts_with("--");
        if !follows_flag {
            if let Ok(v) = args[i].parse::<f64>() {
                return v;
            }
        }
        i += 1;
    }
    default
}

/// Whether a bare flag is present in argv.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

/// Best-of-`runs` wall time of `f` (first run discarded as warm-up when
/// `runs > 1`).
pub fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(runs >= 1);
    let mut best: Option<(Duration, T)> = None;
    for i in 0..runs.max(2) {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        if i == 0 && runs > 1 {
            continue; // warm-up
        }
        match &best {
            Some((b, _)) if *b <= elapsed => {}
            _ => best = Some((elapsed, value)),
        }
    }
    best.expect("at least one measured run")
}

/// Format a duration in the paper's milliseconds convention.
pub fn ms(d: Duration) -> String {
    let millis = d.as_secs_f64() * 1e3;
    if millis >= 100.0 {
        format!("{millis:.0}")
    } else if millis >= 1.0 {
        format!("{millis:.1}")
    } else {
        format!("{millis:.3}")
    }
}

/// Format bytes as a human-readable size.
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "kB", "MB", "GB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// A fixed-width text table writer for the report binaries.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - cell.len();
                if i == 0 {
                    out.push_str(cell);
                    out.push_str(&" ".repeat(pad));
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// How one of the paper's findings fares against this run's numbers.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The measured numbers satisfy the claim.
    Agree,
    /// The measured numbers contradict the claim.
    Disagree,
    /// The binary does not measure what the claim is about, for the
    /// stated reason.
    NotReproducible(&'static str),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Agree => f.write_str("agree"),
            Verdict::Disagree => f.write_str("disagree"),
            Verdict::NotReproducible(reason) => write!(f, "not reproducible ({reason})"),
        }
    }
}

/// One of the paper's qualitative findings, stated as a predicate over
/// the numbers a report binary measured.
pub struct Finding {
    /// Where the paper makes the claim, e.g. "Table 3" or "§7".
    source: &'static str,
    /// The claim in words.
    claim: String,
    verdict: Verdict,
}

impl Finding {
    /// A claim whose predicate, evaluated on this run, gave `holds`.
    pub fn check(source: &'static str, claim: impl Into<String>, holds: bool) -> Self {
        Finding {
            source,
            claim: claim.into(),
            verdict: if holds {
                Verdict::Agree
            } else {
                Verdict::Disagree
            },
        }
    }

    /// A claim this binary does not measure.
    pub fn not_reproducible(
        source: &'static str,
        claim: impl Into<String>,
        reason: &'static str,
    ) -> Self {
        Finding {
            source,
            claim: claim.into(),
            verdict: Verdict::NotReproducible(reason),
        }
    }
}

/// Print the findings block a report binary ends with.
pub fn print_findings(findings: &[Finding]) {
    print!("{}", render_findings(findings));
}

fn render_findings(findings: &[Finding]) -> String {
    let source_width = findings
        .iter()
        .map(|f| f.source.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::from("\n== Paper findings checked against this run ==\n\n");
    for f in findings {
        out.push_str(&format!(
            "{:<source_width$}  {}: {}\n",
            f.source, f.claim, f.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns() {
        let mut t = TextTable::new(&["Query", "System A", "System B"]);
        t.row(vec!["Q1".into(), "689".into(), "784".into()]);
        t.row(vec!["Q11".into(), "205675".into(), "2551760".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("System A"));
        assert!(lines[3].ends_with("2551760"));
    }

    #[test]
    fn best_of_discards_warmup() {
        let mut calls = 0;
        let (d, v) = best_of(3, || {
            calls += 1;
            42
        });
        assert_eq!(v, 42);
        assert_eq!(calls, 3);
        assert!(d.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn factor_parsing_ignores_other_flags_values() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(factor_from(&args(&["--factor", "0.05"]), 1.0), 0.05);
        assert_eq!(factor_from(&args(&["0.2"]), 1.0), 0.2);
        assert_eq!(factor_from(&args(&["--smoke"]), 1.0), 1.0);
        // The value of an unrelated flag is not a positional factor.
        assert_eq!(factor_from(&args(&["--requests", "104"]), 1.0), 1.0);
        assert_eq!(
            factor_from(&args(&["--requests", "104", "--factor", "0.01"]), 1.0),
            0.01
        );
        assert_eq!(
            factor_from(&args(&["--factor", "0.01", "--requests", "104"]), 1.0),
            0.01
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 kB");
        assert_eq!(ms(Duration::from_millis(250)), "250");
        assert_eq!(ms(Duration::from_micros(1500)), "1.5");
    }

    #[test]
    fn findings_report_agree_and_disagree() {
        let (d_ms, a_ms) = (83.0, 177.0);
        let findings = [
            Finding::check("Table 1", "D loads faster than A", d_ms < a_ms),
            Finding::check("Table 1", "A loads faster than D", a_ms < d_ms),
            Finding::not_reproducible("Fig. 4", "takes 2.5-5 s", "2002 hardware"),
        ];
        assert_eq!(findings[0].verdict, Verdict::Agree);
        assert_eq!(findings[1].verdict, Verdict::Disagree);
        let rendered = render_findings(&findings);
        let lines: Vec<&str> = rendered.lines().skip(3).collect();
        assert_eq!(
            lines,
            [
                "Table 1  D loads faster than A: agree",
                "Table 1  A loads faster than D: disagree",
                "Fig. 4   takes 2.5-5 s: not reproducible (2002 hardware)",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_bad_row() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }
}
