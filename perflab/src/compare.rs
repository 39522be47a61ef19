//! `perflab compare <a.json> <b.json>`: hold two result sets to the
//! bounds `BENCHMARK.json` fixes.

use std::path::Path;

use crate::json::Json;

/// How `b` stands against `a` on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between a side's own samples is wider than the bound,
    /// so a change of the bound's size could not be told from noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify medians `a` (base) and `b`: `b` is worse when it moved
/// against `better` by more than `bound`, as a share of `a`. `spread` is
/// the wider of the two sides' `spread_iqr`: the interquartile range of
/// a run's samples as a share of their median.
pub fn classify(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worsening = if higher_is_better { a - b } else { b - a };
    if worsening > bound * a.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(name, higher_is_better, bound)` of every end-to-end metric.
fn bounds(manifest: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(bound)) => Ok((n.to_string(), b == "higher", bound)),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing is worse and nothing
/// failed.
pub fn compare(a_path: &str, b_path: &str, manifest_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let manifest = load(&manifest_path.to_string_lossy())?;
    let bounds = bounds(&manifest)?;
    for (side, path) in [(&a, a_path), (&b, b_path)] {
        if side.get("comparable") != Some(&Json::Bool(true)) {
            println!("note: {path} is marked non-comparable (smoke or partial run)");
        }
    }
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    let mut clean = true;
    println!(
        "{:<15} {:<17} {:>13} {:>13} {:>16}  verdict",
        "workload", "metric", "a (base)", "b", "b/a"
    );
    for (workload, a_w) in workloads {
        let b_w = b.get("workloads").and_then(|w| w.get(workload));
        for (side, w) in [("a", Some(a_w)), ("b", b_w)] {
            let failed = w
                .and_then(|w| w.get("timed"))
                .and_then(|t| t.get("failed"))
                .and_then(Json::as_f64);
            if failed != Some(0.0) {
                println!("{workload:<15} failed requests or an aborted run in {side}: {failed:?}");
                clean = false;
            }
        }
        // `metrics` holds the reported values, `behind` what they rest on.
        let metric = |w: Option<&Json>, part: &str, name: &str, field: &str| {
            w?.get("timed")?.get(part)?.get(name)?.get(field)?.as_f64()
        };
        for (name, higher, bound) in &bounds {
            let (Some(va), Some(vb)) = (
                metric(Some(a_w), "metrics", name, "value"),
                metric(b_w, "metrics", name, "value"),
            ) else {
                println!("{workload:<15} {name:<17} missing on one side");
                clean = false;
                continue;
            };
            let spread = metric(Some(a_w), "behind", name, "spread_iqr")
                .unwrap_or(0.0)
                .max(metric(b_w, "behind", name, "spread_iqr").unwrap_or(0.0));
            let verdict = classify(va, vb, *higher, *bound, spread);
            clean &= verdict != Verdict::Worse;
            println!(
                "{workload:<15} {name:<17} {va:>13.5} {vb:>13.5} {:>7.4} of {va:<8.4}  {} (bound {bound}, spread {spread:.3})",
                vb / va,
                verdict.word(),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_a_synthetic_ok_worse_unresolved_triple() {
        // qps (higher is better), bound 10 %.
        assert_eq!(classify(100.0, 95.0, true, 0.10, 0.02), Verdict::Ok);
        assert_eq!(classify(100.0, 85.0, true, 0.10, 0.02), Verdict::Worse);
        assert_eq!(classify(100.0, 85.0, true, 0.10, 0.15), Verdict::Unresolved);
        // latency (lower is better): an improvement is never "worse".
        assert_eq!(classify(2.0, 1.0, false, 0.10, 0.0), Verdict::Ok);
        assert_eq!(classify(2.0, 2.3, false, 0.10, 0.0), Verdict::Worse);
        assert_eq!(classify(2.0, 2.19, false, 0.10, 0.0), Verdict::Ok);
    }

    #[test]
    fn bounds_are_read_from_the_manifest() {
        let manifest = Json::parse(
            r#"{"end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds(&manifest).unwrap(),
            vec![
                ("qps".to_string(), true, 0.1),
                ("setup_s".to_string(), false, 0.2)
            ]
        );
        assert!(bounds(&Json::parse("{}").unwrap()).is_err());
    }
}
