//! Order statistics the harness reports: median, quartiles, geometric
//! mean and the two spreads stored next to every median.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the harness sees the spread the
/// driver will compute. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn spread_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// (max − min) ÷ median.
pub fn spread_range(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// Geometric mean. Values are latencies measured with a nanosecond
/// clock, so a zero is clamped to one nanosecond (in the value's unit)
/// by the caller; here non-positive values are rejected.
///
/// # Panics
/// Panics on an empty slice or a non-positive value.
pub fn geo_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    let sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spreads_are_shares_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert!((spread_range(&v) - 9.0 / 5.5).abs() < 1e-12);
        assert_eq!(spread_iqr(&[5.0]), 0.0);
        assert_eq!(spread_range(&[5.0, 5.0]), 0.0);
    }

    #[test]
    fn geometric_mean_weights_ratios_not_differences() {
        assert!((geo_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geo_mean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
    }
}
