//! The random distributions used by the generator.
//!
//! §4.2/§4.5 of the paper: the references in the benchmark document are
//! *"derived from uniformly, normally and exponentially distributed random
//! variables"*, implemented on top of the custom PRNG *"together with basic
//! algorithms which can be found in statistics textbooks"*. This module is
//! exactly those textbook algorithms: inverse-CDF exponential, Box–Muller
//! normal, and a cumulative-table Zipf sampler (with a guide table for
//! constant expected work per draw) for the text model.

use crate::rng::XmarkRng;

/// Sample an exponential variate with the given `mean` (mean = 1/λ).
pub fn exponential(rng: &mut XmarkRng, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    // Inverse CDF; 1 - u avoids ln(0).
    -mean * (1.0 - rng.next_f64()).ln()
}

/// Sample a normal variate via the Box–Muller transform.
pub fn normal(rng: &mut XmarkRng, mu: f64, sigma: f64) -> f64 {
    debug_assert!(sigma >= 0.0);
    let u1 = 1.0 - rng.next_f64(); // (0, 1]
    let u2 = rng.next_f64();
    let radius = (-2.0 * u1.ln()).sqrt();
    mu + sigma * radius * (std::f64::consts::TAU * u2).cos()
}

/// Sample a normal variate and clamp it into `[lo, hi]`.
pub fn clamped_normal(rng: &mut XmarkRng, mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    normal(rng, mu, sigma).clamp(lo, hi)
}

/// Sample an index in `[0, n)` with exponentially decaying probability
/// (index 0 most likely). `mean_fraction` controls the decay: the mean of
/// the underlying exponential is `mean_fraction * n`.
///
/// Used for the skewed reference distributions of §4.2 (e.g. a few popular
/// people buy most items).
pub fn exponential_index(rng: &mut XmarkRng, n: usize, mean_fraction: f64) -> usize {
    debug_assert!(n > 0);
    loop {
        let x = exponential(rng, mean_fraction * n as f64);
        if (x as usize) < n {
            return x as usize;
        }
    }
}

/// Sample an index in `[0, n)` from a normal centred on the middle of the
/// range (σ = n/6, resampled into range).
pub fn normal_index(rng: &mut XmarkRng, n: usize) -> usize {
    debug_assert!(n > 0);
    loop {
        let x = normal(rng, n as f64 / 2.0, n as f64 / 6.0);
        if x >= 0.0 && (x as usize) < n {
            return x as usize;
        }
    }
}

/// A Zipf(s) sampler over ranks `0..n` backed by a precomputed cumulative
/// table and a guide table over it (Chen & Asau's indexed search): O(1)
/// expected work per sample.
///
/// The text generator uses this to mimic the word-frequency skew the paper
/// measured in Shakespeare's plays (§4.3).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    /// `guide[k]` is the first rank whose cumulative value lies in bucket
    /// `k` or later (capped at `n - 1`), where `bucket(x) = ⌊x · 2^16⌋`.
    guide: Vec<u32>,
}

/// Number of guide-table buckets (256 KB of `u32`s).
const GUIDE_BUCKETS: usize = 1 << 16;

/// The guide bucket of a probability in `[0, 1]`. Monotone in `x`, which is
/// all the search in `Zipf::rank_of` relies on.
#[inline]
fn bucket(x: f64) -> usize {
    (x * GUIDE_BUCKETS as f64) as usize
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s` (s ≈ 1 is the
    /// classical natural-language value).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        assert!(u32::try_from(n).is_ok(), "Zipf domain exceeds u32 ranks");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        // Normalize so the last entry is exactly 1.0.
        let norm = total;
        for c in &mut cumulative {
            *c /= norm;
        }
        let mut guide = Vec::with_capacity(GUIDE_BUCKETS);
        let mut rank = 0;
        for k in 0..GUIDE_BUCKETS {
            while rank < n - 1 && bucket(cumulative[rank]) < k {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cumulative, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the domain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Sample a rank in `[0, n)`; rank 0 is the most probable.
    pub fn sample(&self, rng: &mut XmarkRng) -> usize {
        self.rank_of(rng.next_f64())
    }

    /// The first rank whose cumulative value is at least `u ∈ [0, 1)`,
    /// clamped to `n - 1`. Every rank before `guide[bucket(u)]` has its
    /// cumulative value in an earlier bucket, hence below `u`, so the scan
    /// from there finds that rank; it is short because a bucket spans only
    /// a few ranks.
    fn rank_of(&self, u: f64) -> usize {
        let last = self.cumulative.len() - 1;
        let mut rank = self.guide[bucket(u)] as usize;
        while rank < last && self.cumulative[rank] < u {
            rank += 1;
        }
        rank
    }

    /// Probability of the given rank.
    pub fn probability(&self, rank: usize) -> f64 {
        let hi = self.cumulative[rank];
        let lo = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank - 1]
        };
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let mut rng = XmarkRng::new(1);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 100.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean = {mean}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = XmarkRng::new(2);
        for _ in 0..10_000 {
            assert!(exponential(&mut rng, 5.0) >= 0.0);
        }
    }

    #[test]
    fn normal_mean_and_spread_converge() {
        let mut rng = XmarkRng::new(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 50.0, 10.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 0.3, "mean = {mean}");
        assert!((var.sqrt() - 10.0).abs() < 0.3, "sd = {}", var.sqrt());
    }

    #[test]
    fn clamped_normal_respects_bounds() {
        let mut rng = XmarkRng::new(4);
        for _ in 0..10_000 {
            let x = clamped_normal(&mut rng, 0.0, 100.0, -5.0, 5.0);
            assert!((-5.0..=5.0).contains(&x));
        }
    }

    #[test]
    fn exponential_index_prefers_low_ranks() {
        let mut rng = XmarkRng::new(5);
        let n = 1000;
        let mut first_decile = 0;
        let trials = 20_000;
        for _ in 0..trials {
            if exponential_index(&mut rng, n, 0.2) < n / 10 {
                first_decile += 1;
            }
        }
        // With mean 0.2n, P(X < 0.1n) = 1 - e^-0.5 ≈ 0.39.
        assert!(
            (0.34..0.45).contains(&(first_decile as f64 / trials as f64)),
            "fraction = {}",
            first_decile as f64 / trials as f64
        );
    }

    #[test]
    fn normal_index_centres_on_middle() {
        let mut rng = XmarkRng::new(6);
        let n = 1000;
        let trials = 20_000;
        let mid = (0..trials)
            .filter(|_| {
                let i = normal_index(&mut rng, n);
                (n / 4..3 * n / 4).contains(&i)
            })
            .count();
        // P(|Z| < 1.5σ) ≈ 0.866.
        let frac = mid as f64 / trials as f64;
        assert!((0.82..0.91).contains(&frac), "fraction = {frac}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = XmarkRng::new(7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 20 * counts[500].max(1) / 2);
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (0..100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(17, 0.9);
        let mut rng = XmarkRng::new(8);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 17);
        }
    }

    /// The binary search `Zipf::sample` ran before the guide table: the
    /// reference the guided scan must agree with on every `u`.
    fn binary_search_rank(cumulative: &[f64], u: f64) -> usize {
        match cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in table")) {
            Ok(i) => i,
            Err(i) => i.min(cumulative.len() - 1),
        }
    }

    /// `n = 17 000` is the standard vocabulary, `n = 760` the smallest
    /// `Vocabulary::with_size` accepts.
    const GUIDE_SIZES: [usize; 2] = [17_000, 760];

    #[test]
    fn guide_table_matches_binary_search_on_random_draws() {
        for n in GUIDE_SIZES {
            let z = Zipf::new(n, 1.0);
            let mut rng = XmarkRng::new(9);
            for _ in 0..1_000_000 {
                let u = rng.next_f64();
                assert_eq!(
                    z.rank_of(u),
                    binary_search_rank(&z.cumulative, u),
                    "n={n} u={u}"
                );
            }
        }
    }

    #[test]
    fn guide_table_matches_binary_search_at_every_boundary() {
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        for n in GUIDE_SIZES {
            let z = Zipf::new(n, 1.0);
            let mut probes = vec![0.0, below_one];
            for &c in &z.cumulative {
                let bits = c.to_bits();
                probes.extend([f64::from_bits(bits - 1), c, f64::from_bits(bits + 1)]);
            }
            // Bucket edges too: the largest probability in each bucket
            // and the first one of the next.
            for k in 1..GUIDE_BUCKETS {
                let edge = k as f64 / GUIDE_BUCKETS as f64;
                probes.extend([f64::from_bits(edge.to_bits() - 1), edge]);
            }
            for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(
                    z.rank_of(u),
                    binary_search_rank(&z.cumulative, u),
                    "n={n} u={u}"
                );
            }
        }
    }
}
