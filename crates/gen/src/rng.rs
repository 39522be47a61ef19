//! The deterministic pseudo-random number generator behind `xmlgen`.
//!
//! §4.5 of the paper: *"in order to be able to reproduce the document
//! independently of the platform, we incorporated a random number generator
//! rather than relying on the operating system's built-in random number
//! generators"* — and, crucially, *"we solved this problem by modifying the
//! random number generation to produce several identical streams of random
//! numbers"*, which lets different parts of the document agree on shared
//! random choices (e.g. the sold/unsold item partition) without keeping a
//! log whose size would grow with the document.
//!
//! [`XmarkRng`] is a splitmix64-seeded xoshiro256++-style generator.
//! [`XmarkRng::fork`] derives a *named* sub-stream: forking the same parent
//! seed with the same label always yields the same stream, which is how the
//! generator's independent document sections (regions, people, auctions,
//! split-mode files) stay mutually consistent and generable in isolation —
//! the modern articulation of the paper's multi-stream trick.

/// Deterministic PRNG with named sub-streams.
#[derive(Debug, Clone)]
pub struct XmarkRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl XmarkRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        XmarkRng { state }
    }

    /// Derive an independent, reproducible sub-stream identified by
    /// `stream`. Forking does not advance `self`.
    pub fn fork(&self, stream: u64) -> XmarkRng {
        // Mix the current state with the stream label through splitmix so
        // that fork(a) and fork(b) are decorrelated for a != b.
        let mut sm = self.state[0]
            ^ self.state[1].rotate_left(17)
            ^ self.state[2].rotate_left(31)
            ^ self.state[3].rotate_left(47)
            ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93);
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        XmarkRng { state }
    }

    /// Next raw 64 random bits (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection-free in the common case; bias is negligible only for
        // tiny bounds, so do one widening multiply with rejection.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = XmarkRng::new(42);
        let mut b = XmarkRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XmarkRng::new(1);
        let mut b = XmarkRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_reproducible_and_does_not_advance_parent() {
        let parent = XmarkRng::new(7);
        let mut f1 = parent.fork(3);
        let mut f2 = parent.fork(3);
        for _ in 0..100 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
        // Parent state untouched: forking again still agrees.
        let mut f3 = parent.fork(3);
        let mut f4 = parent.fork(3);
        assert_eq!(f3.next_u64(), f4.next_u64());
    }

    #[test]
    fn distinct_fork_labels_are_decorrelated() {
        let parent = XmarkRng::new(7);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let same = (0..200).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = XmarkRng::new(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = XmarkRng::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = XmarkRng::new(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "bucket count {c} deviates more than 10% from {expected}"
            );
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = XmarkRng::new(13);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match rng.range_inclusive(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut rng = XmarkRng::new(17);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits = {hits}");
    }
}
