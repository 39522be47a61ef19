//! Query mixes and the seeded shuffle that orders them.

/// Q1–Q20.
pub fn all20() -> Vec<usize> {
    (1..=20).collect()
}

/// Q1–Q7 and Q13–Q20: everything but the value joins Q8–Q12.
pub fn lookup15() -> Vec<usize> {
    (1..=7).chain(13..=20).collect()
}

/// The value joins.
pub const JOINS: [usize; 5] = [8, 9, 10, 11, 12];

/// Span tags, indexed by query number.
pub const QUERY_TAGS: [&str; 21] = [
    "", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12", "Q13", "Q14",
    "Q15", "Q16", "Q17", "Q18", "Q19", "Q20",
];

/// SplitMix64: the harness's own generator, so that inputs depend on
/// `--seed` and on nothing else.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Fisher–Yates shuffle of `items`, a function of `seed` alone.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The request order of a run: every mix cycle is a fresh permutation of
/// the mix, drawn from one stream that `--seed` starts. A light query's
/// latency depends on which query ran before it (measured: one fixed
/// order per run moves the geometric-mean latency by ±6 % between
/// seeds), so a run averages over many orders instead of betting on one.
pub struct Schedule {
    mix: Vec<usize>,
    rng: SplitMix64,
}

impl Schedule {
    pub fn new(mix: Vec<usize>, seed: u64) -> Schedule {
        Schedule {
            mix,
            rng: SplitMix64(seed),
        }
    }

    /// The queries of the mix, in their canonical order.
    pub fn mix(&self) -> &[usize] {
        &self.mix
    }

    /// The next `cycles` mix cycles, each in its own order.
    pub fn cycles(&mut self, cycles: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(cycles * self.mix.len());
        for _ in 0..cycles {
            let mut cycle = self.mix.clone();
            shuffle(&mut cycle, self.rng.next());
            out.extend(cycle);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_permutation_and_stable_per_seed() {
        for seed in 0..50 {
            let mut a = lookup15();
            let mut b = lookup15();
            shuffle(&mut a, seed);
            shuffle(&mut b, seed);
            assert_eq!(a, b, "seed {seed} must give one order");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, lookup15(), "seed {seed} must keep every query once");
        }
        let orders: std::collections::HashSet<Vec<usize>> = (0..50)
            .map(|seed| {
                let mut m = all20();
                shuffle(&mut m, seed);
                m
            })
            .collect();
        assert!(orders.len() > 40, "different seeds give different orders");
    }

    #[test]
    fn schedule_repeats_per_seed_and_keeps_every_cycle_whole() {
        let mut a = Schedule::new(lookup15(), 9);
        let mut b = Schedule::new(lookup15(), 9);
        let (first, second) = (a.cycles(3), a.cycles(3));
        assert_eq!(first, b.cycles(3));
        assert_eq!(second, b.cycles(3));
        assert_ne!(first, second, "later cycles come in new orders");
        for cycle in first.chunks(15) {
            let mut sorted = cycle.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, lookup15());
        }
        assert_ne!(first, Schedule::new(lookup15(), 10).cycles(3));
    }

    #[test]
    fn mixes_are_what_the_readme_says() {
        assert_eq!(all20().len(), 20);
        assert_eq!(lookup15().len(), 15);
        assert!(JOINS.iter().all(|q| !lookup15().contains(q)));
        assert_eq!(QUERY_TAGS[20], "Q20");
    }
}
