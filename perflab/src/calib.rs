//! The clock correction, and the probe behind it.
//!
//! The sandbox this benchmark was sized in is a small VM whose core clock
//! sits on plateaus up to 30 % apart, each lasting from seconds to
//! minutes: a cache-resident ALU loop takes 8.2 ms on one and 10.5 ms on
//! the next, and a CPU-bound closed loop slows by the same factor at the
//! same instants. A plateau outlasts a run, so no run length within the
//! budget averages it out, and scaling to a run's own median reading does
//! nothing (ten seeds of `suite_all`, `qps`, interquartile range ÷ median:
//! raw 0.128, scaled to the run's median reading 0.121, scaled to the
//! fixed reference below 0.011).
//!
//! So every measured round and every set-up is bracketed by two readings
//! of [`kernel_ms`], and a workload whose `Spec` says `clock_corrected`
//! reports its times **at the reference clock**: as measured × reading ÷
//! [`REFERENCE_MS`]. The constant is this box's common plateau, so that
//! corrected and raw numbers read alike here; on another host it scales a
//! workload's times by one factor, the same on both sides of any
//! comparison. Which workloads are corrected was decided by same-commit
//! A/B of the ten-seed spread (see README): the correction tracks CPU-bound
//! work, not work bound by the pool latch or by page reads. Raw values and
//! every reading are kept in the detail file; per-layer metrics are never
//! corrected.

use std::hint::black_box;
use std::time::Instant;

/// The reading at which a corrected time equals the raw one.
pub const REFERENCE_MS: f64 = 2.5;

const BUFFER: usize = 4096;
const PASSES: usize = 512;

/// Milliseconds FNV-1a takes over a 4 KiB buffer, 512 passes: a dependent
/// multiply chain that stays in the first-level cache, so its time
/// follows the core clock and nothing else. Read on every core at once
/// and averaged: the cores of this VM are not always equally fast, and a
/// worker runs on whichever the scheduler gives it (ten seeds of
/// `lookup_mem`, `qps`: 0.112 corrected by the all-core reading, 0.151 by
/// the harness thread's alone).
pub fn kernel_ms() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let readings: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..cores).map(|_| scope.spawn(one_core_ms)).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("the probe does not panic"))
            .collect()
    });
    readings.iter().sum::<f64>() / cores as f64
}

/// One core's reading: the faster of two — an interruption can only
/// lengthen one.
fn one_core_ms() -> f64 {
    let buffer: Vec<u8> = (0..BUFFER).map(|i| (i * 7) as u8).collect();
    let once = || {
        let start = Instant::now();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..PASSES {
            for &b in black_box(&buffer) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        black_box(h);
        start.elapsed().as_secs_f64() * 1e3
    };
    once().min(once())
}
