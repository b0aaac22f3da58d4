//! The speed of the machine, measured while the benchmark runs.
//!
//! On the reference container the same binary on the same inputs runs 30 to
//! 60 % slower in one minute than in the next (`tpch_fig6`, one seed, eight
//! runs of 12 s: `latency_ms_geomean` 10.3 to 14.6 ms, quartiles 17 % of the
//! median apart; a pure ALU loop moves by 6 % meanwhile, so it is the memory
//! side of a shared host). No median taken inside a run averages that out,
//! and a metric that differs by 17 % between two runs of one commit cannot
//! hold a regression bound. So a fixed kernel — code of this package only,
//! touching nothing of the engine — is timed between the rounds, and every
//! round's times are divided by the round's *speed factor*: kernel time
//! around the round ÷ [`REFERENCE_S`]. The timing metrics are therefore
//! milliseconds and seconds *on a machine on which the kernel takes
//! [`REFERENCE_S`]*; the report prints the factor and the times as measured
//! beside them. A change to the engine cannot move the kernel, so it cannot
//! hide in the factor.
//!
//! The kernel runs between rounds, never between the ops of a round, so an
//! op meets the caches the previous op left. It is made of what the engine's
//! operators are made of — small allocations, a sort, a hash, a pass over
//! fresh memory. `spill_budget` adds file writes and reads, but they stay in
//! the page cache (no fsync is issued), which is memory traffic again.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time at which the factor is 1: its usual time on the reference
/// container (release build, 2 cores, 2026-09).
pub const REFERENCE_S: f64 = 0.0030;

/// Kernel runs per sample; the sample is their median.
const RUNS: usize = 3;

const ROWS: u64 = 24_000;
const FRESH_WORDS: usize = 1 << 18;

/// Allocates, sorts and hashes a few thousand small rows, then fills 2 MiB
/// of fresh memory (little enough to leave `peak_rss_mb` to the workload),
/// and returns the seconds it took.
fn kernel() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut rows: Vec<Vec<u64>> = (0..ROWS).map(|i| vec![i, next(), next() % 97]).collect();
    rows.sort_unstable_by(|a, b| (a[2], a[1]).cmp(&(b[2], b[1])));
    let digest = rows
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        });
    // Fresh pages, written once and read once: what materialising a large
    // intermediate result costs the engine (page faults, memory bandwidth).
    let fresh: Vec<u64> = vec![digest | 1; FRESH_WORDS];
    let sum = fresh
        .iter()
        .step_by(8)
        .fold(0u64, |s, v| s.wrapping_add(*v));
    black_box(sum);
    black_box(rows);
    started.elapsed().as_secs_f64()
}

/// The median of [`RUNS`] kernel runs, seconds. One thread, for the
/// two-worker `serve_mix` too: two kernels at once disturb each other more
/// than they follow the machine (same seed, eight runs: `queries_per_s`
/// spread by 11 % scaled by a two-thread kernel, 4 % by this one).
pub fn sample() -> f64 {
    let runs: Vec<f64> = (0..RUNS).map(|_| kernel()).collect();
    crate::stats::median(&runs)
}

/// The speed factor of a stretch of work from the samples taken before and
/// after it: their mean ÷ the reference.
pub fn factor(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / REFERENCE_S
}
