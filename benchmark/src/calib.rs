//! Memory-speed calibration of the host clock.
//!
//! The sandbox flips between two memory-speed modes roughly 30 % apart
//! every few minutes (co-tenants on the host; an ALU-bound loop does not
//! see it, a hash table larger than the last-level cache does, and so
//! does this program). Raw wall-clock throughput therefore spreads wider
//! across runs than any bound the benchmark may set. Each repetition
//! times a fixed memory-bound kernel right before and right after its
//! timed region; a run scales its host-clock metrics by the median
//! kernel speed it saw, relative to a fixed reference, which removes
//! most of the mode from them. The raw values are printed next to the
//! scaled ones.
//!
//! The program is not purely memory-bound: regressing raw throughput on
//! kernel speed over 40 runs (10 seeds x 4 workloads) gave slopes of
//! 0.57–0.79. So only [`MEMORY_BOUND_SHARE`] of a host time is taken to
//! scale with memory speed.

use std::collections::HashMap;
use std::time::Instant;

/// Table entries: keys, values and buckets take about 25 MB, well past
/// the sandbox's last-level cache.
const ENTRIES: usize = 100_000;
const LOOKUPS: usize = 200_000;

/// Kernel speed (table operations per second) that scales to 1.0:
/// between the sandbox's two modes when this benchmark was defined.
pub const REFERENCE_OPS_PER_S: f64 = 5_000_000.0;

/// Share of the program's host time taken to scale with memory speed.
pub const MEMORY_BOUND_SHARE: f64 = 0.6;

/// Factor by which a host *time* measured at memory speed `speed` is
/// multiplied to read as on a machine at the reference speed (host
/// *rates* are divided by it).
pub fn time_scale(speed: f64) -> f64 {
    1.0 / ((1.0 - MEMORY_BOUND_SHARE) + MEMORY_BOUND_SHARE / speed)
}

/// Run the kernel once (≈ 50 ms) and return its speed relative to the
/// reference: below 1 on a machine (or in a mode) slower than it. Like
/// the program it allocates, hashes and copies small strings; a kernel
/// of bare random lookups is dominated by page-size luck instead.
pub fn mem_speed() -> f64 {
    let key = |i: usize| format!("/app/calibration/{i:08}.file");
    let started = Instant::now();
    let mut table: HashMap<String, Vec<u8>> = HashMap::new();
    for i in 0..ENTRIES {
        table.insert(key(i), vec![i as u8; 64]);
    }
    let (mut at, mut bytes) = (1usize, 0usize);
    for _ in 0..LOOKUPS {
        at = (at * 7919 + 13) % ENTRIES;
        bytes += table[&key(at)].len();
    }
    std::hint::black_box(bytes);
    drop(table);
    (ENTRIES + LOOKUPS) as f64 / started.elapsed().as_secs_f64() / REFERENCE_OPS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_neutral_at_the_reference_and_damped_away_from_it() {
        assert!((time_scale(1.0) - 1.0).abs() < 1e-12);
        // A machine at 80 % memory speed: its times shrink, but by less
        // than the full 20 %.
        let s = time_scale(0.8);
        assert!(s < 1.0 && s > 0.8, "{s}");
        assert!(time_scale(1.25) > 1.0 && time_scale(1.25) < 1.25);
    }
}
