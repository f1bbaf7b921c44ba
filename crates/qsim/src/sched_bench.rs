//! Raw scheduler benchmark support.
//!
//! The scheduler trait and both implementations are crate-private, so
//! this module exposes the one workload the `qsim_scale` bench needs:
//! closed timer churn. `n` concurrent timers stay armed; each round pops
//! the earliest and re-arms it at a quantized offset drawn from the
//! calibrated think/service-time range (5–80 µs). This isolates pure
//! push/pop scheduling cost — no process dispatch, no client state — so
//! it measures exactly the data structure the engine schedules with.
//!
//! Wall-clock timing is the *caller's* job: `qsim` is a deterministic
//! sim crate and bans `std::time` (lint rule R3). The returned checksum
//! folds every dispatch `(time, pid)` so the two engines can be checked
//! for identical dispatch order and the work cannot be optimized away.

use crate::engine::{EventKind, Scheduler};
use crate::heap::HeapScheduler;
use crate::radix::RadixHeap;

/// Which scheduler implementation to churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The monotone radix heap (the engine's scheduler).
    Radix,
    /// The original `BinaryHeap` scheduler (the baseline).
    Heap,
}

/// Quantized re-arm offsets, matching the calibrated profiles' think and
/// service times.
const QUANT: [u64; 8] = [5_000, 10_000, 20_000, 20_000, 20_000, 40_000, 40_000, 80_000];

/// Run `events` pop/re-arm rounds over `n` concurrent timers and return
/// an order-sensitive checksum of the dispatch sequence.
pub fn churn(kind: EngineKind, n: u32, events: u64, seed: u64) -> u64 {
    match kind {
        EngineKind::Radix => run(RadixHeap::new(), n, events, seed),
        EngineKind::Heap => run(HeapScheduler::new(), n, events, seed),
    }
}

fn run<S: Scheduler>(mut sched: S, n: u32, events: u64, seed: u64) -> u64 {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for pid in 0..n {
        sched.push(QUANT[(next() % 8) as usize], pid, EventKind::Ready);
    }
    let mut sum = 0u64;
    for _ in 0..events {
        let (time, pid, kind) = sched.pop().expect("closed churn never drains");
        // Order-sensitive fold: any divergence in dispatch order between
        // engines changes the checksum.
        sum = sum.wrapping_mul(0x100_0000_01B3).wrapping_add(time ^ u64::from(pid));
        sched.push(time + QUANT[(next() % 8) as usize], pid, kind);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_and_heap_churn_identically() {
        for n in [1u32, 7, 168, 1_000] {
            let r = churn(EngineKind::Radix, n, 10_000, 42);
            let h = churn(EngineKind::Heap, n, 10_000, 42);
            assert_eq!(r, h, "dispatch order diverges at n={n}");
        }
    }
}
