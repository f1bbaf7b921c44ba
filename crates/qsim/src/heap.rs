//! The original `BinaryHeap` event scheduler, kept as the reference
//! oracle.
//!
//! This is the engine's original scheduler: a min-heap over
//! `(time, seq)` with a monotone push sequence number as the FIFO
//! tie-breaker. It makes no assumption about push times, so it is the
//! oracle the radix heap must match event-for-event
//! (`tests/scheduler_equivalence.rs`), and the baseline the `qsim_scale`
//! bench measures the radix heap's throughput against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::{EventKind, Scheduler};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    pid: u32,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Binary-heap scheduler: `O(log n)` push/pop over heap-allocated
/// entries.
#[derive(Default)]
pub(crate) struct HeapScheduler {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl HeapScheduler {
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for HeapScheduler {
    fn push(&mut self, time: u64, pid: u32, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, pid, kind }));
    }

    fn pop(&mut self) -> Option<(u64, u32, EventKind)> {
        self.heap.pop().map(|Reverse(ev)| (ev.time, ev.pid, ev.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventKind::Ready;

    #[test]
    fn heap_orders_by_time_then_push_order() {
        let mut h = HeapScheduler::new();
        h.push(10, 0, Ready);
        h.push(5, 1, Ready);
        h.push(10, 2, Ready);
        assert_eq!(h.pop(), Some((5, 1, Ready)));
        assert_eq!(h.pop(), Some((10, 0, Ready)));
        assert_eq!(h.pop(), Some((10, 2, Ready)));
        assert_eq!(h.pop(), None);
    }
}
