//! Monotone radix heap — the engine's event scheduler.
//!
//! The engine never schedules into the past: every push is at or after
//! the time of the event last popped. A radix heap (Ahuja, Mehlhorn,
//! Orlin & Tarjan, 1990) turns that into a priority queue of 65 plain
//! buffers. `last` is the time of the latest refill. Events at exactly
//! `last` wait in the FIFO `due` buffer; an event at a later `t` waits in
//! bucket `63 − (t ^ last).leading_zeros()`, the highest bit in which `t`
//! differs from `last`. When `due` runs out, a refill takes the lowest
//! non-empty bucket (from the `occupied` mask), moves `last` to its
//! minimum and puts each of its events back where it now belongs: the
//! minimum's into `due`, the rest into strictly lower buckets. Higher
//! buckets stay valid, because the new `last` agrees with the old one on
//! every bit above the refilled bucket.
//!
//! **Equal times dispatch in push order**, with no sequence number: all
//! events at one time share one bucket (its index depends only on the
//! time and `last`), every move keeps their order, and a refill moves a
//! bucket only while every lower bucket is empty, so the moved events
//! land ahead of anything pushed there later. The reference heap
//! ([`crate::heap`]) and `tests/scheduler_equivalence.rs` pin this.

use crate::engine::{EventKind, Scheduler};

/// One pending event (16 bytes).
#[derive(Clone, Copy)]
struct Node {
    time: u64,
    pid: u32,
    kind: EventKind,
}

/// The radix-heap scheduler.
pub(crate) struct RadixHeap {
    /// Time of the latest refill; no pending event is earlier.
    last: u64,
    /// Events at exactly `last`, in push order; `cursor` is the next one
    /// to dispatch.
    due: Vec<Node>,
    cursor: usize,
    /// `buckets[b]`: events whose time first differs from `last` at bit
    /// `b`. Drained buffers keep their capacity.
    buckets: [Vec<Node>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
}

impl RadixHeap {
    pub(crate) fn new() -> Self {
        Self {
            last: 0,
            due: Vec::new(),
            cursor: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }

    /// Queue `node`, whose time is at or after `last`.
    #[inline]
    fn place(&mut self, node: Node) {
        if node.time == self.last {
            self.due.push(node);
        } else {
            let b = 63 - (node.time ^ self.last).leading_zeros();
            self.buckets[b as usize].push(node);
            self.occupied |= 1 << b;
        }
    }

    /// Move `last` to the earliest pending time and make its events
    /// `due`. Called with `due` exhausted and some bucket occupied.
    fn refill(&mut self) {
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        self.last = bucket.iter().map(|n| n.time).min().expect("an occupied bucket holds events");
        self.due.clear();
        self.cursor = 0;
        for &node in &bucket {
            self.place(node);
        }
        bucket.clear();
        self.buckets[b] = bucket;
    }
}

impl Scheduler for RadixHeap {
    fn push(&mut self, time: u64, pid: u32, kind: EventKind) {
        assert!(time >= self.last, "scheduling into the past: {time} < {}", self.last);
        self.place(Node { time, pid, kind });
    }

    fn pop(&mut self) -> Option<(u64, u32, EventKind)> {
        if self.cursor == self.due.len() {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let node = self.due[self.cursor];
        self.cursor += 1;
        Some((node.time, node.pid, node.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventKind::{Ready, SegDone};

    fn drain(h: &mut RadixHeap) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, pid, _)) = h.pop() {
            out.push((t, pid));
        }
        out
    }

    #[test]
    fn empty_heap_pops_none() {
        let mut h = RadixHeap::new();
        assert_eq!(h.pop(), None);
        h.push(3, 0, Ready);
        assert_eq!(h.pop(), Some((3, 0, Ready)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn one_event_at_each_magnitude() {
        let mut h = RadixHeap::new();
        // Pushed in a scrambled order: 2^(7k mod 64) visits every
        // exponent 0..64 once.
        for k in 0..64u32 {
            let e = (7 * k) % 64;
            h.push(1u64 << e, e, Ready);
        }
        let want: Vec<(u64, u32)> = (0..64u32).map(|e| (1u64 << e, e)).collect();
        assert_eq!(drain(&mut h), want);
    }

    #[test]
    fn orders_across_buckets() {
        let mut h = RadixHeap::new();
        // Times spanning low, middle and high buckets, pushed out of order.
        for (i, t) in
            [5u64, 500, 50_000, 5_000_000, 63, 4095, 1 << 30, 1 << 45].iter().enumerate()
        {
            h.push(*t, i as u32, Ready);
        }
        assert_eq!(
            drain(&mut h),
            vec![
                (5, 0),
                (63, 4),
                (500, 1),
                (4095, 5),
                (50_000, 2),
                (5_000_000, 3),
                (1 << 30, 6),
                (1 << 45, 7)
            ]
        );
    }

    #[test]
    fn occupied_mask_finds_distant_buckets() {
        let mut h = RadixHeap::new();
        // From `last` = 0 each time lands in the bucket of its top bit;
        // every refill must find the lowest set bit of the mask, skipping
        // the empty buckets between.
        for (i, t) in [2u64, 70, 4_100, 40_000, 65_000].iter().enumerate() {
            h.push(*t, i as u32, Ready);
        }
        assert_eq!(h.occupied, (1 << 1) | (1 << 6) | (1 << 12) | (1 << 15));
        assert_eq!(h.pop(), Some((2, 0, Ready)));
        // The refill at 2 emptied bucket 1 and left the higher ones alone.
        assert_eq!(h.occupied, (1 << 6) | (1 << 12) | (1 << 15));
        assert_eq!(drain(&mut h), vec![(70, 1), (4_100, 2), (40_000, 3), (65_000, 4)]);
        assert_eq!(h.occupied, 0);
    }

    #[test]
    fn same_time_dispatches_fifo() {
        let mut h = RadixHeap::new();
        for pid in 0..50u32 {
            h.push(1_000, pid, Ready);
        }
        let want: Vec<(u64, u32)> = (0..50u32).map(|pid| (1_000, pid)).collect();
        assert_eq!(drain(&mut h), want);
    }

    #[test]
    fn same_time_fifo_survives_redistribution() {
        let mut h = RadixHeap::new();
        // 64, 100 and 101 all share bucket 6 while `last` is 0. Popping 64
        // moves 100 and 101 down to bucket 5, where pid 1's later push
        // at 100 must land behind pids 0 and 2; the next refill then
        // splits 100 (due) from 101 (bucket 0).
        h.push(100, 0, Ready);
        h.push(101, 3, Ready);
        h.push(64, 9, Ready);
        h.push(100, 2, Ready);
        assert_eq!(h.pop(), Some((64, 9, Ready)));
        h.push(100, 1, Ready);
        assert_eq!(drain(&mut h), vec![(100, 0), (100, 2), (100, 1), (101, 3)]);
    }

    #[test]
    fn push_at_current_instant_goes_behind_pending_same_time() {
        let mut h = RadixHeap::new();
        h.push(0, 0, Ready);
        h.push(0, 1, Ready);
        assert_eq!(h.pop(), Some((0, 0, Ready)));
        // Dispatch of pid 0 schedules a follow-up at the same instant:
        // it must run after pid 1's pending event.
        h.push(0, 2, SegDone);
        assert_eq!(h.pop(), Some((0, 1, Ready)));
        assert_eq!(h.pop(), Some((0, 2, SegDone)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn refill_across_a_power_of_two_boundary() {
        let mut h = RadixHeap::new();
        // From `last` = 65 000, 65 100 stays below 2^16 (bucket 9), while
        // 65 546 and 135 536 carry past 2^16 and 2^17 (buckets 16, 17).
        h.push(65_000, 0, Ready);
        assert_eq!(h.pop(), Some((65_000, 0, Ready)));
        h.push(65_536 + 70_000, 3, Ready);
        h.push(65_536 + 10, 2, Ready);
        h.push(65_100, 1, Ready);
        assert_eq!(drain(&mut h), vec![(65_100, 1), (65_546, 2), (135_536, 3)]);
    }

    #[test]
    fn far_future_events_take_the_top_bucket() {
        let mut h = RadixHeap::new();
        let top = 1u64 << 63;
        h.push(top + 3, 2, Ready);
        h.push(top + 2, 1, Ready);
        h.push(7, 0, Ready);
        assert_eq!(h.occupied, (1 << 63) | (1 << 2));
        assert_eq!(drain(&mut h), vec![(7, 0), (top + 2, 1), (top + 3, 2)]);
    }

    #[test]
    fn top_bucket_keeps_push_order_at_equal_times() {
        let mut h = RadixHeap::new();
        let t = (1u64 << 63) + 5;
        h.push(t, 0, Ready);
        h.push(t - 3, 9, Ready);
        assert_eq!(h.pop(), Some((t - 3, 9, Ready)));
        h.push(t, 1, Ready);
        assert_eq!(h.pop(), Some((t, 0, Ready)), "the earlier push dispatches first");
        assert_eq!(h.pop(), Some((t, 1, Ready)));
    }

    #[test]
    fn u64_extreme_times_are_handled() {
        let mut h = RadixHeap::new();
        h.push(u64::MAX, 1, Ready);
        h.push(1, 0, Ready);
        assert_eq!(h.pop(), Some((1, 0, Ready)));
        assert_eq!(h.pop(), Some((u64::MAX, 1, Ready)));
        h.push(u64::MAX, 2, Ready);
        assert_eq!(h.pop(), Some((u64::MAX, 2, Ready)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut h = RadixHeap::new();
        h.push(10, 0, Ready);
        assert_eq!(h.pop(), Some((10, 0, Ready)));
        h.push(9, 1, Ready);
    }

    #[test]
    fn bucket_buffers_keep_bounded_capacity() {
        let mut h = RadixHeap::new();
        for round in 0..100u64 {
            let t = round * 10 + 1;
            h.push(t, 0, Ready);
            h.push(t, 1, Ready);
            assert_eq!(h.pop(), Some((t, 0, Ready)));
            assert_eq!(h.pop(), Some((t, 1, Ready)));
        }
        // Steady churn must not grow storage: each buffer stays bounded
        // by its own peak occupancy (2 events here).
        let max_bucket = h.buckets.iter().map(Vec::capacity).max().unwrap();
        assert!(
            h.due.capacity() <= 4 && max_bucket <= 4,
            "buffers grew (due {}, max bucket {max_bucket}) for 2 in-flight events",
            h.due.capacity()
        );
    }
}
