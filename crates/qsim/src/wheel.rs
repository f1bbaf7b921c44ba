//! Bucketed hierarchical timer wheel — the default event scheduler.
//!
//! The engine's previous scheduler was a `BinaryHeap<Reverse<Event>>`:
//! every push/pop costs `O(log n)` comparisons over a multi-megabyte
//! heap once the closed-loop population reaches 10^5 clients, and the
//! sift chains are cache-hostile. This wheel replaces it with amortized
//! `O(1)` scheduling:
//!
//! * **Slab storage.** Pending events live inline in pre-sized per-slot
//!   slabs (`Vec<Node>` buffers whose capacity is retained across
//!   drains) — zero per-event heap allocation on the hot path once the
//!   slabs reach their high-water mark. A push is a 24-byte append to
//!   the target slot's tail; a drain is a streaming scan of a
//!   contiguous buffer. There are no per-event pointers or handles to
//!   chase, so the scheduler costs a couple of cache-line touches per
//!   event regardless of how many are pending.
//! * **Wide level 0.** The bottom level has `2^16` one-nanosecond slots,
//!   so every delta below ~65 µs — which covers think times, service
//!   times, and poll intervals in every calibrated profile — is placed
//!   directly at its exact due slot and never cascades. A three-tier
//!   occupancy bitmap (slot word → word summary → top word) finds the
//!   next occupied slot in a handful of `trailing_zeros` operations, so
//!   the wheel *jumps* across idle virtual time instead of ticking
//!   through it.
//! * **Coarse upper levels.** Seven 64-slot levels above cover deltas up
//!   to `2^58` ns (≈ 9 virtual years); a level-`k` slot spans
//!   `2^(16+6(k-1))` ns and is re-distributed (cascaded) downward when
//!   the clock reaches its block. Far-past-horizon events take an
//!   ordered calendar map keyed by absolute time; its first key simply
//!   competes with the wheel's minimum bound.
//!
//! **Tie-break discipline.** The engine's determinism contract is a
//! total `(time, seq)` order: same-timestamp events dispatch in push
//! order (FIFO). Every event carries the monotone push sequence number;
//! when a slot's absolute time comes due, the slot buffer is *swapped*
//! into the dispatch queue and sorted by `seq` (the sort is near-free:
//! slots are appended in push order, so the buffer is already sorted —
//! verified in one linear pass — unless a cascade landed behind direct
//! pushes, and then the stable sort just merges the two runs).
//! Cascading preserves this because a higher-level slot is always
//! re-distributed *before* its time range starts dispatching. The
//! reference heap scheduler and the trace-equivalence proptest
//! (`tests/wheel_equivalence.rs`) pin this behaviour.

use std::collections::BTreeMap;

use crate::engine::{EventKind, Scheduler};

/// log2 of the level-0 slot count (and of its span in ns).
const L0_BITS: u32 = 16;
/// Level-0 slots: one nanosecond each.
const L0_SLOTS: usize = 1 << L0_BITS;
/// log2 of the slot count per upper level.
const UP_BITS: u32 = 6;
/// Slots per upper level.
const UP_SLOTS: usize = 1 << UP_BITS;
/// Number of upper levels; deltas at or beyond the horizon
/// (`2^(L0_BITS + UP_BITS * UP_LEVELS)` ns) overflow into the calendar.
const UP_LEVELS: usize = 7;
/// log2 of the wheel horizon (referenced by the horizon tests below).
#[cfg(test)]
const HORIZON_BITS: u32 = L0_BITS + UP_BITS * UP_LEVELS as u32;

/// One pending event (24 bytes), stored inline in slot slabs.
#[derive(Clone, Copy)]
struct Node {
    time: u64,
    seq: u64,
    pid: u32,
    kind: EventKind,
}

/// The hierarchical timer wheel scheduler.
pub(crate) struct TimerWheel {
    /// Wheel clock: the dispatch time of the events currently in `due`.
    /// Never exceeds the time of any pending event.
    now: u64,
    /// Monotone push counter (the FIFO tie-breaker).
    seq: u64,
    /// Pending events (due + wheel + overflow).
    len: usize,
    /// Events due exactly at `now`, in `seq` order; `due_cursor` marks
    /// the next one to dispatch. A refill swaps the due slot's buffer
    /// in here wholesale — dispatch is a bare indexed read, and the
    /// previous dispatch buffer becomes the slot's new (empty, but
    /// still allocated) slab.
    due: Vec<Node>,
    due_cursor: usize,
    /// Level-0 slots: inline event slabs (capacity is retained across
    /// drains, so steady-state churn never reallocates).
    slots0: Vec<Vec<Node>>,
    /// Level-0 occupancy: one bit per slot, summarized twice.
    occ0: Vec<u64>,
    sum0: [u64; L0_SLOTS / (64 * 64)],
    top0: u64,
    /// Upper-level slots, flattened as `level * UP_SLOTS + slot`.
    slots_up: Vec<Vec<Node>>,
    occ_up: [u64; UP_LEVELS],
    /// Calendar fallback for events beyond the wheel horizon, keyed by
    /// absolute time.
    overflow: BTreeMap<u64, Vec<Node>>,
}

impl TimerWheel {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            now: 0,
            seq: 0,
            len: 0,
            due: Vec::with_capacity(n.min(1 << 16)),
            due_cursor: 0,
            slots0: vec![Vec::new(); L0_SLOTS],
            occ0: vec![0; L0_SLOTS / 64],
            sum0: [0; L0_SLOTS / (64 * 64)],
            top0: 0,
            slots_up: vec![Vec::new(); UP_LEVELS * UP_SLOTS],
            occ_up: [0; UP_LEVELS],
            overflow: BTreeMap::new(),
        }
    }

    /// Bit shift of upper level `ul` (0-based).
    #[inline]
    fn up_shift(ul: usize) -> u32 {
        L0_BITS + UP_BITS * ul as u32
    }

    /// Mark a level-0 slot occupied in all three bitmap tiers.
    #[inline]
    fn mark0(&mut self, slot: usize) {
        self.occ0[slot >> 6] |= 1u64 << (slot & 63);
        self.sum0[slot >> 12] |= 1u64 << ((slot >> 6) & 63);
        self.top0 |= 1u64 << (slot >> 12);
    }

    /// Clear a level-0 slot's occupancy bits.
    fn clear0(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occ0[w] &= !(1u64 << (slot & 63));
        if self.occ0[w] == 0 {
            let sw = w >> 6;
            self.sum0[sw] &= !(1u64 << (w & 63));
            if self.sum0[sw] == 0 {
                self.top0 &= !(1u64 << sw);
            }
        }
    }

    /// First occupied level-0 slot at or after `from`, if any (no wrap).
    fn next0_at_or_after(&self, from: usize) -> Option<usize> {
        let w = from >> 6;
        let m = bits_from(self.occ0[w], (from & 63) as u32);
        if m != 0 {
            return Some((w << 6) | m.trailing_zeros() as usize);
        }
        let sw = w >> 6;
        let sm = bits_from(self.sum0[sw], (w & 63) as u32 + 1);
        if sm != 0 {
            let w2 = (sw << 6) | sm.trailing_zeros() as usize;
            return Some((w2 << 6) | self.occ0[w2].trailing_zeros() as usize);
        }
        let tm = bits_from(self.top0, sw as u32 + 1);
        if tm != 0 {
            let sw2 = tm.trailing_zeros() as usize;
            let w2 = (sw2 << 6) | self.sum0[sw2].trailing_zeros() as usize;
            return Some((w2 << 6) | self.occ0[w2].trailing_zeros() as usize);
        }
        None
    }

    /// Lowest occupied level-0 slot, if any.
    fn first0(&self) -> Option<usize> {
        if self.top0 == 0 {
            return None;
        }
        let sw = self.top0.trailing_zeros() as usize;
        let w = (sw << 6) | self.sum0[sw].trailing_zeros() as usize;
        Some((w << 6) | self.occ0[w].trailing_zeros() as usize)
    }

    /// Place an event into the wheel or the overflow calendar according
    /// to its delta from the wheel clock. Used both for fresh pushes
    /// (`delta > 0`) and for cascades (`delta >= 0`).
    fn place(&mut self, node: Node) {
        let time = node.time;
        debug_assert!(time >= self.now, "place: time {time} < now {}", self.now);
        let delta = time - self.now;
        if delta < L0_SLOTS as u64 {
            // Exact one-ns slot. Two distinct times can only share a slot
            // one full 2^16 revolution apart, which needs delta >= 2^16 —
            // so each occupied slot holds exactly one absolute time.
            let slot = (time & (L0_SLOTS as u64 - 1)) as usize;
            let v = &mut self.slots0[slot];
            let newly_occupied = v.is_empty();
            v.push(node);
            if newly_occupied {
                self.mark0(slot);
            }
            return;
        }
        let msb = 63 - delta.leading_zeros();
        let mut ul = ((msb - L0_BITS) / UP_BITS) as usize;
        loop {
            if ul >= UP_LEVELS {
                self.overflow.entry(time).or_default().push(node);
                return;
            }
            let shift = Self::up_shift(ul);
            let slot = ((time >> shift) & (UP_SLOTS as u64 - 1)) as usize;
            // An event one full revolution ahead would alias the slot the
            // clock currently occupies, where the min-bound search could
            // not see past it; promote it a level (terminating at the
            // overflow calendar) so every resident of a slot shares one
            // time block.
            let cur = ((self.now >> shift) & (UP_SLOTS as u64 - 1)) as usize;
            if slot == cur && (time >> (shift + UP_BITS)) != (self.now >> (shift + UP_BITS)) {
                ul += 1;
                continue;
            }
            self.slots_up[ul * UP_SLOTS + slot].push(node);
            self.occ_up[ul] |= 1u64 << slot;
            return;
        }
    }

    /// The exact time of the earliest occupied level-0 slot, plus the
    /// slot index. `None` when level 0 is empty.
    fn min_slot0(&self) -> Option<(usize, u64)> {
        let cur = (self.now & (L0_SLOTS as u64 - 1)) as usize;
        if let Some(s) = self.next0_at_or_after(cur) {
            return Some((s, self.now + (s - cur) as u64));
        }
        // Wrapped: earliest slot belongs to the next revolution.
        let base = self.now & !(L0_SLOTS as u64 - 1);
        self.first0().map(|s| (s, base + L0_SLOTS as u64 + s as u64))
    }

    /// Minimum possible event time in the lowest-time occupied slot of
    /// upper level `ul` (a lower bound; exact when the clock sits inside
    /// the slot's block, where the residents are walked), plus the slot
    /// index. `None` when the level is empty.
    fn min_slot_up(&self, ul: usize) -> Option<(usize, u64)> {
        let occ = self.occ_up[ul];
        if occ == 0 {
            return None;
        }
        let shift = Self::up_shift(ul);
        let cur = ((self.now >> shift) & (UP_SLOTS as u64 - 1)) as u32;
        let span = 1u64 << shift;
        let wbase = (self.now >> (shift + UP_BITS)) << (shift + UP_BITS);
        // Slots at or after the clock's position belong to the current
        // wheel revolution; the rest have wrapped into the next one.
        let ahead = bits_from(occ, cur);
        if ahead != 0 {
            let s = ahead.trailing_zeros();
            if s == cur {
                // The clock sits inside this slot's block, so the block
                // start is in the past and useless as a bound — and a
                // guessed `now + 1` can overshoot: a cascade elsewhere
                // may have advanced the clock to exactly an event's time
                // while it still sits here. Walk the residents for the
                // exact minimum (rare transient state, slots are short).
                let mut mt = u64::MAX;
                for node in &self.slots_up[ul * UP_SLOTS + s as usize] {
                    mt = mt.min(node.time);
                }
                Some((s as usize, mt))
            } else {
                Some((s as usize, wbase + u64::from(s) * span))
            }
        } else {
            let s = occ.trailing_zeros();
            Some((s as usize, wbase + (UP_SLOTS as u64 + u64::from(s)) * span))
        }
    }

    /// Re-distribute an upper-level slot into lower levels once the
    /// clock reaches its block. `bound` is the slot's minimum possible
    /// event time; every pending event is at or after it, so the clock
    /// may advance there.
    fn cascade(&mut self, ul: usize, slot: usize, bound: u64) {
        self.now = self.now.max(bound);
        let mut buf = std::mem::take(&mut self.slots_up[ul * UP_SLOTS + slot]);
        self.occ_up[ul] &= !(1u64 << slot);
        for &node in &buf {
            self.place(node);
        }
        // Hand the (empty) buffer back so the slot keeps its capacity.
        buf.clear();
        self.slots_up[ul * UP_SLOTS + slot] = buf;
    }

    /// Make every event at exactly `time` (level-0 slot and/or overflow
    /// entry) the dispatch queue, sorted by push sequence. Only called
    /// when the previous dispatch buffer is exhausted.
    fn refill_due(&mut self, time: u64, from_slot: Option<usize>) {
        debug_assert_eq!(self.due_cursor, self.due.len());
        self.now = time;
        self.due.clear();
        self.due_cursor = 0;
        if let Some(slot) = from_slot {
            // The slot's slab becomes the dispatch buffer; the old
            // dispatch buffer (cleared, capacity kept) becomes the
            // slot's new slab.
            std::mem::swap(&mut self.due, &mut self.slots0[slot]);
            self.clear0(slot);
            debug_assert!(
                self.due.iter().all(|n| n.time == time),
                "level-0 slot holds a single time"
            );
        }
        if let Some(mut nodes) = self.overflow.remove(&time) {
            self.due.append(&mut nodes);
        }
        // Slots are appended in push order, so this is already sorted
        // (checked in one linear pass) unless a cascade landed behind
        // direct pushes or an overflow entry follows a wheel slot. The
        // stable sort recognizes the sorted runs and merges them.
        if !self.due.is_sorted_by_key(|n| n.seq) {
            self.due.sort_by_key(|n| n.seq);
        }
    }
}

/// `x` with all bits below `b` cleared (`b` may be 64).
#[inline]
fn bits_from(x: u64, b: u32) -> u64 {
    if b >= 64 {
        0
    } else {
        x & (!0u64 << b)
    }
}

impl Scheduler for TimerWheel {
    fn push(&mut self, time: u64, pid: u32, kind: EventKind) {
        debug_assert!(time >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let node = Node { time, seq, pid, kind };
        if time <= self.now {
            // Same-instant event: appending keeps `seq` order because
            // `due` already holds only events at `now` in push order.
            self.due.push(node);
            return;
        }
        self.place(node);
    }

    fn pop(&mut self) -> Option<(u64, u32, EventKind)> {
        loop {
            if let Some(node) = self.due.get(self.due_cursor) {
                let (pid, kind) = (node.pid, node.kind);
                self.due_cursor += 1;
                self.len -= 1;
                return Some((self.now, pid, kind));
            }
            if self.len == 0 {
                return None;
            }
            // Global minimum bound across level 0, the upper levels, and
            // the overflow calendar. Ties prefer the coarsest source so
            // every slot covering the minimum time is cascaded before the
            // exact events dispatch (seq order needs all same-time events
            // in one drain).
            let mut best: Option<(usize, usize, u64)> = None; // (level, slot, bound)
            if let Some((slot, t)) = self.min_slot0() {
                best = Some((0, slot, t));
            }
            for ul in 0..UP_LEVELS {
                if let Some((slot, t)) = self.min_slot_up(ul) {
                    match best {
                        Some((_, _, bt)) if t > bt => {}
                        _ => best = Some((ul + 1, slot, t)),
                    }
                }
            }
            let overflow_min = self.overflow.keys().next().copied();
            match (best, overflow_min) {
                (Some((level, slot, bound)), of) => {
                    if level > 0 && of.is_none_or(|t| bound <= t) {
                        self.cascade(level - 1, slot, bound);
                    } else if level > 0 {
                        // Overflow strictly first.
                        self.refill_due(of.unwrap(), None);
                    } else {
                        // Level 0 is exact; merge an overflow entry at
                        // the same instant so seq order spans both.
                        match of {
                            Some(t) if t < bound => self.refill_due(t, None),
                            _ => self.refill_due(bound, Some(slot)),
                        }
                    }
                }
                (None, Some(t)) => self.refill_due(t, None),
                (None, None) => unreachable!("len > 0 but no pending events"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventKind::{Ready, SegDone};

    fn drain(w: &mut TimerWheel) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, pid, _)) = w.pop() {
            out.push((t, pid));
        }
        out
    }

    #[test]
    fn orders_across_levels() {
        let mut w = TimerWheel::with_capacity(8);
        // Deltas spanning level 0, several upper levels, and mid-range.
        for (i, t) in
            [5u64, 500, 50_000, 5_000_000, 63, 4095, 1 << 30, 1 << 45].iter().enumerate()
        {
            w.push(*t, i as u32, Ready);
        }
        let got = drain(&mut w);
        assert_eq!(
            got,
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
    fn same_time_dispatches_fifo() {
        let mut w = TimerWheel::with_capacity(8);
        for pid in 0..50u32 {
            w.push(1_000, pid, Ready);
        }
        let got = drain(&mut w);
        assert_eq!(got.len(), 50);
        for (i, (t, pid)) in got.iter().enumerate() {
            assert_eq!((*t, *pid), (1_000, i as u32), "FIFO tie-break");
        }
    }

    #[test]
    fn same_time_fifo_survives_cascading() {
        let mut w = TimerWheel::with_capacity(8);
        // pid 0 lands at an upper level (delta 2^16 at now=0); the wheel
        // then advances close to the target, and pid 1 is pushed to the
        // *same* absolute time from close range (level 0). The cascade
        // must not let pid 1 overtake pid 0.
        let t = 1u64 << L0_BITS;
        w.push(t, 0, Ready);
        w.push(t - 6, 9, Ready);
        assert_eq!(w.pop(), Some((t - 6, 9, Ready)));
        w.push(t, 1, Ready);
        assert_eq!(w.pop(), Some((t, 0, Ready)));
        assert_eq!(w.pop(), Some((t, 1, Ready)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn push_at_current_instant_goes_behind_pending_same_time() {
        let mut w = TimerWheel::with_capacity(8);
        w.push(0, 0, Ready);
        w.push(0, 1, Ready);
        assert_eq!(w.pop(), Some((0, 0, Ready)));
        // Dispatch of pid 0 schedules a follow-up at the same instant:
        // it must run after pid 1's pending event.
        w.push(0, 2, SegDone);
        assert_eq!(w.pop(), Some((0, 1, Ready)));
        assert_eq!(w.pop(), Some((0, 2, SegDone)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn far_future_events_take_the_overflow_calendar() {
        let mut w = TimerWheel::with_capacity(8);
        let horizon = 1u64 << HORIZON_BITS;
        w.push(horizon * 3, 2, Ready);
        w.push(horizon * 2, 1, Ready);
        w.push(7, 0, Ready);
        assert!(!w.overflow.is_empty(), "beyond-horizon events must overflow");
        let got = drain(&mut w);
        assert_eq!(got, vec![(7, 0), (horizon * 2, 1), (horizon * 3, 2)]);
    }

    #[test]
    fn overflow_and_wheel_merge_seq_order_at_same_time() {
        let mut w = TimerWheel::with_capacity(8);
        let horizon = 1u64 << HORIZON_BITS;
        let t = horizon + 5;
        w.push(t, 0, Ready); // overflow (delta beyond horizon)
        // Advance the clock close to t, then push the same instant from
        // short range (wheel path).
        w.push(t - 3, 9, Ready);
        assert_eq!(w.pop(), Some((t - 3, 9, Ready)));
        w.push(t, 1, Ready);
        assert_eq!(w.pop(), Some((t, 0, Ready)), "overflow event pushed first");
        assert_eq!(w.pop(), Some((t, 1, Ready)));
    }

    #[test]
    fn slot_slabs_recycle_their_buffers() {
        let mut w = TimerWheel::with_capacity(4);
        for round in 0..100u64 {
            w.push(round * 10 + 1, 0, Ready);
            w.push(round * 10 + 1, 1, Ready);
            assert_eq!(w.pop(), Some((round * 10 + 1, 0, Ready)));
            assert_eq!(w.pop(), Some((round * 10 + 1, 1, Ready)));
        }
        // Steady-state churn must not grow storage: every touched slot
        // keeps a slab bounded by its own peak occupancy (2 events
        // here), and the dispatch buffer swaps into the drained slot
        // rather than reallocating.
        let max_slab = w.slots0.iter().map(Vec::capacity).max().unwrap();
        assert!(
            w.due.capacity() <= 4 && max_slab <= 4,
            "buffers grew (due {}, max slab {max_slab}) for 2 in-flight events",
            w.due.capacity()
        );
    }

    #[test]
    fn empty_wheel_pops_none() {
        let mut w = TimerWheel::with_capacity(0);
        assert_eq!(w.pop(), None);
        w.push(3, 0, Ready);
        assert_eq!(w.pop(), Some((3, 0, Ready)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn u64_extreme_times_are_handled() {
        let mut w = TimerWheel::with_capacity(2);
        w.push(u64::MAX, 1, Ready);
        w.push(1, 0, Ready);
        assert_eq!(w.pop(), Some((1, 0, Ready)));
        assert_eq!(w.pop(), Some((u64::MAX, 1, Ready)));
    }

    #[test]
    fn level0_bitmap_tiers_find_distant_slots() {
        // Events far apart inside the 2^16-slot bottom level exercise the
        // word → summary → top bitmap walk.
        let mut w = TimerWheel::with_capacity(8);
        for (i, t) in [2u64, 70, 4_100, 40_000, 65_000].iter().enumerate() {
            w.push(*t, i as u32, Ready);
        }
        let got = drain(&mut w);
        assert_eq!(got, vec![(2, 0), (70, 1), (4_100, 2), (40_000, 3), (65_000, 4)]);
    }

    #[test]
    fn level0_wrap_around_revolution_boundary() {
        let mut w = TimerWheel::with_capacity(8);
        // Advance the clock deep into the first revolution, then push
        // slots that wrap into the second.
        w.push(65_000, 0, Ready);
        assert_eq!(w.pop(), Some((65_000, 0, Ready)));
        w.push(65_100, 1, Ready); // same revolution, ahead of cur
        w.push(65_536 + 10, 2, Ready); // wrapped: low slot index, next rev
        w.push(65_536 + 70_000, 3, Ready); // beyond level 0 from here
        let got = drain(&mut w);
        assert_eq!(got, vec![(65_100, 1), (65_546, 2), (135_536, 3)]);
    }
}
