//! The barrier board: multi-node rendezvous for barrier commit
//! (Section III.E-2, Fig. 6).
//!
//! One dependent operation at a time (they are serialized region-wide):
//!
//! 1. the triggering client calls [`BarrierBoard::start_barrier`], which
//!    takes the exclusive barrier slot and yields the new epoch number;
//! 2. the client pushes a `Barrier { epoch }` marker into every node's
//!    queue and drives the commit processes itself until
//!    [`BarrierBoard::all_reached`] (`RegionCore::barrier`);
//! 3. each commit process drains everything ahead of its marker, then
//!    reports [`BarrierBoard::worker_reached`] and stalls;
//! 4. once all workers reached, the client performs the dependent
//!    operation synchronously and calls [`BarrierGuard::complete`], which
//!    advances the epoch; a stalled worker resumes at its next step, once
//!    [`BarrierBoard::is_released`] says so.
//!
//! The board only answers polls: nobody ever sleeps on it, so the same
//! protocol runs on threads and inside the single-threaded discrete-event
//! engine.

use syncguard::{level, Mutex, MutexGuard};

struct BoardState {
    /// Completed epoch: all ops with `epoch <= current` are committed.
    current: u64,
    /// Epoch of the in-flight barrier, if one is active.
    active: Option<u64>,
    /// Workers that reported reaching the active barrier.
    reached: usize,
}

/// Region-wide barrier coordination.
///
/// Two locks with very different spans: `slot` is *outermost* — it is held
/// by the triggering client across the whole dependent operation (outbox
/// flush, queue sends, cache invalidation, the DFS mutation itself) — while
/// `state` is a short-lived leaf taken by clients and workers alike, often
/// while an outbox lock is already held (the epoch read when the outbox
/// cuts a batch). Hence the distinct lock levels.
pub struct BarrierBoard {
    workers: usize,
    state: Mutex<BoardState>,
    /// Serializes dependent operations.
    slot: Mutex<()>,
}

impl BarrierBoard {
    /// `workers` = number of commit processes (one per node).
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "barrier board needs at least one worker");
        Self {
            workers,
            state: Mutex::new(
                level::BARRIER,
                "pacon.barrier.state",
                BoardState { current: 0, active: None, reached: 0 },
            ),
            slot: Mutex::new(level::REGION, "pacon.barrier.slot", ()),
        }
    }

    /// Epoch whose operations are all known committed.
    pub fn current_epoch(&self) -> u64 {
        self.state.lock().current
    }

    /// Begin a dependent operation: blocks until the exclusive slot is
    /// free, then opens epoch `current + 1`.
    pub fn start_barrier(&self) -> BarrierGuard<'_> {
        let slot = self.slot.lock();
        let mut st = self.state.lock();
        debug_assert!(st.active.is_none(), "exclusive slot must prevent double barriers");
        let epoch = st.current + 1;
        st.active = Some(epoch);
        st.reached = 0;
        drop(st);
        BarrierGuard { board: self, epoch, _slot: slot, completed: false }
    }

    /// A commit process reports that it consumed the marker for `epoch`
    /// and has nothing older left. False — and nothing is counted — when
    /// that barrier is already over: its client abandoned it (a marker
    /// could not be posted on another node) before this worker got here.
    pub fn worker_reached(&self, epoch: u64) -> bool {
        let mut st = self.state.lock();
        if st.current >= epoch {
            return false;
        }
        assert_eq!(
            st.active,
            Some(epoch),
            "worker reached barrier {epoch} but active is {:?}",
            st.active
        );
        st.reached += 1;
        assert!(st.reached <= self.workers, "more reports than workers");
        true
    }

    /// Non-blocking: has the barrier for `epoch` been completed (workers
    /// may resume)?
    pub fn is_released(&self, epoch: u64) -> bool {
        self.state.lock().current >= epoch
    }

    /// Non-blocking: how many workers reached the active barrier?
    pub fn reached_count(&self) -> usize {
        self.state.lock().reached
    }

    /// True once all workers reached `epoch`.
    pub fn all_reached(&self, epoch: u64) -> bool {
        let st = self.state.lock();
        st.active == Some(epoch) && st.reached >= self.workers
    }

    fn complete_inner(&self, epoch: u64) {
        let mut st: MutexGuard<'_, BoardState> = self.state.lock();
        assert_eq!(st.active, Some(epoch));
        st.active = None;
        st.current = epoch;
        st.reached = 0;
    }
}

/// RAII handle of an in-flight barrier, held by the triggering client.
pub struct BarrierGuard<'b> {
    board: &'b BarrierBoard,
    epoch: u64,
    _slot: MutexGuard<'b, ()>,
    completed: bool,
}

impl BarrierGuard<'_> {
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Dependent operation done: advance the epoch and release workers.
    pub fn complete(mut self) {
        self.completed = true;
        self.board.complete_inner(self.epoch);
    }
}

impl Drop for BarrierGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            // A failed dependent op must still release the workers, or the
            // region wedges.
            self.board.complete_inner(self.epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn epochs_advance_in_order() {
        let b = BarrierBoard::new(1);
        assert_eq!(b.current_epoch(), 0);
        let g = b.start_barrier();
        assert_eq!(g.epoch(), 1);
        b.worker_reached(1);
        assert!(b.all_reached(1));
        g.complete();
        assert_eq!(b.current_epoch(), 1);
        assert!(b.is_released(1));
        assert!(!b.is_released(2));
    }

    #[test]
    fn guard_drop_releases_on_failure() {
        let b = BarrierBoard::new(1);
        {
            let g = b.start_barrier();
            b.worker_reached(g.epoch());
            // Dependent op "failed": guard dropped without complete().
        }
        assert_eq!(b.current_epoch(), 1, "drop must still advance the epoch");
        assert!(!b.worker_reached(1), "a late report to the abandoned barrier is refused");
    }

    #[test]
    fn multi_worker_rendezvous_with_threads() {
        let b = Arc::new(BarrierBoard::new(3));
        let g = b.start_barrier();
        let epoch = g.epoch();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                b.worker_reached(epoch);
                while !b.is_released(epoch) {
                    std::thread::yield_now();
                }
            }));
        }
        while !b.all_reached(epoch) {
            std::thread::yield_now();
        }
        assert_eq!(b.reached_count(), 3);
        g.complete();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.current_epoch(), epoch);
    }

    #[test]
    fn concurrent_barriers_serialize() {
        let b = Arc::new(BarrierBoard::new(1));
        let b2 = Arc::clone(&b);
        let g1 = b.start_barrier();
        let t = std::thread::spawn(move || {
            // Blocks until g1 completes.
            let g2 = b2.start_barrier();
            assert_eq!(g2.epoch(), 2);
            b2.worker_reached(2);
            while !b2.all_reached(2) {
                std::thread::yield_now();
            }
            g2.complete();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.worker_reached(g1.epoch());
        while !b.all_reached(g1.epoch()) {
            std::thread::yield_now();
        }
        g1.complete();
        t.join().unwrap();
        assert_eq!(b.current_epoch(), 2);
    }

    #[test]
    fn polling_interface_for_des() {
        let b = BarrierBoard::new(2);
        let g = b.start_barrier();
        assert!(!b.all_reached(1));
        b.worker_reached(1);
        assert!(!b.all_reached(1));
        b.worker_reached(1);
        assert!(b.all_reached(1));
        assert!(!b.is_released(1));
        g.complete();
        assert!(b.is_released(1));
    }
}
