//! Bounded PUSH/PULL pipeline.
//!
//! Built on a mutex-protected ring plus condvars rather than an external
//! channel so the queue can number every message it takes, record exactly
//! which numbers a broker crash wiped (the redelivery layer reconciles
//! against both, see [`LinkView`]) and keep precise disconnect semantics:
//! consumers drain everything that was sent before the last publisher
//! dropped. The ring's mutex is the only lock in this crate: the
//! redelivery window is a plain structure under its owner's lock.

use std::collections::VecDeque;
use std::sync::Arc;

use syncguard::{level, Condvar, Mutex};

/// Error from a blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// All publishers dropped and the queue is empty.
    Disconnected,
}

/// Error from a non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Queue currently empty (publishers still connected).
    Empty,
    /// All publishers dropped and the queue is empty.
    Disconnected,
}

struct State<T> {
    buf: VecDeque<T>,
    publishers: usize,
    consumers: usize,
    sent: u64,
    received: u64,
    /// Broker link down: sends fail fast until [`Publisher::heal`].
    severed: bool,
    /// `[lo, hi)` sequence intervals wiped by lossy severs — the exact
    /// set of messages that left the buffer *without* being consumed.
    /// One entry per fault event.
    wipes: Vec<(u64, u64)>,
    /// Scripted duplication: the next `dup_next` successful sends are
    /// enqueued twice (fault-plane message duplication).
    dup_next: u32,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Create a bounded PUSH/PULL pair.
pub fn push_pull<T>(capacity: usize) -> (Publisher<T>, Consumer<T>) {
    assert!(capacity > 0, "queue capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(level::QUEUE, "mq.queue", State {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            publishers: 1,
            consumers: 1,
            sent: 0,
            received: 0,
            severed: false,
            wipes: Vec::new(),
            dup_next: 0,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Publisher { shared: Arc::clone(&shared) }, Consumer { shared })
}

/// Why a [`Publisher::send_seq`] could not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// The broker link is severed ([`Publisher::sever`]); retry after
    /// [`Publisher::heal`].
    Severed,
    /// Every consumer is gone for good.
    NoConsumers,
    /// The queue is at capacity ([`Publisher::send_seq`] without `wait`).
    Full,
}

/// Broker-side view the redelivery layer reconciles against: how far the
/// FIFO has drained and which sequence intervals were wiped by lossy
/// severs (messages in those intervals were provably lost; everything
/// else below `received` was provably consumed).
#[derive(Debug, Clone)]
pub struct LinkView {
    /// Messages removed from the broker buffer so far — consumed by a
    /// receiver or wiped by a sever. A message enqueued with sequence
    /// `s` has left the buffer iff `s < received`.
    pub received: u64,
    /// Link currently down.
    pub severed: bool,
    /// `[lo, hi)` sequence intervals wiped by lossy severs, one entry per
    /// fault event, oldest first — those past the `wipes_seen` the view
    /// was asked for (empty, and unallocated, on a healthy link).
    pub wipes: Vec<(u64, u64)>,
}

impl LinkView {
    /// Was the message enqueued at `seq` lost with the broker?
    pub fn lost(&self, seq: u64) -> bool {
        self.wipes.iter().any(|&(lo, hi)| lo <= seq && seq < hi)
    }
}

/// Sending side. Clone to add publishers.
pub struct Publisher<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Publisher<T> {
    /// Block until there is room, then enqueue. Returns `Err(msg)` when
    /// every consumer is gone or the broker link is severed (callers that
    /// must survive a severed link send through a [`RedeliveryWindow`]).
    ///
    /// [`RedeliveryWindow`]: crate::redelivery::RedeliveryWindow
    pub fn send(&self, msg: T) -> Result<(), T> {
        syncguard::enter_blocking("mq::Publisher::send");
        let mut st = self.shared.state.lock();
        loop {
            if st.consumers == 0 || st.severed {
                return Err(msg);
            }
            if st.buf.len() < self.shared.capacity {
                st.buf.push_back(msg);
                st.sent += 1;
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            self.shared.not_full.wait(&mut st);
        }
    }

    /// Simulate broker loss: the link goes down, every buffered message
    /// is wiped (recorded as a lost-sequence interval for the redelivery
    /// layer), and sends fail fast until [`heal`](Self::heal). Blocked
    /// senders are woken so they can observe the fault.
    pub fn sever(&self) -> usize {
        let mut st = self.shared.state.lock();
        st.severed = true;
        let lost = st.buf.len();
        if lost > 0 {
            let hi = st.sent;
            let lo = hi - lost as u64;
            st.wipes.push((lo, hi));
            // Wiped messages are gone from the buffer: advance `received`
            // past them so sequence/pop alignment survives the wipe.
            st.received = hi;
            st.buf.clear();
        }
        drop(st);
        self.shared.not_full.notify_all();
        lost
    }

    /// Partition the link *without* broker loss: sends fail fast until
    /// [`heal`](Self::heal), but messages already buffered at the broker
    /// survive and keep draining to consumers.
    pub fn partition(&self) {
        let mut st = self.shared.state.lock();
        st.severed = true;
        drop(st);
        self.shared.not_full.notify_all();
    }

    /// Bring a severed or partitioned broker link back up.
    pub fn heal(&self) {
        self.shared.state.lock().severed = false;
    }

    /// Is the link down (severed or partitioned, not yet healed)?
    pub fn is_severed(&self) -> bool {
        self.shared.state.lock().severed
    }

    /// Arm scripted message duplication: the next `n` messages enqueued
    /// through [`send_seq`](Self::send_seq) are delivered twice
    /// (back-to-back), modelling a fault-plane duplicated send.
    pub fn arm_duplicates(&self, n: u32) {
        self.shared.state.lock().dup_next += n;
    }

    /// Snapshot the broker-side drain state (see [`LinkView`]) for a
    /// caller that has already seen the first `wipes_seen` wipe intervals.
    pub fn link_view(&self, wipes_seen: usize) -> LinkView {
        let st = self.shared.state.lock();
        LinkView {
            received: st.received,
            severed: st.severed,
            wipes: st.wipes[wipes_seen..].to_vec(),
        }
    }
}

impl<T: Clone> Publisher<T> {
    /// Like [`send`](Self::send), but reports the FIFO sequence assigned
    /// to the message so the redelivery layer can later prove whether it
    /// was consumed or lost. Fails fast (never blocks) on a severed link.
    /// `wait` says what a queue at capacity means: wait for room, or — for
    /// a sender that must not wait, the queue's own consumer redelivering
    /// into it — `Err(SendFault::Full)`.
    pub fn send_seq(&self, msg: &T, wait: bool) -> Result<u64, SendFault> {
        if wait {
            syncguard::enter_blocking("mq::Publisher::send_seq");
        }
        let mut st = self.shared.state.lock();
        loop {
            if st.severed {
                return Err(SendFault::Severed);
            }
            if st.consumers == 0 {
                return Err(SendFault::NoConsumers);
            }
            if st.buf.len() < self.shared.capacity {
                let seq = st.sent;
                st.buf.push_back(msg.clone());
                st.sent += 1;
                if st.dup_next > 0 && st.buf.len() < self.shared.capacity {
                    st.dup_next -= 1;
                    st.buf.push_back(msg.clone());
                    st.sent += 1;
                }
                self.shared.not_empty.notify_one();
                return Ok(seq);
            }
            if !wait {
                return Err(SendFault::Full);
            }
            self.shared.not_full.wait(&mut st);
        }
    }
}

impl<T> Clone for Publisher<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().publishers += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Publisher<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.publishers -= 1;
        if st.publishers == 0 {
            // Wake consumers so they can observe the disconnect.
            drop(st);
            self.shared.not_empty.notify_all();
        }
    }
}

/// Receiving side. Clone to add competing consumers (each message goes to
/// exactly one).
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Consumer<T> {
    /// Block until a message arrives or all publishers disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        syncguard::enter_blocking("mq::Consumer::recv");
        let mut st = self.shared.state.lock();
        loop {
            if let Some(msg) = st.buf.pop_front() {
                st.received += 1;
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if st.publishers == 0 {
                return Err(RecvError::Disconnected);
            }
            self.shared.not_empty.wait(&mut st);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.state.lock();
        if let Some(msg) = st.buf.pop_front() {
            st.received += 1;
            self.shared.not_full.notify_one();
            return Ok(msg);
        }
        if st.publishers == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Non-blocking receive of the head only if `accept` takes it: a head
    /// the predicate refuses stays at the head for the next receive.
    /// `None` when the queue is empty or the head was refused.
    pub fn try_recv_if(&self, accept: impl FnOnce(&T) -> bool) -> Option<T> {
        let mut st = self.shared.state.lock();
        if !accept(st.buf.front()?) {
            return None;
        }
        let msg = st.buf.pop_front()?;
        st.received += 1;
        self.shared.not_full.notify_one();
        Some(msg)
    }
}

impl<T> Clone for Consumer<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().consumers += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.consumers -= 1;
        if st.consumers == 0 {
            drop(st);
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_single_thread() {
        let (tx, rx) = push_pull::<u32>(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn try_recv_if_leaves_a_refused_head_in_place() {
        let (tx, rx) = push_pull::<u32>(4);
        assert_eq!(rx.try_recv_if(|_| true), None, "empty");
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv_if(|&v| v == 2), None, "head refused");
        assert_eq!(rx.try_recv_if(|&v| v == 1), Some(1));
        assert_eq!(tx.link_view(0).received, 1, "an accepted head counts as received");
        assert_eq!(rx.try_recv(), Ok(2));
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = push_pull::<u32>(4);
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_without_consumers() {
        let (tx, rx) = push_pull::<u32>(4);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn try_send_respects_capacity() {
        let (tx, rx) = push_pull::<u32>(2);
        assert_eq!(tx.send_seq(&1, false), Ok(0));
        assert_eq!(tx.send_seq(&2, false), Ok(1));
        assert_eq!(tx.send_seq(&3, false), Err(SendFault::Full));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(tx.send_seq(&3, false), Ok(2), "room again once the consumer popped");
    }

    #[test]
    fn backpressure_blocks_and_releases() {
        let (tx, rx) = push_pull::<u32>(1);
        tx.send(0).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(1).unwrap(); // blocks until consumer pops
            drop(tx);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.recv().unwrap(), 1);
        t.join().unwrap();
    }

    #[test]
    fn producer_crash_during_recv_reports_disconnect() {
        // A producer crashing while the consumer is parked in `recv` must
        // wake it with `Disconnected`, not leave it waiting.
        let (tx, rx) = push_pull::<u32>(4);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            drop(tx); // crash: publisher dies without sending
        });
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        producer.join().unwrap();
    }

    #[test]
    fn many_publishers_one_consumer() {
        let (tx, rx) = push_pull::<u32>(64);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(t * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 400);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 400, "no message may be duplicated or lost");
    }

    #[test]
    fn panicked_worker_does_not_wedge_publishers() {
        // A worker thread that panics mid-consumption must not poison the
        // queue lock: syncguard locks are non-poisoning, so every
        // subsequent publisher and consumer proceeds normally.
        let (tx, rx) = push_pull::<u32>(16);
        tx.send(1).unwrap();
        let rx2 = rx.clone();
        let worker = std::thread::spawn(move || {
            let v = rx2.recv().unwrap();
            panic!("worker dies holding queue state in scope: {v}");
        });
        assert!(worker.join().is_err());
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn severed_link_fails_sends_fast_and_heals() {
        let (tx, rx) = push_pull::<u32>(4);
        tx.send(1).unwrap();
        assert_eq!(tx.sever(), 1, "one buffered message wiped");
        assert!(tx.is_severed());
        assert_eq!(tx.send(2), Err(2));
        assert_eq!(tx.send_seq(&4, true), Err(SendFault::Severed));
        assert_eq!(tx.send_seq(&4, false), Err(SendFault::Severed));
        // Consumers see an empty-but-connected queue while severed.
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.heal();
        assert!(!tx.is_severed());
        tx.send(5).unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
    }

    #[test]
    fn lossy_sever_records_exact_wipe_intervals() {
        let (tx, rx) = push_pull::<u32>(8);
        // seqs 0,1 consumed; seqs 2,3 wiped; seq 4 sent after heal.
        assert_eq!(tx.send_seq(&10, true), Ok(0));
        assert_eq!(tx.send_seq(&11, true), Ok(1));
        assert_eq!(rx.recv().unwrap(), 10);
        assert_eq!(rx.recv().unwrap(), 11);
        assert_eq!(tx.send_seq(&12, true), Ok(2));
        assert_eq!(tx.send_seq(&13, true), Ok(3));
        assert_eq!(tx.sever(), 2);
        tx.heal();
        assert_eq!(tx.send_seq(&14, true), Ok(4));
        let view = tx.link_view(0);
        assert_eq!(view.wipes, vec![(2, 4)]);
        assert!(!view.lost(0) && !view.lost(1), "consumed messages are not lost");
        assert!(view.lost(2) && view.lost(3), "wiped messages are provably lost");
        assert!(!view.lost(4));
        // Alignment survives the wipe: seq 4 pops as received reaches 5.
        assert_eq!(view.received, 4);
        assert_eq!(rx.recv().unwrap(), 14);
        let later = tx.link_view(1);
        assert_eq!(later.received, 5);
        assert!(later.wipes.is_empty(), "a wipe already seen is not reported again");
    }

    #[test]
    fn armed_duplicates_deliver_twice_back_to_back() {
        let (tx, rx) = push_pull::<u32>(8);
        tx.arm_duplicates(1);
        assert_eq!(tx.send_seq(&7, true), Ok(0));
        assert_eq!(tx.send_seq(&8, true), Ok(2), "the duplicate consumed seq 1");
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap(), 8);
    }

    #[test]
    fn competing_consumers_partition_messages() {
        let (tx, rx1) = push_pull::<u32>(256);
        let rx2 = rx1.clone();
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let h1 = std::thread::spawn(move || {
            let mut v = Vec::new();
            while let Ok(m) = rx1.recv() {
                v.push(m);
            }
            v
        });
        let h2 = std::thread::spawn(move || {
            let mut v = Vec::new();
            while let Ok(m) = rx2.recv() {
                v.push(m);
            }
            v
        });
        let mut all = h1.join().unwrap();
        all.extend(h2.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
