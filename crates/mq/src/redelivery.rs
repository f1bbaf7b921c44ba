//! Publisher-side redelivery over a lossy broker link.
//!
//! [`ReliablePublisher`] wraps a [`Publisher`] and keeps every message it
//! has sent in an *unacked window* until the broker provably consumed it.
//! The broker's FIFO drain counter plus the exact wipe intervals recorded
//! by lossy severs ([`Publisher::sever`]) let the window classify every
//! record with certainty:
//!
//! * `seq < received` and not inside a wipe interval → **consumed**,
//!   drop it from the window;
//! * `seq < received` and inside a wipe interval → **lost with the
//!   broker**, re-send it;
//! * `seq >= received` → still buffered at the broker, leave it alone;
//! * never assigned a sequence (the link was severed at publish time) →
//!   buffered locally, send it when the link heals.
//!
//! Because only provably-lost and never-sent messages are redelivered,
//! this layer by itself introduces **no duplicates**; Pacon's
//! `(path, write_id, generation)` idempotence is still what makes
//! scripted duplication (`Publisher::arm_duplicates`) and crash-replay
//! harmless downstream.

use std::collections::VecDeque;

use syncguard::{level, Mutex};

use crate::queue::{LinkView, Publisher, SendFault};

/// Every consumer of the queue is gone for good — the publish cannot ever
/// be delivered (normal at shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// One window record: the sequence the broker assigned to the latest
/// delivered copy (`None` while the message waits for a healed link).
struct Record<T> {
    seq: Option<u64>,
    msg: T,
}

/// The unacked window, oldest publish first, with what a settle needs to
/// touch only the records it changes.
struct Window<T> {
    records: VecDeque<Record<T>>,
    /// Records whose `seq` is `None`.
    undelivered: usize,
    /// Wipe intervals of the link already applied to `records`.
    wipes_applied: usize,
}

/// Outcome of a [`ReliablePublisher::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushOutcome {
    /// Messages (re)delivered to the broker by this flush.
    pub delivered: usize,
    /// Messages still waiting for the link to heal.
    pub pending: usize,
    /// Window records this flush looked at: a few on a healthy link,
    /// however long the window; the whole window once per broker crash.
    pub visited: usize,
}

/// A [`Publisher`] that survives broker loss by buffering undeliverable
/// messages and redelivering provably-lost ones, in publish order. It
/// sends clones: give it a `T` that is cheap to clone (an `Arc`) and the
/// window shares each message with the broker instead of copying it.
pub struct ReliablePublisher<T: Clone> {
    inner: Publisher<T>,
    window: Mutex<Window<T>>,
}

impl<T: Clone> ReliablePublisher<T> {
    pub fn new(inner: Publisher<T>) -> Self {
        Self {
            inner,
            window: Mutex::new(
                level::REDELIVERY,
                "mq.redelivery",
                Window { records: VecDeque::new(), undelivered: 0, wipes_applied: 0 },
            ),
        }
    }

    /// The wrapped publisher (for link control / inspection).
    pub fn inner(&self) -> &Publisher<T> {
        &self.inner
    }

    /// Publish with redelivery. On a severed link the message is buffered
    /// and `Ok` is returned — a later [`flush`](Self::flush) or publish
    /// delivers it once the link heals. `Err(Disconnected)` only when
    /// every consumer is gone for good.
    pub fn publish(&self, msg: T) -> Result<FlushOutcome, Disconnected> {
        let mut window = self.window.lock();
        window.records.push_back(Record { seq: None, msg });
        window.undelivered += 1;
        Self::settle(&self.inner, &mut window, true)
    }

    /// Reconcile the window against the broker: drop consumed records,
    /// re-send lost and never-sent ones (in order).
    pub fn flush(&self) -> Result<FlushOutcome, Disconnected> {
        Self::settle(&self.inner, &mut self.window.lock(), true)
    }

    /// [`flush`](Self::flush) for the queue's own consumer, which must
    /// wait for nothing a publisher holds: a publish or flush keeps the
    /// window locked while it waits for room in a full queue, and only the
    /// consumer makes room. `None` while another settle has the window
    /// (it is doing this work) or with every consumer gone; delivery stops
    /// at a full queue and the rest stays pending.
    pub fn try_flush(&self) -> Option<FlushOutcome> {
        Self::settle(&self.inner, &mut *self.window.try_lock()?, false).ok()
    }

    /// Messages not yet provably consumed (delivered-but-buffered plus
    /// waiting-for-heal).
    pub fn unacked(&self) -> usize {
        self.window.lock().records.len()
    }

    /// Take back, in publish order, every message that is not at the
    /// broker and was not consumed — never sent, or lost with a crashed
    /// broker: nothing redelivers them afterwards.
    pub fn drop_undelivered(&self) -> Vec<T> {
        let mut window = self.window.lock();
        let view = self.inner.link_view(window.wipes_applied);
        Self::demote_lost(&view, &mut window);
        let (kept, dropped): (VecDeque<_>, VecDeque<_>) =
            std::mem::take(&mut window.records).into_iter().partition(|rec| rec.seq.is_some());
        window.records = kept;
        window.undelivered = 0;
        dropped.into_iter().map(|rec| rec.msg).collect()
    }

    /// Apply the wipe intervals `view` reports as new: a record delivered
    /// into one was lost with the broker and is undelivered again. The one
    /// pass over the whole window, paid once per broker crash. Returns the
    /// records visited.
    fn demote_lost(view: &LinkView, window: &mut Window<T>) -> usize {
        if view.wipes.is_empty() {
            return 0;
        }
        window.wipes_applied += view.wipes.len();
        for rec in window.records.iter_mut() {
            if rec.seq.is_some_and(|seq| view.lost(seq)) {
                rec.seq = None;
                window.undelivered += 1;
            }
        }
        window.records.len()
    }

    fn settle(
        inner: &Publisher<T>,
        window: &mut Window<T>,
        wait: bool,
    ) -> Result<FlushOutcome, Disconnected> {
        if window.records.is_empty() {
            // Nothing to reconcile: an idle consumer's settle stops here,
            // without a look at the broker.
            return Ok(FlushOutcome::default());
        }
        let view = inner.link_view(window.wipes_applied);
        let mut out = FlushOutcome { visited: Self::demote_lost(&view, window), ..Default::default() };
        // Every lost record is demoted, so a delivered record the broker
        // no longer holds was consumed. Sequences ascend along the window:
        // consumed records form a prefix.
        while window.records.front().is_some_and(|r| r.seq.is_some_and(|seq| seq < view.received)) {
            window.records.pop_front();
            out.visited += 1;
        }
        if !view.severed && window.undelivered > 0 {
            // Delivery stops at the first refusal, so the undelivered
            // records are the window's tail (a crash between two sends of
            // one pass can leave a delivered record among them): walk back
            // to the oldest, then send in window order so per-publisher
            // FIFO survives the outage.
            let mut oldest = window.records.len();
            let mut found = 0;
            while found < window.undelivered {
                oldest -= 1;
                found += window.records[oldest].seq.is_none() as usize;
            }
            out.visited += window.records.len() - oldest;
            for rec in window.records.range_mut(oldest..) {
                if rec.seq.is_some() {
                    continue;
                }
                let sent = if wait {
                    // permit_blocking: a full-but-connected queue resolves
                    // once the consumer drains it, exactly like a plain
                    // `send`.
                    syncguard::permit_blocking(|| inner.send_seq(&rec.msg))
                } else {
                    inner.try_send_seq(&rec.msg)
                };
                match sent {
                    Ok(seq) => {
                        rec.seq = Some(seq);
                        window.undelivered -= 1;
                        out.delivered += 1;
                    }
                    Err(SendFault::Severed | SendFault::Full) => break,
                    Err(SendFault::NoConsumers) => return Err(Disconnected),
                }
            }
        }
        out.pending = window.undelivered;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::push_pull;

    #[test]
    fn delivers_normally_when_link_is_up() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        for i in 0..5 {
            let out = rp.publish(i).unwrap();
            assert_eq!(out.pending, 0);
        }
        for i in 0..5 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        // Consumed records are trimmed at the next publish.
        rp.publish(99).unwrap();
        assert_eq!(rp.unacked(), 1);
    }

    #[test]
    fn buffers_across_a_severed_link_and_redelivers_in_order() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        rp.publish(1).unwrap();
        rp.inner().sever();
        // Published while down: buffered, not an error.
        let out = rp.publish(2).unwrap();
        assert_eq!(out.pending, 2, "wiped message plus the new one");
        let out = rp.publish(3).unwrap();
        assert_eq!(out.pending, 3);
        assert!(rx.try_recv().is_err());
        rp.inner().heal();
        let out = rp.flush().unwrap();
        assert_eq!(out.delivered, 3);
        assert_eq!(out.pending, 0);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn consumed_messages_are_never_redelivered() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        rp.publish(1).unwrap();
        rp.publish(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        // Broker loss after consumption: nothing to redeliver.
        rp.inner().sever();
        rp.inner().heal();
        let out = rp.flush().unwrap();
        assert_eq!(out.delivered, 0);
        assert_eq!(rp.unacked(), 0);
        assert!(rx.try_recv().is_err(), "no duplicate deliveries");
    }

    #[test]
    fn partially_consumed_window_redelivers_only_the_lost_tail() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        for i in 0..4 {
            rp.publish(i).unwrap();
        }
        // Consumer drains half; the rest dies with the broker.
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.recv().unwrap(), 1);
        rp.inner().sever();
        rp.inner().heal();
        rp.flush().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        assert!(rx.try_recv().is_err(), "2 and 3 arrive exactly once");
    }

    #[test]
    fn repeated_outages_preserve_order_and_exactly_once() {
        let (tx, rx) = push_pull::<u32>(64);
        let rp = ReliablePublisher::new(tx);
        let mut expect = Vec::new();
        let mut got = Vec::new();
        for round in 0..5u32 {
            for i in 0..4 {
                let v = round * 10 + i;
                rp.publish(v).unwrap();
                expect.push(v);
            }
            // Crash the broker mid-round, consuming a prefix first on
            // even rounds so wipes land at varying offsets.
            if round % 2 == 0 {
                got.push(rx.recv().unwrap());
            }
            rp.inner().sever();
            rp.inner().heal();
            rp.flush().unwrap();
            while let Ok(v) = rx.try_recv() {
                got.push(v);
            }
        }
        assert_eq!(got, expect, "every publish arrives exactly once, in order");
        rp.flush().unwrap();
        assert_eq!(rp.unacked(), 0);
    }

    #[test]
    fn disconnected_when_all_consumers_gone() {
        let (tx, rx) = push_pull::<u32>(4);
        let rp = ReliablePublisher::new(tx);
        drop(rx);
        assert_eq!(rp.publish(1), Err(Disconnected));
    }

    /// Counted, not timed: a publish on a healthy link trims the consumed
    /// prefix and sends one record, however long the window has grown.
    #[test]
    fn a_publish_on_a_healthy_link_visits_a_constant_number_of_records() {
        const N: usize = 10_000;
        let (tx, rx) = push_pull::<usize>(2 * N);
        let rp = ReliablePublisher::new(tx);
        // No consumer progress: the window only grows.
        for i in 0..N {
            let out = rp.publish(i).unwrap();
            assert!(out.visited <= 2, "publish {i} visited {} records", out.visited);
        }
        assert_eq!(rp.unacked(), N);
        // A consumer that keeps up: each publish also trims what it took.
        for i in 0..N {
            assert_eq!(rx.recv().unwrap(), i);
            assert!(rp.publish(N + i).unwrap().visited <= 3);
        }
        assert_eq!(rp.unacked(), N);
        // A broker crash is the one event that costs the whole window:
        // once, at the next settle, and not again.
        rp.inner().sever();
        rp.inner().heal();
        let out = rp.try_flush().unwrap();
        assert_eq!((out.delivered, out.pending), (N, 0), "the buffered half was lost and resent");
        assert!(out.visited >= N && out.visited <= 3 * N);
        assert!(rp.publish(0).unwrap().visited <= 3);
    }

    #[test]
    fn try_flush_stops_at_a_full_queue_instead_of_waiting() {
        let (tx, rx) = push_pull::<u32>(2);
        let rp = ReliablePublisher::new(tx);
        rp.inner().partition();
        for i in 0..5 {
            assert_eq!(rp.publish(i).unwrap().pending, i as usize + 1);
        }
        rp.inner().heal();
        let out = rp.try_flush().unwrap();
        assert_eq!((out.delivered, out.pending), (2, 3), "two fit, three wait");
        // The consumer flushes whenever it runs dry, like a commit process.
        let mut got = Vec::new();
        while got.len() < 5 {
            match rx.try_recv() {
                Ok(v) => got.push(v),
                Err(_) => assert!(rp.try_flush().unwrap().delivered > 0),
            }
        }
        assert_eq!(got, [0, 1, 2, 3, 4]);
        assert_eq!((rp.try_flush().unwrap().pending, rp.unacked()), (0, 0));
    }

    /// A publisher keeps the window locked while it waits for room in a
    /// full queue. The consumer acknowledges every message it takes
    /// through the same window: were that a waiting lock, it would park
    /// behind a publisher that waits for the consumer.
    #[test]
    fn a_consumer_that_acknowledges_never_waits_behind_a_publisher_of_a_full_queue() {
        const PUBLISHERS: u32 = 4;
        const EACH: u32 = 2_000;
        let (tx, rx) = push_pull::<u32>(2);
        let rp = std::sync::Arc::new(ReliablePublisher::new(tx));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for p in 0..PUBLISHERS {
            let rp = std::sync::Arc::clone(&rp);
            std::thread::spawn(move || {
                for i in 0..EACH {
                    rp.publish(p * EACH + i).unwrap();
                }
            });
        }
        let consumer = std::sync::Arc::clone(&rp);
        std::thread::spawn(move || {
            let mut got = Vec::new();
            let mut skipped = 0u32;
            while got.len() < (PUBLISHERS * EACH) as usize {
                if let Ok(v) = rx.try_recv() {
                    got.push(v);
                    skipped += consumer.try_flush().is_none() as u32;
                }
            }
            done_tx.send((got, skipped)).unwrap();
        });
        let (got, skipped) = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("publishers and consumer deadlocked on the window lock");
        // Every publish arrived once, each publisher's in its own order.
        for p in 0..PUBLISHERS {
            let own: Vec<u32> = got.iter().copied().filter(|v| v / EACH == p).collect();
            assert_eq!(own, (p * EACH..(p + 1) * EACH).collect::<Vec<_>>());
        }
        assert!(skipped > 0, "no acknowledgement ever met a held window: nothing was tested");
        rp.flush().unwrap();
        assert_eq!(rp.unacked(), 0, "a skipped acknowledgement is made up by the next settle");
    }

    #[test]
    fn drop_undelivered_takes_back_what_is_not_at_the_broker() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        rp.publish(1).unwrap();
        assert_eq!(rx.recv().unwrap(), 1); // consumed
        rp.publish(2).unwrap();
        rp.inner().sever(); // 2 dies with the broker
        rp.publish(3).unwrap(); // never sent
        rp.inner().heal();
        rp.inner().partition();
        assert_eq!(rp.drop_undelivered(), vec![2, 3]);
        rp.inner().heal();
        let out = rp.flush().unwrap();
        assert_eq!((out.delivered, out.pending), (0, 0));
        assert_eq!(rp.unacked(), 0);
        // What sits in the broker is out of the publisher's reach.
        rp.publish(4).unwrap();
        assert_eq!(rp.drop_undelivered(), Vec::<u32>::new());
        assert_eq!(rx.recv().unwrap(), 4);
        assert!(rx.try_recv().is_err(), "nothing dropped is ever redelivered");
    }
}
