//! Publisher-side redelivery over a lossy broker link.
//!
//! A [`RedeliveryWindow`] keeps every message sent through it into a
//! [`Publisher`]'s queue in an *unacked window* until the broker provably
//! consumed it. The broker's FIFO drain counter plus the exact wipe
//! intervals recorded by lossy severs ([`Publisher::sever`]) let the
//! window classify every record with certainty:
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
//!
//! The window is a plain structure with no lock of its own: its owner
//! serialises access (Pacon keeps it under the lock of the node's publish
//! buffer) and passes the link it sends into.

use std::collections::VecDeque;

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

/// Outcome of a [`RedeliveryWindow::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushOutcome {
    /// Messages (re)delivered to the broker by this flush.
    pub delivered: usize,
    /// Messages still waiting for the link to heal (or, for a flush that
    /// does not wait, for room in the queue).
    pub pending: usize,
    /// Window records this flush looked at: a few on a healthy link,
    /// however long the window; the whole window once per broker crash.
    pub visited: usize,
}

/// The unacked window of one publisher into one link, oldest publish
/// first, with what a settle needs to touch only the records it changes.
/// It survives broker loss by buffering undeliverable messages and
/// redelivering provably-lost ones, in publish order. It sends clones:
/// give it a `T` that is cheap to clone (an `Arc`) and the window shares
/// each message with the broker instead of copying it.
pub struct RedeliveryWindow<T> {
    records: VecDeque<Record<T>>,
    /// Records whose `seq` is `None`.
    undelivered: usize,
    /// Wipe intervals of the link already applied to `records`.
    wipes_applied: usize,
}

impl<T> Default for RedeliveryWindow<T> {
    fn default() -> Self {
        Self { records: VecDeque::new(), undelivered: 0, wipes_applied: 0 }
    }
}

impl<T: Clone> RedeliveryWindow<T> {
    /// Publish with redelivery, waiting while the queue is full. On a
    /// severed link the message is buffered and `Ok` is returned — a later
    /// [`flush`](Self::flush) or publish delivers it once the link heals.
    /// `Err(Disconnected)` only when every consumer is gone for good.
    pub fn publish(&mut self, link: &Publisher<T>, msg: T) -> Result<FlushOutcome, Disconnected> {
        self.records.push_back(Record { seq: None, msg });
        self.undelivered += 1;
        self.flush(link, true)
    }

    /// Messages not yet provably consumed (delivered-but-buffered plus
    /// waiting-for-heal).
    pub fn unacked(&self) -> usize {
        self.records.len()
    }

    /// Take back, in publish order, every message that is not at the
    /// broker and was not consumed — never sent, or lost with a crashed
    /// broker: nothing redelivers them afterwards.
    pub fn drop_undelivered(&mut self, link: &Publisher<T>) -> Vec<T> {
        let view = link.link_view(self.wipes_applied);
        self.demote_lost(&view);
        let (kept, dropped): (VecDeque<_>, VecDeque<_>) =
            std::mem::take(&mut self.records).into_iter().partition(|rec| rec.seq.is_some());
        self.records = kept;
        self.undelivered = 0;
        dropped.into_iter().map(|rec| rec.msg).collect()
    }

    /// Apply the wipe intervals `view` reports as new: a record delivered
    /// into one was lost with the broker and is undelivered again. The one
    /// pass over the whole window, paid once per broker crash. Returns the
    /// records visited.
    fn demote_lost(&mut self, view: &LinkView) -> usize {
        if view.wipes.is_empty() {
            return 0;
        }
        self.wipes_applied += view.wipes.len();
        for rec in self.records.iter_mut() {
            if rec.seq.is_some_and(|seq| view.lost(seq)) {
                rec.seq = None;
                self.undelivered += 1;
            }
        }
        self.records.len()
    }

    /// Reconcile the window against the broker: drop consumed records,
    /// re-send lost and never-sent ones (in order). With `wait` a send
    /// waits for room in a full queue, like a plain `send`; without,
    /// delivery stops there and the rest stays pending — for the queue's
    /// own consumer, which must wait for nothing: only it makes room.
    pub fn flush(&mut self, link: &Publisher<T>, wait: bool) -> Result<FlushOutcome, Disconnected> {
        if self.records.is_empty() {
            // Nothing to reconcile: an idle consumer's flush stops here,
            // without a look at the broker.
            return Ok(FlushOutcome::default());
        }
        let view = link.link_view(self.wipes_applied);
        let mut out = FlushOutcome { visited: self.demote_lost(&view), ..Default::default() };
        // Every lost record is demoted, so a delivered record the broker
        // no longer holds was consumed. Sequences ascend along the window:
        // consumed records form a prefix.
        while self.records.front().is_some_and(|r| r.seq.is_some_and(|seq| seq < view.received)) {
            self.records.pop_front();
            out.visited += 1;
        }
        if !view.severed && self.undelivered > 0 {
            // Delivery stops at the first refusal, so the undelivered
            // records are the window's tail (a crash between two sends of
            // one pass can leave a delivered record among them): walk back
            // to the oldest, then send in window order so per-publisher
            // FIFO survives the outage.
            let mut oldest = self.records.len();
            let mut found = 0;
            while found < self.undelivered {
                oldest -= 1;
                found += self.records[oldest].seq.is_none() as usize;
            }
            out.visited += self.records.len() - oldest;
            for rec in self.records.range_mut(oldest..) {
                if rec.seq.is_some() {
                    continue;
                }
                // permit_blocking: a full-but-connected queue resolves
                // once the consumer drains it, exactly like a plain `send`
                // — the consumer never waits for the lock this window
                // lives under, and passes `wait = false` itself.
                match syncguard::permit_blocking(|| link.send_seq(&rec.msg, wait)) {
                    Ok(seq) => {
                        rec.seq = Some(seq);
                        self.undelivered -= 1;
                        out.delivered += 1;
                    }
                    Err(SendFault::Severed | SendFault::Full) => break,
                    Err(SendFault::NoConsumers) => return Err(Disconnected),
                }
            }
        }
        out.pending = self.undelivered;
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
        let mut w = RedeliveryWindow::default();
        for i in 0..5 {
            let out = w.publish(&tx, i).unwrap();
            assert_eq!(out.pending, 0);
        }
        for i in 0..5 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        // Consumed records are trimmed at the next publish.
        w.publish(&tx, 99).unwrap();
        assert_eq!(w.unacked(), 1);
    }

    #[test]
    fn buffers_across_a_severed_link_and_redelivers_in_order() {
        let (tx, rx) = push_pull::<u32>(16);
        let mut w = RedeliveryWindow::default();
        w.publish(&tx, 1).unwrap();
        tx.sever();
        // Published while down: buffered, not an error.
        let out = w.publish(&tx, 2).unwrap();
        assert_eq!(out.pending, 2, "wiped message plus the new one");
        let out = w.publish(&tx, 3).unwrap();
        assert_eq!(out.pending, 3);
        assert!(rx.try_recv().is_err());
        tx.heal();
        let out = w.flush(&tx, true).unwrap();
        assert_eq!(out.delivered, 3);
        assert_eq!(out.pending, 0);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn consumed_messages_are_never_redelivered() {
        let (tx, rx) = push_pull::<u32>(16);
        let mut w = RedeliveryWindow::default();
        w.publish(&tx, 1).unwrap();
        w.publish(&tx, 2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        // Broker loss after consumption: nothing to redeliver.
        tx.sever();
        tx.heal();
        let out = w.flush(&tx, true).unwrap();
        assert_eq!(out.delivered, 0);
        assert_eq!(w.unacked(), 0);
        assert!(rx.try_recv().is_err(), "no duplicate deliveries");
    }

    #[test]
    fn partially_consumed_window_redelivers_only_the_lost_tail() {
        let (tx, rx) = push_pull::<u32>(16);
        let mut w = RedeliveryWindow::default();
        for i in 0..4 {
            w.publish(&tx, i).unwrap();
        }
        // Consumer drains half; the rest dies with the broker.
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.recv().unwrap(), 1);
        tx.sever();
        tx.heal();
        w.flush(&tx, true).unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        assert!(rx.try_recv().is_err(), "2 and 3 arrive exactly once");
    }

    #[test]
    fn repeated_outages_preserve_order_and_exactly_once() {
        let (tx, rx) = push_pull::<u32>(64);
        let mut w = RedeliveryWindow::default();
        let mut expect = Vec::new();
        let mut got = Vec::new();
        for round in 0..5u32 {
            for i in 0..4 {
                let v = round * 10 + i;
                w.publish(&tx, v).unwrap();
                expect.push(v);
            }
            // Crash the broker mid-round, consuming a prefix first on
            // even rounds so wipes land at varying offsets.
            if round % 2 == 0 {
                got.push(rx.recv().unwrap());
            }
            tx.sever();
            tx.heal();
            w.flush(&tx, true).unwrap();
            while let Ok(v) = rx.try_recv() {
                got.push(v);
            }
        }
        assert_eq!(got, expect, "every publish arrives exactly once, in order");
        w.flush(&tx, true).unwrap();
        assert_eq!(w.unacked(), 0);
    }

    #[test]
    fn disconnected_when_all_consumers_gone() {
        let (tx, rx) = push_pull::<u32>(4);
        let mut w = RedeliveryWindow::default();
        drop(rx);
        assert_eq!(w.publish(&tx, 1), Err(Disconnected));
    }

    /// Counted, not timed: a publish on a healthy link trims the consumed
    /// prefix and sends one record, however long the window has grown.
    #[test]
    fn a_publish_on_a_healthy_link_visits_a_constant_number_of_records() {
        const N: usize = 10_000;
        let (tx, rx) = push_pull::<usize>(2 * N);
        let mut w = RedeliveryWindow::default();
        // No consumer progress: the window only grows.
        for i in 0..N {
            let out = w.publish(&tx, i).unwrap();
            assert!(out.visited <= 2, "publish {i} visited {} records", out.visited);
        }
        assert_eq!(w.unacked(), N);
        // A consumer that keeps up: each publish also trims what it took.
        for i in 0..N {
            assert_eq!(rx.recv().unwrap(), i);
            assert!(w.publish(&tx, N + i).unwrap().visited <= 3);
        }
        assert_eq!(w.unacked(), N);
        // A broker crash is the one event that costs the whole window:
        // once, at the next settle, and not again.
        tx.sever();
        tx.heal();
        let out = w.flush(&tx, false).unwrap();
        assert_eq!((out.delivered, out.pending), (N, 0), "the buffered half was lost and resent");
        assert!(out.visited >= N && out.visited <= 3 * N);
        assert!(w.publish(&tx, 0).unwrap().visited <= 3);
    }

    /// A flush that may not wait: what the queue's consumer runs.
    #[test]
    fn try_flush_stops_at_a_full_queue_instead_of_waiting() {
        let (tx, rx) = push_pull::<u32>(2);
        let mut w = RedeliveryWindow::default();
        tx.partition();
        for i in 0..5 {
            assert_eq!(w.publish(&tx, i).unwrap().pending, i as usize + 1);
        }
        tx.heal();
        let out = w.flush(&tx, false).unwrap();
        assert_eq!((out.delivered, out.pending), (2, 3), "two fit, three wait");
        // The consumer flushes whenever it runs dry, like a commit process.
        let mut got = Vec::new();
        while got.len() < 5 {
            match rx.try_recv() {
                Ok(v) => got.push(v),
                Err(_) => assert!(w.flush(&tx, false).unwrap().delivered > 0),
            }
        }
        assert_eq!(got, [0, 1, 2, 3, 4]);
        assert_eq!((w.flush(&tx, false).unwrap().pending, w.unacked()), (0, 0));
    }

    #[test]
    fn drop_undelivered_takes_back_what_is_not_at_the_broker() {
        let (tx, rx) = push_pull::<u32>(16);
        let mut w = RedeliveryWindow::default();
        w.publish(&tx, 1).unwrap();
        assert_eq!(rx.recv().unwrap(), 1); // consumed
        w.publish(&tx, 2).unwrap();
        tx.sever(); // 2 dies with the broker
        w.publish(&tx, 3).unwrap(); // never sent
        tx.heal();
        tx.partition();
        assert_eq!(w.drop_undelivered(&tx), vec![2, 3]);
        tx.heal();
        let out = w.flush(&tx, true).unwrap();
        assert_eq!((out.delivered, out.pending), (0, 0));
        assert_eq!(w.unacked(), 0);
        // What sits in the broker is out of the publisher's reach.
        w.publish(&tx, 4).unwrap();
        assert_eq!(w.drop_undelivered(&tx), Vec::<u32>::new());
        assert_eq!(rx.recv().unwrap(), 4);
        assert!(rx.try_recv().is_err(), "nothing dropped is ever redelivered");
    }
}
