//! The node's outbox: everything between "acknowledged" and "in the
//! commit queue" (the publishing side of Fig. 5), under one lock.
//!
//! The [`PublishBuffer`] a node's ops coalesce in and the redelivery
//! window that keeps every cut message until the broker provably handed
//! it on sit side by side under one mutex (`level::PUBLISH`), the queue's
//! sending end next to it; every way an op leaves a node is a method
//! here. A message the link refuses (partition, broker crash) is not an
//! error: it waits in the window, its ops acknowledged and in flight,
//! until the next publish, barrier or empty-queue step of the commit
//! process finds the link healed.
//!
//! **Who waits for whom** (DESIGN §7). A sender holds the lock across its
//! queue sends, and a send waits while the queue is full. Only the node's
//! commit process makes room, and it uses this same lock: `refill` and
//! `acknowledge` only `try_lock`, and their sends stop at a full queue.

use std::sync::Arc;

use fsapi::{FsError, FsResult};
use mq::{Consumer, Publisher, RedeliveryWindow};
use simnet::{charge, Station};
use syncguard::{level, Mutex};

use crate::commit::op::{CommitOp, QueueMsg};
use crate::commit::publish::{Buffered, PublishBuffer};
use crate::region::RegionCore;

type Link = Publisher<Arc<QueueMsg>>;

/// Every consumer is gone (shutdown, abort): the message stays counted in
/// flight, and a durable region replays it from its log.
fn queue_closed<E>(_: E) -> FsError {
    FsError::Backend("commit queue closed".into())
}

/// Envelope of what is never journaled or replayed: a batch wrapper, a
/// barrier marker.
fn unlogged(core: &RegionCore, op: CommitOp, client: u32, epoch: u64) -> QueueMsg {
    QueueMsg { op, client, epoch, timestamp: core.now(), id: dfs::OpId::NONE, degraded: false }
}

/// Under the lock. Oldest to newest: queue, window backlog, buffer.
struct Outgoing {
    buf: PublishBuffer,
    window: RedeliveryWindow<Arc<QueueMsg>>,
}

impl Outgoing {
    /// Cut the buffer into one message — the op itself when it is alone, a
    /// batch otherwise. Every hold of the lock leaves the buffer below the
    /// flush threshold ([`Outbox::publish`]), so no plane of it exceeds
    /// `commit_batch_size`.
    fn cut(&mut self, core: &RegionCore) -> Option<QueueMsg> {
        debug_assert!(self.buf.fullest_plane() <= core.config.commit_batch_size);
        let mut batch = self.buf.take();
        if batch.len() <= 1 {
            return batch.pop();
        }
        core.counters.incr("batches_flushed");
        core.counters.add("batched_ops", batch.len() as u64);
        Some(unlogged(core, CommitOp::Batch(batch), u32::MAX, core.board.current_epoch()))
    }

    /// Send `msg` through the window, behind all it still owes the queue;
    /// returns how many messages the link left undelivered.
    fn deliver(&mut self, core: &RegionCore, link: &Link, msg: QueueMsg) -> FsResult<usize> {
        let pending = self.window.publish(link, Arc::new(msg)).map_err(queue_closed)?.pending;
        if pending > 0 {
            core.counters.incr("publishes_buffered");
        }
        Ok(pending)
    }

    /// Empty the buffer into the window: one message.
    fn force_out(&mut self, core: &RegionCore, link: &Link) -> FsResult<()> {
        if let Some(msg) = self.cut(core) {
            self.deliver(core, link, msg)?;
        }
        Ok(())
    }
}

/// One node's way out (module docs).
pub struct Outbox {
    node: usize,
    /// The commit queue's sending end; outside the lock, so a link fault
    /// (`PaconRegion::apply_fault`) reaches it while a sender waits there.
    pub(crate) link: Link,
    out: Mutex<Outgoing>,
}

impl Outbox {
    pub(crate) fn new(node: usize, link: Link) -> Self {
        let out = Outgoing { buf: PublishBuffer::new(), window: RedeliveryWindow::default() };
        Self { node, link, out: Mutex::new(level::PUBLISH, "pacon.commit.outbox", out) }
    }

    /// Buffer one journaled op. When that fills either commit plane to
    /// `commit_batch_size` (at 1, always) the buffer leaves as one message
    /// in the same hold — so every hold of the lock leaves it below the
    /// threshold — charged to the publishing client's CPU.
    pub(crate) fn publish(&self, core: &RegionCore, msg: QueueMsg) -> FsResult<Buffered> {
        let mut out = self.out.lock();
        let outcome = out.buf.push(msg);
        if out.buf.fullest_plane() >= core.config.commit_batch_size {
            charge(Station::ClientCpu, core.cache_cluster.profile().queue_push);
            out.force_out(core, &self.link)?;
        }
        Ok(outcome)
    }

    /// Post the `Barrier { epoch }` marker behind everything published on
    /// this node so far: force the buffer out and require the window to
    /// have delivered all of it. A barrier during an outage fails, it does
    /// not silently queue — before the marker is handed over. The marker
    /// takes the window like every message: lost with a crashing broker,
    /// it is sent again and its barrier completes; refused after the check
    /// (a racing fault), it arrives stale and the commit process skips it.
    pub(crate) fn post_marker(&self, core: &RegionCore, epoch: u64, client: u32) -> FsResult<()> {
        let mut out = self.out.lock();
        out.force_out(core, &self.link)?;
        charge(Station::ClientCpu, core.cache_cluster.profile().queue_push);
        let mut waiting = out.window.flush(&self.link, true).map_err(queue_closed)?.pending;
        if waiting == 0 && !self.link.is_severed() {
            let marker = unlogged(core, CommitOp::Barrier { epoch }, client, epoch);
            waiting = out.deliver(core, &self.link, marker)?;
            if waiting == 0 {
                return Ok(());
            }
        }
        let node = self.node;
        Err(FsError::Backend(format!("commit link {node} is down: {waiting} messages undelivered")))
    }

    /// The commit process, its queue empty, as the node's flush timer: the
    /// window sends what it still owes the queue, to be received here;
    /// with nothing older waiting and the link up, one message is cut from
    /// the buffer and taken directly (no flush is under way under the
    /// lock: publish order holds). Nothing crosses a link that is down.
    /// `None`: nothing to take, or a sender has the outbox — come back.
    pub(crate) fn refill(
        &self,
        core: &RegionCore,
        queue: &Consumer<Arc<QueueMsg>>,
    ) -> Option<Arc<QueueMsg>> {
        let mut out = self.out.try_lock()?;
        let settled = out.window.flush(&self.link, false).ok()?;
        if settled.delivered == 0 && out.buf.is_empty() {
            return None; // the idle poll
        }
        if let Ok(shared) = queue.try_recv() {
            return Some(shared);
        }
        if settled.pending > 0 || self.link.is_severed() {
            return None;
        }
        out.cut(core).map(Arc::new)
    }

    /// The commit process took a message: the window drops its record of
    /// what the queue has handed over, leaving the taker the only holder.
    /// Skipped while a sender has the outbox; the next settle catches up.
    pub(crate) fn acknowledge(&self) {
        if let Some(mut out) = self.out.try_lock() {
            let _ = out.window.flush(&self.link, false);
        }
    }

    /// Checkpoint rollback: drop what is not in the queue — buffered, or
    /// refused or lost in the window. Returns the ops dropped.
    pub(crate) fn drop_unsent(&self) -> u64 {
        let mut out = self.out.lock();
        let buffered = out.buf.take().len() as u64;
        let unsent = out.window.drop_undelivered(&self.link);
        let ops = |msg: &Arc<QueueMsg>| match &msg.op {
            CommitOp::Batch(ops) => ops.len() as u64,
            CommitOp::Barrier { .. } => 0,
            _ => 1,
        };
        buffered + unsent.iter().map(ops).sum::<u64>()
    }

    /// Reconcile the window with the broker now (a fault driver's
    /// shortcut, never required); returns the messages delivered.
    pub fn settle(&self) -> FsResult<usize> {
        let mut out = self.out.lock();
        out.window.flush(&self.link, true).map(|settled| settled.delivered).map_err(queue_closed)
    }

    /// Messages not yet provably consumed by the broker.
    pub fn unacked(&self) -> usize {
        self.out.lock().window.unacked()
    }

    /// Ops coalescing in the buffer, not yet cut into a message.
    pub fn buffered(&self) -> usize {
        self.out.lock().buf.len()
    }
}
