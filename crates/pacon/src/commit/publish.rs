//! Per-node publish buffer for group commit.
//!
//! Every client on a node hands its operation messages to the node's
//! [`PublishBuffer`]; nothing reaches the commit queue any other way. The
//! buffer flushes as one message (a [`CommitOp::Batch`], or the op itself
//! when there is only one — always, at batch size 1) when either commit
//! plane reaches the configured batch size, when a barrier needs the
//! queue flushed, or when the node's commit process pulls it on an empty
//! queue (liveness for quiesce/shutdown without a timer).
//!
//! # One budget per plane
//!
//! The commit process never puts a batch's namespace ops
//! (`Mkdir`/`Create`/`Unlink` → one `Mds::apply_batch`) and its inline
//! writebacks (`WriteInline` → one vectored write per data server and one
//! size batch) into the same RPC, so the batch size budgets each plane
//! separately: [`PublishBuffer::fullest_plane`] reaching it triggers the
//! flush (the RPC of the plane that filled is full, the other rides
//! along). The flush happens in the same hold of the node's outbox lock
//! as the push that filled the plane, so the buffer never holds more than
//! the budget on either plane and [`PublishBuffer::take`] takes all of it
//! — a message carries at most `2·n − 1` ops, no more than `n` of either
//! plane. A refusing link does not change that: the cut message waits in
//! the redelivery window, not in the buffer. The commit process takes up
//! to `n` queued messages as one run (`commit::worker`), so no commit RPC
//! carries more than `n²` ops per plane.
//!
//! While ops sit in the buffer they can still annihilate each other:
//!
//! * a buffered `Create{p}` cancels against an incoming `Unlink{p}` —
//!   the file never reaches the DFS at all, and any inline writeback
//!   queued after that create vanishes with it;
//! * an incoming `WriteInline{p}` collapses into a buffered one when no
//!   `Unlink`/`Create` for `p` intervenes (the commit process reads the
//!   *current* primary copy at commit time, so one entry suffices). The
//!   client-side writeback slot (`InFlight::queue_writeback`) already
//!   coalesces this case before publish; the buffer-level rule is the
//!   backstop that keeps the invariant local.
//!
//! Coalescing never crosses a flush boundary: a flushed message is final
//! — it goes to the node's redelivery window, which delivers it in
//! publish order now or, when the link refuses, once the link heals. A
//! run can therefore carry a creation and the unlink that removed it in
//! two of its messages; the commit process settles such a path by its
//! last op.

use crate::commit::op::{CommitOp, QueueMsg};

/// What happened to a pushed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buffered {
    /// The message entered the buffer.
    Queued,
    /// An incoming `Unlink` annihilated a buffered `Create` of the same
    /// path (plus the writebacks queued after it). `absorbed` counts the
    /// buffered messages removed; the unlink itself was swallowed too,
    /// so `absorbed + 1` operations complete without touching the queue.
    Cancelled { absorbed: usize },
    /// An incoming `WriteInline` collapsed into a buffered one.
    Collapsed,
}

/// Order-preserving op buffer with pre-queue coalescing.
#[derive(Debug, Default)]
pub struct PublishBuffer {
    ops: Vec<QueueMsg>,
    /// How many of `ops` are data-plane (`WriteInline`); the rest are
    /// namespace-plane. Kept current by every path that adds or removes
    /// an op, so the flush rule costs no scan.
    data_ops: usize,
}

fn is_data_plane(msg: &QueueMsg) -> bool {
    matches!(msg.op, CommitOp::WriteInline { .. })
}

impl PublishBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Buffered ops on the plane that holds more of them — what the flush
    /// rule compares with the batch size (module docs).
    pub fn fullest_plane(&self) -> usize {
        self.data_ops.max(self.ops.len() - self.data_ops)
    }

    /// Buffer `msg`, coalescing it against buffered ops where the rules
    /// in the module doc allow. Barriers and batches must not be pushed —
    /// they bypass the buffer.
    pub fn push(&mut self, msg: QueueMsg) -> Buffered {
        debug_assert!(
            !matches!(msg.op, CommitOp::Barrier { .. } | CommitOp::Batch(_)),
            "barriers and batches bypass the publish buffer"
        );
        match &msg.op {
            CommitOp::Unlink { path } => {
                if let Some(absorbed) = self.cancel_create(path) {
                    return Buffered::Cancelled { absorbed };
                }
            }
            CommitOp::WriteInline { path } if self.collapses_into_buffered_writeback(path) => {
                return Buffered::Collapsed;
            }
            _ => {}
        }
        self.data_ops += is_data_plane(&msg) as usize;
        self.ops.push(msg);
        Buffered::Queued
    }

    /// Take every buffered op, in publish order.
    pub fn take(&mut self) -> Vec<QueueMsg> {
        self.data_ops = 0;
        std::mem::take(&mut self.ops)
    }

    /// Annihilate the most recent buffered `Create{path}` together with
    /// every `WriteInline{path}` queued after it (they belong to the
    /// cancelled incarnation of the file). Returns how many buffered
    /// messages were removed, or `None` when no create is buffered —
    /// the unlink must then queue normally behind the committed create.
    fn cancel_create(&mut self, path: &str) -> Option<usize> {
        let create_idx = self.ops.iter().rposition(
            |m| matches!(&m.op, CommitOp::Create { path: p, .. } if p == path),
        )?;
        let before = self.ops.len();
        let mut idx = 0;
        self.ops.retain(|m| {
            let keep = match &m.op {
                _ if idx == create_idx => false,
                CommitOp::WriteInline { path: p } => idx < create_idx || p != path,
                _ => true,
            };
            idx += 1;
            keep
        });
        let removed = before - self.ops.len();
        // One create; everything else removed is a writeback.
        self.data_ops -= removed - 1;
        Some(removed)
    }

    /// Safe to collapse only when the *last* buffered op for `path` is a
    /// writeback: an intervening `Unlink`/`Create` means the buffered
    /// writeback belongs to the previous incarnation of the file and a
    /// fresh entry must queue behind the re-creation.
    fn collapses_into_buffered_writeback(&self, path: &str) -> bool {
        self.ops
            .iter()
            .rev()
            .find_map(|m| match &m.op {
                CommitOp::WriteInline { path: p } if p == path => Some(true),
                other if other.path() == Some(path) => Some(false),
                _ => None,
            })
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(op: CommitOp) -> QueueMsg {
        QueueMsg { id: Default::default(), op, client: 0, epoch: 0, timestamp: 0, degraded: false }
    }

    fn create(p: &str) -> QueueMsg {
        msg(CommitOp::Create { path: p.into(), mode: 0o644 })
    }

    fn mkdir(p: &str) -> QueueMsg {
        msg(CommitOp::Mkdir { path: p.into(), mode: 0o755 })
    }

    fn unlink(p: &str) -> QueueMsg {
        msg(CommitOp::Unlink { path: p.into() })
    }

    fn wi(p: &str) -> QueueMsg {
        msg(CommitOp::WriteInline { path: p.into() })
    }

    #[test]
    fn create_then_unlink_annihilate() {
        let mut b = PublishBuffer::new();
        assert_eq!(b.push(create("/f")), Buffered::Queued);
        assert_eq!(b.push(unlink("/f")), Buffered::Cancelled { absorbed: 1 });
        assert!(b.is_empty());
    }

    #[test]
    fn cancel_absorbs_trailing_writeback_only() {
        let mut b = PublishBuffer::new();
        b.push(wi("/f")); // previous incarnation, already unlinked below
        b.push(unlink("/f"));
        b.push(create("/f"));
        b.push(wi("/f"));
        b.push(create("/g"));
        assert_eq!(b.push(unlink("/f")), Buffered::Cancelled { absorbed: 2 });
        let rest = b.take();
        assert_eq!(rest.len(), 3);
        assert!(matches!(&rest[0].op, CommitOp::WriteInline { path } if path == "/f"));
        assert!(matches!(&rest[1].op, CommitOp::Unlink { path } if path == "/f"));
        assert!(matches!(&rest[2].op, CommitOp::Create { path, .. } if path == "/g"));
    }

    #[test]
    fn unlink_without_buffered_create_queues() {
        let mut b = PublishBuffer::new();
        b.push(wi("/f"));
        assert_eq!(b.push(unlink("/f")), Buffered::Queued);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn mkdir_never_cancels_against_unlink() {
        // Unlink of a directory is rejected client-side; a same-path
        // mkdir must not be annihilated by an unrelated unlink message.
        let mut b = PublishBuffer::new();
        b.push(mkdir("/d"));
        assert_eq!(b.push(unlink("/d")), Buffered::Queued);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn duplicate_writeback_collapses() {
        let mut b = PublishBuffer::new();
        b.push(create("/f"));
        assert_eq!(b.push(wi("/f")), Buffered::Queued);
        assert_eq!(b.push(wi("/f")), Buffered::Collapsed);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn writeback_after_recreate_does_not_collapse() {
        // [WI, Unlink, Create] + WI: collapsing onto the pre-unlink
        // writeback would lose the re-created file's data.
        let mut b = PublishBuffer::new();
        b.push(wi("/f"));
        b.push(unlink("/f"));
        b.push(create("/f"));
        assert_eq!(b.push(wi("/f")), Buffered::Queued);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn take_all_preserves_publish_order() {
        let mut b = PublishBuffer::new();
        b.push(mkdir("/d"));
        b.push(create("/d/a"));
        b.push(create("/d/b"));
        let batch = b.take();
        assert!(b.is_empty());
        let paths: Vec<_> = batch.iter().map(|m| m.op.path().unwrap().to_string()).collect();
        assert_eq!(paths, ["/d", "/d/a", "/d/b"]);
    }

    #[test]
    fn the_fuller_plane_sets_the_flush() {
        let mut b = PublishBuffer::new();
        for p in ["/a", "/b", "/c"] {
            b.push(create(p));
            b.push(wi(p));
        }
        b.push(unlink("/x"));
        assert_eq!((b.len(), b.fullest_plane()), (7, 4), "4 namespace ops, 3 writebacks");
        assert_eq!(b.take().len(), 7);
        assert!(b.is_empty());
        assert_eq!(b.fullest_plane(), 0);
    }

    #[test]
    fn coalescing_outcomes_keep_the_plane_counts() {
        let mut b = PublishBuffer::new();
        b.push(create("/f"));
        b.push(wi("/f"));
        assert_eq!(b.push(wi("/f")), Buffered::Collapsed);
        b.push(wi("/g"));
        b.push(wi("/h"));
        assert_eq!((b.len(), b.fullest_plane()), (4, 3), "the collapsed writeback counts nowhere");
        // The create leaves the namespace plane, its writeback the data plane.
        assert_eq!(b.push(unlink("/f")), Buffered::Cancelled { absorbed: 2 });
        assert_eq!((b.len(), b.fullest_plane()), (2, 2));
    }

    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Step {
        Push(QueueMsg),
        Take,
    }

    fn step() -> impl Strategy<Value = Step> {
        // Few paths, so unlinks meet buffered creates (with writebacks
        // behind them) and writebacks meet writebacks.
        let path = (0u8..4).prop_map(|i| format!("/w/f{i}"));
        prop_oneof![
            3 => path.clone().prop_map(|p| Step::Push(create(&p))),
            4 => path.clone().prop_map(|p| Step::Push(wi(&p))),
            2 => path.prop_map(|p| Step::Push(unlink(&p))),
            1 => Just(Step::Push(mkdir("/w/d"))),
            2 => Just(Step::Take),
        ]
    }

    fn planes(ops: &[QueueMsg]) -> (usize, usize) {
        let data = ops.iter().filter(|m| is_data_plane(m)).count();
        (ops.len() - data, data)
    }

    fn stamps(ops: &[QueueMsg]) -> Vec<u64> {
        ops.iter().map(|m| m.timestamp).collect()
    }

    proptest! {
        /// The O(1) plane count equals a recount after every `push`
        /// outcome and take; a take is the buffer in publish order.
        #[test]
        fn plane_counts_track_every_mutation(steps in proptest::collection::vec(step(), 1..80)) {
            let mut b = PublishBuffer::new();
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Push(mut msg) => {
                        msg.timestamp = i as u64;
                        b.push(msg);
                    }
                    Step::Take => {
                        let before = stamps(&b.ops);
                        prop_assert_eq!(before, stamps(&b.take()));
                        prop_assert!(b.is_empty());
                    }
                }
                let (ns, data) = planes(&b.ops);
                prop_assert_eq!(b.data_ops, data);
                prop_assert_eq!(b.fullest_plane(), ns.max(data));
            }
        }
    }
}
