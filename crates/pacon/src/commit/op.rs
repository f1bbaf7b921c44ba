//! Operation messages carried by the commit queue.

/// One committable operation. The paper's Table I: create/mkdir/rm are
/// asynchronous + independent; rmdir/readdir are synchronous + barrier
/// (they never appear as queue payloads — only their barrier markers do).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOp {
    Mkdir { path: String, mode: u16 },
    Create { path: String, mode: u16 },
    Unlink { path: String },
    /// Write back a small file's inline data to the DFS backup copy. The
    /// commit process reads the *current* primary copy from the cache at
    /// commit time, so out-of-order writebacks from different queues can
    /// never regress the backup copy to stale data.
    WriteInline { path: String },
    /// Barrier marker: every op before this marker belongs to an epoch
    /// `< epoch` and must be committed before the dependent operation.
    Barrier { epoch: u64 },
    /// Group commit: one queue message carrying many single operations in
    /// publish order. Each inner message keeps its own client, epoch and
    /// timestamp (they may straddle a coalescing window); inner ops are
    /// always single ops — batches never nest and never carry barriers.
    Batch(Vec<QueueMsg>),
}

impl CommitOp {
    /// Target path, if the op has one.
    pub fn path(&self) -> Option<&str> {
        match self {
            CommitOp::Mkdir { path, .. }
            | CommitOp::Create { path, .. }
            | CommitOp::Unlink { path }
            | CommitOp::WriteInline { path } => Some(path),
            CommitOp::Barrier { .. } | CommitOp::Batch(_) => None,
        }
    }

    /// The DFS namespace request this op commits as; `None` for
    /// everything that is not a namespace update (writebacks, barrier
    /// markers, batch wrappers).
    pub(crate) fn namespace_op(&self) -> Option<dfs::BatchOp> {
        match self {
            CommitOp::Mkdir { path, mode } => {
                Some(dfs::BatchOp::Mkdir { path: path.clone(), mode: *mode })
            }
            CommitOp::Create { path, mode } => {
                Some(dfs::BatchOp::Create { path: path.clone(), mode: *mode })
            }
            CommitOp::Unlink { path } => Some(dfs::BatchOp::Unlink { path: path.clone() }),
            CommitOp::WriteInline { .. } | CommitOp::Barrier { .. } | CommitOp::Batch(_) => None,
        }
    }

    /// True for operations that create a namespace entry (the kind that
    /// may be discarded when their directory is removed, Section III.D-1).
    pub fn is_creation(&self) -> bool {
        matches!(self, CommitOp::Mkdir { .. } | CommitOp::Create { .. })
    }
}

/// Envelope pushed into the per-node queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueMsg {
    pub op: CommitOp,
    /// Publishing client (diagnostics).
    pub client: u32,
    /// Barrier epoch the publisher observed (Section III.E-2).
    pub epoch: u64,
    /// Logical timestamp, drawn where the primary copy admitted the op
    /// (a namespace op's) or at publish: per path, a creation's and an
    /// unlink's are in admission order (DESIGN §10.4).
    pub timestamp: u64,
    /// Replay identity for the durable commit log. `OpId::NONE` in
    /// volatile mode and on envelopes that are never replayed (barrier
    /// markers, batch wrappers).
    pub id: dfs::OpId,
    /// Published while the region was degraded: its admission check could
    /// only consult the committed backup view. No commit verdict reads it
    /// (a creation that meets its path is in place, degraded or not); the
    /// commit log's frame still carries it.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_extraction() {
        assert_eq!(CommitOp::Mkdir { path: "/a".into(), mode: 0o755 }.path(), Some("/a"));
        assert_eq!(CommitOp::Unlink { path: "/a/f".into() }.path(), Some("/a/f"));
        assert_eq!(CommitOp::Barrier { epoch: 3 }.path(), None);
    }

    #[test]
    fn creation_classification() {
        assert!(CommitOp::Create { path: "/f".into(), mode: 0 }.is_creation());
        assert!(CommitOp::Mkdir { path: "/d".into(), mode: 0 }.is_creation());
        assert!(!CommitOp::Unlink { path: "/f".into() }.is_creation());
        assert!(!CommitOp::WriteInline { path: "/f".into() }.is_creation());
    }
}
