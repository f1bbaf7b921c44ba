//! Region configuration (Section III.B: workspace path + node addresses,
//! plus the tunables the paper describes).
//!
//! Admission rule for a field: it is a deployment setting or a tunable
//! the paper describes, or at least two non-test callers (benches,
//! examples, the repo benchmark) set it to different values. Anything
//! else is a constant next to the code that reads it — an ablation that
//! needs its own code path in the client is not a field. Each field's
//! doc ends with the clause that admits it.

use fsapi::Credentials;
use simnet::Topology;

use crate::permission::RegionPermissions;

/// Configuration an application hands to Pacon before running.
#[derive(Debug, Clone)]
pub struct PaconConfig {
    /// The application's workspace directory — the root of the consistent
    /// region. Must be a normalized absolute path. Deployment setting.
    pub workspace: String,
    /// The nodes the application runs on; Pacon launches one cache shard
    /// and one commit process per node. Deployment setting.
    pub topology: Topology,
    /// The application's system user (one user per HPC application,
    /// Section II.A). Deployment setting.
    pub cred: Credentials,
    /// Small-file threshold in bytes, *including metadata* (Section
    /// III.D-2; 4 KiB in the paper's prototype). Files at or below this
    /// size keep their data inline in the metadata cache. Paper tunable.
    pub small_file_threshold: usize,
    /// Whether create/mkdir verify the parent directory exists (Section
    /// III.C; applications that guarantee correct creation order can turn
    /// this off). Paper tunable.
    pub parent_check: bool,
    /// Predefined batch permissions. `None` = the default policy (all
    /// entries readable/writable/executable by the creating user). Paper
    /// tunable (Section III.C).
    pub permissions: Option<RegionPermissions>,
    /// Cache-space eviction threshold in bytes over the whole region
    /// (`None` = never evict; Section III.F assumes pressure is rare).
    /// Paper tunable.
    pub eviction_threshold: Option<usize>,
    /// Group commit: ops per message per plane at the publisher, messages
    /// per run at the commit process. A node buffers operations until its
    /// namespace ops (one `Mds::apply_batch`) or its inline writebacks
    /// (one vectored write per data server + one size batch) number this
    /// many, then publishes the buffer as one batched queue message; no
    /// message carries more than this many of either plane. The commit
    /// process takes up to this many already-queued messages as one run
    /// and commits their ops together, so no commit RPC carries more than
    /// its square per plane. A flush threshold, not a mode: at `1` every
    /// op reaches it, so each leaves as its own one-op message and commits
    /// alone — the paper prototype's behaviour — through the same outbox
    /// (`commit::outbox`: buffer, redelivery window) and queue as a batch.
    /// Barriers always flush the buffer regardless of fill.
    /// In use at 1 (fig01–fig12), 1–64 (`commit_batch`) and 32 (the repo
    /// benchmark).
    pub commit_batch_size: usize,
    /// Give up retrying one op's commit after this many attempts (guards
    /// against workloads that violate the namespace conventions). In use
    /// at 10 000 (every figure) and 200 (the `chaos` bench, whose storms
    /// must shed poisoned ops quickly).
    pub max_commit_retries: u32,
    /// Check permissions the traditional way — one distributed-cache
    /// lookup per path component — instead of the batch table match.
    /// Never enabled in normal operation; kept as the only in-cache
    /// evidence for what Section III.C saves (`ablations` row (b)), at
    /// the cost of one `if` in `PaconClient::check_perm`.
    pub hierarchical_permission_check: bool,
    /// Base id for this region's stations in the queueing model
    /// (`KvShard`/`CommitProc`). Multi-application experiments give each
    /// region a disjoint base so the simulated regions do not share
    /// service stations — they are on different physical nodes. In use
    /// at 0 (single-application figures) and `app × nodes_per_app` (fig08).
    pub station_base: u32,
    /// Durable commit queue: when set, every commit op is journaled into
    /// the region's write-ahead log in this directory (next to its
    /// incarnation counter) before the mutation is acknowledged locally,
    /// and the log replays idempotently on the next launch. The directory
    /// must outlive the process for recovery to mean anything. `None` =
    /// volatile, the paper's prototype. Deployment setting (a path).
    pub wal_dir: Option<std::path::PathBuf>,
    /// Group fsync, per node: a node's `n`-th append since the log last
    /// synced syncs it for every node, so no node holds more than `n - 1`
    /// acknowledged, unsynced appends. `1` = fsync per op (strict
    /// durability). In use at 1 and 32 (`wal_commit`) and 32 (the repo
    /// benchmark).
    pub wal_fsync_batch: usize,
}

impl PaconConfig {
    /// Config with the paper's defaults.
    pub fn new(workspace: &str, topology: Topology, cred: Credentials) -> Self {
        Self {
            workspace: workspace.to_string(),
            topology,
            cred,
            small_file_threshold: 4096,
            parent_check: true,
            permissions: None,
            eviction_threshold: None,
            commit_batch_size: 1,
            max_commit_retries: 10_000,
            hierarchical_permission_check: false,
            station_base: 0,
            wal_dir: None,
            wal_fsync_batch: 1,
        }
    }

    /// Builder-style: enable the durable commit queue, journaling into
    /// the region's write-ahead log under `wal_dir`.
    pub fn with_durability(mut self, wal_dir: impl Into<std::path::PathBuf>) -> Self {
        self.wal_dir = Some(wal_dir.into());
        self
    }

    /// Builder-style: set [`Self::wal_fsync_batch`].
    pub fn with_wal_fsync_batch(mut self, n: usize) -> Self {
        assert!(n >= 1, "fsync batch must be at least 1");
        self.wal_fsync_batch = n;
        self
    }

    /// Builder-style: predefine batch permissions.
    pub fn with_permissions(mut self, perms: RegionPermissions) -> Self {
        self.permissions = Some(perms);
        self
    }

    /// Builder-style: disable the parent-existence check.
    pub fn without_parent_check(mut self) -> Self {
        self.parent_check = false;
        self
    }

    /// Builder-style: set the small-file threshold.
    pub fn with_small_file_threshold(mut self, bytes: usize) -> Self {
        self.small_file_threshold = bytes;
        self
    }

    /// Builder-style: enable eviction above `bytes` of cache usage.
    pub fn with_eviction_threshold(mut self, bytes: usize) -> Self {
        self.eviction_threshold = Some(bytes);
        self
    }

    /// Builder-style: enable the per-component permission-check ablation.
    pub fn with_hierarchical_permission_check(mut self) -> Self {
        self.hierarchical_permission_check = true;
        self
    }

    /// Builder-style: set the queueing-model station base of this region.
    pub fn with_station_base(mut self, base: u32) -> Self {
        self.station_base = base;
        self
    }

    /// Builder-style: enable group commit with up to `n` ops per message
    /// per plane and `n` messages per commit run.
    pub fn with_commit_batch(mut self, n: usize) -> Self {
        assert!(n >= 1, "batch size must be at least 1");
        self.commit_batch_size = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PaconConfig::new("/app", Topology::new(4, 20), Credentials::new(1, 1));
        assert_eq!(c.small_file_threshold, 4096);
        assert!(c.parent_check);
        assert!(c.permissions.is_none());
        assert!(c.eviction_threshold.is_none());
    }

    #[test]
    fn builders_compose() {
        let c = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1))
            .without_parent_check()
            .with_small_file_threshold(1024)
            .with_eviction_threshold(1 << 20);
        assert!(!c.parent_check);
        assert_eq!(c.small_file_threshold, 1024);
        assert_eq!(c.eviction_threshold, Some(1 << 20));
    }

    #[test]
    fn batching_defaults_off_and_builders_set_it() {
        let c = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1));
        assert_eq!(c.commit_batch_size, 1, "seed behaviour: one op per message");
        let c = c.with_commit_batch(32);
        assert_eq!(c.commit_batch_size, 32);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1))
            .with_commit_batch(0);
    }
}
