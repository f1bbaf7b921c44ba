//! Region introspection: a point-in-time report of one consistent
//! region's health — cache population and hit rates, commit progress,
//! barrier epoch, staging backlog — for operators, experiments, and
//! tests. `Display` renders a compact multi-line summary.

use std::fmt;

use crate::region::PaconRegion;

/// Snapshot of a region's operational state.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    pub workspace: String,
    pub nodes: u32,
    pub clients: u32,
    /// Records in the distributed cache.
    pub cached_entries: usize,
    /// Bytes across all cache shards.
    pub cache_bytes: usize,
    /// Cache gets / hits since launch.
    pub cache_gets: u64,
    pub cache_hits: u64,
    /// CAS conflicts resolved by retry (Section III.D-3).
    pub cas_conflicts: u64,
    /// Operations enqueued to the commit queues.
    pub ops_enqueued: u64,
    /// Operations fully handled (committed + discarded + dropped).
    pub ops_completed: u64,
    /// Commits applied to the DFS (recovered ops included).
    pub committed: u64,
    /// Commits resubmitted at least once (independent-commit retries).
    pub resubmitted: u64,
    /// Creations discarded under removed directories.
    pub discarded: u64,
    /// Group commit: multi-op batch messages flushed into the queues.
    pub batches_flushed: u64,
    /// Operations carried inside those batch messages.
    pub batched_ops: u64,
    /// Ops settled client-side by create×unlink annihilation in the
    /// publish buffer (counts both sides plus absorbed writebacks).
    pub coalesced_cancel: u64,
    /// Duplicate inline writebacks collapsed in the publish buffer.
    pub coalesced_collapse: u64,
    /// Replayed creations recognized as already applied after a lost
    /// reply (idempotent success instead of a burned retry).
    pub idempotent_replays: u64,
    /// Batched reads: client-side multi-get calls issued.
    pub batched_reads: u64,
    /// Keys fetched across those batched reads.
    pub batched_read_keys: u64,
    /// Network round trips avoided by grouping keys per shard node
    /// (keys minus shard-node groups, summed over all batches).
    pub read_rtts_saved: u64,
    /// Value bytes served by reference from the shards (refcount bump on
    /// a shared buffer) instead of being copied per hit.
    pub read_bytes_not_copied: u64,
    /// Completed barrier epochs.
    pub barrier_epoch: u64,
    /// Files staged durably while awaiting their create's commit.
    pub staged_files: usize,
    /// Records evicted by the space-management policy.
    pub evicted: u64,
    /// Durable commit queue: ops journaled into the region's WAL.
    pub wal_appended: u64,
    /// fsync calls the log actually issued (≤ appends under group fsync).
    pub wal_fsyncs: u64,
    /// Log truncations after the in-flight window drained.
    pub wal_truncations: u64,
    /// Ops read back from the WAL at launch (this incarnation).
    pub wal_replayed: u64,
    /// Recovered ops applied (including already-applied no-ops).
    pub recovery_applied: u64,
    /// Recovered ops dropped as unsatisfiable: the retry budget ran out on
    /// a prerequisite that was never logged.
    pub recovery_skipped: u64,
    /// Buffered-but-unpublished ops discarded by checkpoint rollback.
    pub rollback_dropped_ops: u64,
    /// Confirmed replay identities evicted from the DFS seen-cache (at
    /// launch and after fully-truncating sync barriers).
    pub replay_pruned: u64,
    /// Fault plane: cache RPC retries taken (backoff sleeps on the
    /// virtual clock).
    pub rpc_retries: u64,
    /// Reads served from the DFS backup copy while the region was
    /// degraded.
    pub degraded_reads: u64,
    /// Total virtual ns spent outside Healthy (closed windows plus the
    /// one still open, if any).
    pub degraded_window_ns: u64,
    /// Keys re-populated into the cache from DFS loads during recovery.
    pub rewarm_keys: u64,
    /// Cache-ring epoch: bumped on every membership event (crash,
    /// restart, migration begin/complete/abort). Monotonic.
    pub ring_epoch: u64,
    /// Live reshards started (`begin_join` + `begin_leave`).
    pub reshard_started: u64,
    /// Keys transferred to their new owners by live reshards.
    pub keys_migrated: u64,
    /// Fenced CAS attempts rejected on a stale routing epoch and retried
    /// with a refreshed view.
    pub wrong_epoch_retries: u64,
    /// Join migrations aborted by a crash (plus leave migrations
    /// force-completed, folded in as the other deterministic resolution).
    pub migration_aborts: u64,
}

impl RegionReport {
    /// Cache hit fraction (0 when no gets happened).
    pub fn hit_rate(&self) -> f64 {
        if self.cache_gets == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_gets as f64
        }
    }

    /// Commit backlog: operations accepted but not yet applied.
    pub fn backlog(&self) -> u64 {
        self.ops_enqueued.saturating_sub(self.ops_completed)
    }

    /// Mean keys per batched read (0 when none happened).
    pub fn keys_per_batch(&self) -> f64 {
        if self.batched_reads == 0 {
            0.0
        } else {
            self.batched_read_keys as f64 / self.batched_reads as f64
        }
    }
}

impl fmt::Display for RegionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "region {} ({} nodes, {} clients)",
            self.workspace, self.nodes, self.clients
        )?;
        writeln!(
            f,
            "  cache:  {} entries, {} bytes, hit rate {:.1}%, {} CAS conflicts",
            self.cached_entries,
            self.cache_bytes,
            self.hit_rate() * 100.0,
            self.cas_conflicts
        )?;
        writeln!(
            f,
            "  commit: {}/{} applied ({} resubmissions, {} discarded, backlog {})",
            self.committed,
            self.ops_enqueued,
            self.resubmitted,
            self.discarded,
            self.backlog()
        )?;
        writeln!(
            f,
            "  batch:  {} batches / {} ops, {} cancelled, {} collapsed, {} idempotent replays",
            self.batches_flushed,
            self.batched_ops,
            self.coalesced_cancel,
            self.coalesced_collapse,
            self.idempotent_replays
        )?;
        writeln!(
            f,
            "  reads:  {} batches / {} keys ({:.1}/batch), {} RTTs saved, {} bytes not copied",
            self.batched_reads,
            self.batched_read_keys,
            self.keys_per_batch(),
            self.read_rtts_saved,
            self.read_bytes_not_copied
        )?;
        writeln!(
            f,
            "  state:  barrier epoch {}, {} staged file(s), {} evicted record(s)",
            self.barrier_epoch, self.staged_files, self.evicted
        )?;
        writeln!(
            f,
            "  wal:    {} appended / {} fsyncs / {} truncations, \
             {} replayed ({} applied, {} skipped), {} rollback-dropped, {} pruned",
            self.wal_appended,
            self.wal_fsyncs,
            self.wal_truncations,
            self.wal_replayed,
            self.recovery_applied,
            self.recovery_skipped,
            self.rollback_dropped_ops,
            self.replay_pruned
        )?;
        writeln!(
            f,
            "  fault:  {} rpc retries, {} degraded reads, {} rewarmed keys, \
             degraded window {} ns",
            self.rpc_retries, self.degraded_reads, self.rewarm_keys, self.degraded_window_ns
        )?;
        write!(
            f,
            "  ring:   epoch {}, {} reshards, {} keys migrated, \
             {} wrong-epoch retries, {} aborts",
            self.ring_epoch,
            self.reshard_started,
            self.keys_migrated,
            self.wrong_epoch_retries,
            self.migration_aborts
        )
    }
}

impl PaconRegion {
    /// Collect a point-in-time [`RegionReport`].
    pub fn report(&self) -> RegionReport {
        let core = self.core();
        let kv = core.cache_cluster.stats();
        let reshard = core.cache_cluster.reshard_stats();
        RegionReport {
            workspace: core.root.clone(),
            nodes: core.config.topology.nodes,
            clients: core.config.topology.total_clients(),
            cached_entries: core.cache_cluster.len(),
            cache_bytes: core.cache_cluster.used_bytes(),
            cache_gets: kv.gets,
            cache_hits: kv.hits,
            cas_conflicts: kv.cas_conflicts,
            ops_enqueued: core.enqueued.load(std::sync::atomic::Ordering::Acquire),
            ops_completed: core.completed.load(std::sync::atomic::Ordering::Acquire),
            committed: core.counters.get("committed"),
            resubmitted: core.counters.get("resubmitted"),
            discarded: core.counters.get("discarded_removed_dir")
                + core.counters.get("dropped_retry_budget"),
            batches_flushed: core.counters.get("batches_flushed"),
            batched_ops: core.counters.get("batched_ops"),
            coalesced_cancel: core.counters.get("coalesced_cancel"),
            coalesced_collapse: core.counters.get("coalesced_collapse"),
            idempotent_replays: core.counters.get("idempotent_replays"),
            batched_reads: core.counters.get("batched_reads"),
            batched_read_keys: core.counters.get("batched_read_keys"),
            read_rtts_saved: core.counters.get("read_rtts_saved"),
            read_bytes_not_copied: kv.bytes_referenced,
            barrier_epoch: core.board.current_epoch(),
            staged_files: core.in_flight().staged_files(),
            evicted: core.counters.get("evicted"),
            wal_appended: core.counters.get("wal_appended"),
            wal_fsyncs: core.counters.get("wal_fsyncs"),
            wal_truncations: core.counters.get("wal_truncations"),
            wal_replayed: core.counters.get("wal_replayed"),
            recovery_applied: core.counters.get("recovery_applied"),
            recovery_skipped: core.counters.get("recovery_skipped"),
            rollback_dropped_ops: core.counters.get("rollback_dropped_ops"),
            replay_pruned: core.counters.get("replay_pruned"),
            rpc_retries: core.counters.get("rpc_retries"),
            degraded_reads: core.counters.get("degraded_reads"),
            degraded_window_ns: core.degraded.window_ns(core.sim_ns()),
            rewarm_keys: core.counters.get("rewarm_keys"),
            ring_epoch: core.cache_cluster.ring_epoch(),
            reshard_started: reshard.reshard_started,
            keys_migrated: reshard.keys_migrated,
            wrong_epoch_retries: core.counters.get("wrong_epoch_retries"),
            migration_aborts: reshard.migration_aborts + reshard.forced_completes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaconConfig;
    use fsapi::{Credentials, FileSystem};
    use simnet::{ClientId, LatencyProfile, Topology};
    use std::sync::Arc;

    #[test]
    fn report_tracks_activity() {
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let region = PaconRegion::launch(
            PaconConfig::new("/app", Topology::new(2, 2), cred),
            &dfs,
        )
        .unwrap();
        let c = region.client(ClientId(0));
        for i in 0..10 {
            c.create(&format!("/app/f{i}"), &cred, 0o644).unwrap();
        }
        c.stat("/app/f0", &cred).unwrap();
        c.stat("/app/f0", &cred).unwrap();
        region.quiesce();

        let r = region.report();
        assert_eq!(r.workspace, "/app");
        assert_eq!(r.nodes, 2);
        assert_eq!(r.clients, 4);
        assert_eq!(r.cached_entries, 10);
        assert!(r.cache_bytes > 0);
        assert_eq!(r.ops_enqueued, 10);
        assert_eq!(r.committed, 10);
        assert_eq!(r.backlog(), 0);
        assert!(r.hit_rate() > 0.0);

        let text = r.to_string();
        assert!(text.contains("region /app"));
        assert!(text.contains("10/10 applied"));
        region.shutdown().unwrap();
    }

    #[test]
    fn report_tracks_group_commit_counters() {
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        // Paused region: the worker only runs after all 40 creates are
        // buffered, so exactly 5 full batches of 8 form deterministically.
        let region = PaconRegion::launch_paused(
            PaconConfig::new("/app", Topology::new(1, 1), cred).with_commit_batch(8),
            &dfs,
        )
        .unwrap();
        let c = region.client(ClientId(0));
        for i in 0..40 {
            c.create(&format!("/app/f{i}"), &cred, 0o644).unwrap();
        }
        let mut w = region.take_worker(0);
        let mut spins = 0;
        while !region.core().drained() {
            w.step();
            spins += 1;
            assert!(spins < 10_000, "commit never converged");
        }

        let r = region.report();
        assert_eq!(r.committed, 40);
        assert_eq!(r.backlog(), 0);
        assert_eq!(r.batches_flushed, 5);
        assert_eq!(r.batched_ops, 40);
        let text = r.to_string();
        assert!(text.contains("batch:"), "display must surface batching: {text}");

        // Backup copy is complete.
        use fsapi::FileSystem as _;
        assert_eq!(dfs.client().readdir("/app", &cred).unwrap().len(), 40);
    }

    #[test]
    fn report_tracks_batched_reads() {
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let region = PaconRegion::launch(
            PaconConfig::new("/app", Topology::new(2, 1), cred),
            &dfs,
        )
        .unwrap();
        let c = region.client(ClientId(0));
        for i in 0..12 {
            c.create(&format!("/app/f{i}"), &cred, 0o644).unwrap();
        }
        let paths: Vec<String> = (0..12).map(|i| format!("/app/f{i}")).collect();
        let stats = c.stat_many(&paths, &cred);
        assert!(stats.iter().all(|r| r.is_ok()));
        let entries = c.readdir_plus("/app", &cred).unwrap();
        assert_eq!(entries.len(), 12);

        let r = region.report();
        assert_eq!(r.batched_reads, 2, "one stat_many + one readdir_plus batch");
        assert_eq!(r.batched_read_keys, 24);
        // 24 keys over at most 2 shard nodes per batch.
        assert!(r.read_rtts_saved >= 24 - 4);
        assert!(r.keys_per_batch() > 11.9);
        assert!(r.read_bytes_not_copied > 0, "hits must be served by reference");
        let text = r.to_string();
        assert!(text.contains("reads:"), "display must surface batched reads: {text}");
        region.shutdown().unwrap();
    }

    #[test]
    fn backlog_visible_on_paused_region() {
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let region = PaconRegion::launch_paused(
            PaconConfig::new("/app", Topology::new(1, 1), cred),
            &dfs,
        )
        .unwrap();
        let c = region.client(ClientId(0));
        for i in 0..5 {
            c.create(&format!("/app/f{i}"), &cred, 0o644).unwrap();
        }
        let r = region.report();
        assert_eq!(r.backlog(), 5, "no workers ran; everything is backlog");
        assert_eq!(r.committed, 0);
    }
}
