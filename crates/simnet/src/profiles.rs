//! Calibrated latency constants for the simulated testbed.
//!
//! The paper's testbed: TIANHE-II client nodes (2x Xeon E5, 64 GB RAM,
//! Infiniband-class interconnect), BeeGFS with 1 MDS on an NVMe SSD and 3
//! data servers, IndexFS co-located with the client nodes with its LevelDB
//! tables stored *on BeeGFS*, and a Memcached cluster on the client nodes.
//!
//! The constants below are service demands in virtual nanoseconds. They
//! were calibrated once so that the single-client latencies and the
//! saturation throughputs of the three systems land in the regimes the
//! paper reports (see EXPERIMENTS.md for the derivation); all figure
//! harnesses share this one profile, i.e. no experiment gets its own
//! numbers.

/// Service-demand profile of the simulated cluster (all values virtual ns).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyProfile {
    // ---- network fabric ----
    /// Round trip client <-> dedicated storage cluster (MDS/data servers).
    pub net_rtt_storage: u64,
    /// Round trip between two client nodes (co-located services: memcached
    /// shards, IndexFS servers, merged-region caches).
    pub net_hop_remote: u64,
    /// Same-node service access (loopback / shared memory).
    pub net_local: u64,

    // ---- BeeGFS-like MDS ----
    /// MDS service time: create one file (dentry + inode on the MDS store).
    pub mds_create: u64,
    /// MDS service time: mkdir.
    pub mds_mkdir: u64,
    /// MDS service time: getattr of a resolved entry.
    pub mds_stat: u64,
    /// MDS service time: resolve one path component (dentry lookup).
    pub mds_lookup: u64,
    /// MDS service time: unlink a file.
    pub mds_unlink: u64,
    /// MDS service time: rmdir (empty directory).
    pub mds_rmdir: u64,
    /// MDS service time: readdir, fixed part.
    pub mds_readdir_base: u64,
    /// MDS service time: readdir, per returned entry.
    pub mds_readdir_per_entry: u64,
    /// MDS service time: batched namespace update, fixed part (one
    /// request decode + one namespace-lock acquisition per batch).
    pub mds_batch_base: u64,
    /// MDS service time: batched namespace update, per operation. Group
    /// commit amortizes the per-request overheads, so this sits well
    /// below the standalone create/unlink demands.
    pub mds_batch_per_op: u64,

    // ---- BeeGFS-like data servers ----
    /// Data server service time per MiB written.
    pub data_write_per_mib: u64,
    /// Data server service time per MiB read.
    pub data_read_per_mib: u64,

    // ---- IndexFS-like servers (LevelDB tables stored on BeeGFS) ----
    /// Server service time: insert one metadata record (memtable + WAL on
    /// the DFS-backed store — the reason this is the slowest KV path).
    pub idx_put: u64,
    /// Server service time: point lookup of one metadata record.
    pub idx_get: u64,
    /// Server service time: resolve one path component / validate a lease.
    pub idx_lookup: u64,
    /// Server service time: readdir scan, fixed part.
    pub idx_readdir_base: u64,
    /// Server service time: readdir scan, per entry.
    pub idx_readdir_per_entry: u64,
    /// Per-record service time during bulk insertion (amortized SSTable
    /// build, no per-op WAL round trip).
    pub idx_bulk_per_record: u64,

    // ---- memcached-like distributed cache ----
    /// Shard service time per KV operation (get/set/cas/delete).
    pub kv_op: u64,
    /// Marginal shard service time per *additional* key in a batched
    /// request — a multi-get, and since the commit process settles a
    /// message's cache records together, a batched conditional store
    /// (`memkv::KvClient::multi_write`). One request decode and one
    /// dispatch are paid via `kv_op`; each extra key is a hash-table
    /// probe (plus, for a store, a version compare and an in-place
    /// swap under the lock already held), so this sits well below the
    /// standalone per-op demand.
    pub kv_multi_per_key: u64,
    /// Extra shard service time per KiB of payload (inline small files).
    pub kv_payload_per_kib: u64,
    /// Destination-shard service time per key transferred by a live
    /// reshard (bulk install: no request decode, no reply). Sits below
    /// `kv_op` — migration streams batches, it does not replay client
    /// traffic.
    pub kv_migrate_per_key: u64,

    // ---- Pacon client-side costs ----
    /// Client CPU per Pacon op: batch permission check, key construction,
    /// metadata (de)serialization.
    pub pacon_client_overhead: u64,
    /// Cost of pushing one operation message into the commit queue
    /// (ZeroMQ-like publish).
    pub queue_push: u64,
    /// Commit-process CPU to pop + decode one message before replaying it
    /// against the DFS.
    pub commit_dispatch: u64,
}

impl Default for LatencyProfile {
    fn default() -> Self {
        Self {
            net_rtt_storage: 25_000,
            net_hop_remote: 9_000,
            net_local: 1_500,

            mds_create: 75_000,
            mds_mkdir: 75_000,
            mds_stat: 15_000,
            mds_lookup: 12_000,
            mds_unlink: 40_000,
            mds_rmdir: 45_000,
            mds_readdir_base: 20_000,
            mds_readdir_per_entry: 300,
            mds_batch_base: 50_000,
            mds_batch_per_op: 20_000,

            data_write_per_mib: 1_000_000,
            data_read_per_mib: 800_000,

            idx_put: 140_000,
            idx_get: 45_000,
            idx_lookup: 42_000,
            idx_readdir_base: 30_000,
            idx_readdir_per_entry: 400,
            idx_bulk_per_record: 8_000,

            kv_op: 10_000,
            kv_multi_per_key: 1_500,
            kv_payload_per_kib: 1_000,
            kv_migrate_per_key: 2_000,

            pacon_client_overhead: 5_000,
            queue_push: 5_500,
            commit_dispatch: 2_000,
        }
    }
}

impl LatencyProfile {
    /// A profile with every cost zeroed — used by unit tests that exercise
    /// functional behaviour only.
    pub fn zero() -> Self {
        Self {
            net_rtt_storage: 0,
            net_hop_remote: 0,
            net_local: 0,
            mds_create: 0,
            mds_mkdir: 0,
            mds_stat: 0,
            mds_lookup: 0,
            mds_unlink: 0,
            mds_rmdir: 0,
            mds_readdir_base: 0,
            mds_readdir_per_entry: 0,
            mds_batch_base: 0,
            mds_batch_per_op: 0,
            data_write_per_mib: 0,
            data_read_per_mib: 0,
            idx_put: 0,
            idx_get: 0,
            idx_lookup: 0,
            idx_readdir_base: 0,
            idx_readdir_per_entry: 0,
            idx_bulk_per_record: 0,
            kv_op: 0,
            kv_multi_per_key: 0,
            kv_payload_per_kib: 0,
            kv_migrate_per_key: 0,
            pacon_client_overhead: 0,
            queue_push: 0,
            commit_dispatch: 0,
        }
    }

    /// Uniformly scale every constant (used to shrink experiment wall time
    /// while preserving all ratios).
    pub fn scaled(&self, f: f64) -> Self {
        assert!(f.is_finite() && f >= 0.0, "scale factor must be finite and non-negative");
        let s = |v: u64| ((v as f64) * f).round() as u64;
        Self {
            net_rtt_storage: s(self.net_rtt_storage),
            net_hop_remote: s(self.net_hop_remote),
            net_local: s(self.net_local),
            mds_create: s(self.mds_create),
            mds_mkdir: s(self.mds_mkdir),
            mds_stat: s(self.mds_stat),
            mds_lookup: s(self.mds_lookup),
            mds_unlink: s(self.mds_unlink),
            mds_rmdir: s(self.mds_rmdir),
            mds_readdir_base: s(self.mds_readdir_base),
            mds_readdir_per_entry: s(self.mds_readdir_per_entry),
            mds_batch_base: s(self.mds_batch_base),
            mds_batch_per_op: s(self.mds_batch_per_op),
            data_write_per_mib: s(self.data_write_per_mib),
            data_read_per_mib: s(self.data_read_per_mib),
            idx_put: s(self.idx_put),
            idx_get: s(self.idx_get),
            idx_lookup: s(self.idx_lookup),
            idx_readdir_base: s(self.idx_readdir_base),
            idx_readdir_per_entry: s(self.idx_readdir_per_entry),
            idx_bulk_per_record: s(self.idx_bulk_per_record),
            kv_op: s(self.kv_op),
            kv_multi_per_key: s(self.kv_multi_per_key),
            kv_payload_per_kib: s(self.kv_payload_per_kib),
            kv_migrate_per_key: s(self.kv_migrate_per_key),
            pacon_client_overhead: s(self.pacon_client_overhead),
            queue_push: s(self.queue_push),
            commit_dispatch: s(self.commit_dispatch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ordering_sanity() {
        let p = LatencyProfile::default();
        // The cache shard must be much cheaper than any server-side path.
        assert!(p.kv_op < p.mds_create);
        assert!(p.kv_op < p.idx_put);
        // IndexFS puts hit DFS-backed LevelDB and are the slowest KV path.
        assert!(p.idx_put > p.mds_create);
        // Local access is cheaper than a remote hop, which is cheaper than
        // reaching the dedicated storage cluster.
        assert!(p.net_local < p.net_hop_remote);
        assert!(p.net_hop_remote < p.net_rtt_storage);
        // Bulk insertion amortizes below the per-op put cost.
        assert!(p.idx_bulk_per_record < p.idx_put);
        // Batched namespace updates amortize below standalone ops: the
        // marginal cost per batched op undercuts every single-op demand
        // it can replace, and a large batch must beat the unbatched path
        // (32 ops batched vs 32 standalone unlinks, the cheapest case).
        assert!(p.mds_batch_per_op < p.mds_unlink);
        assert!(p.mds_batch_per_op < p.mds_create);
        assert!(p.mds_batch_base + 32 * p.mds_batch_per_op < 32 * p.mds_unlink);
        // Data-plane group commit: the data server's per-visit floor (one
        // whole MiB) is paid per request, so a vectored visit carrying 16
        // small files undercuts 16 single visits; the size batch that
        // follows amortizes only the request base — each file's size
        // update still costs a full `mds_stat`, and 16 of them batched
        // beat the getattr + set_size pair per file they replace.
        let visit = |bytes: u64| bytes.div_ceil(1 << 20).max(1) * p.data_write_per_mib;
        assert!(visit(16 * 64) < 16 * visit(64));
        assert!((p.mds_batch_base + 16 * p.mds_stat) / 16 >= p.mds_stat);
        assert!(p.mds_batch_base + 16 * p.mds_stat < 16 * 2 * p.mds_stat);
        // A batched request — multi-get or batched conditional store —
        // amortizes below per-key ops: the marginal key undercuts the
        // standalone op, and a batch of 32 beats 32 singles even before
        // saved network hops are counted.
        assert!(p.kv_multi_per_key < p.kv_op);
        assert!(p.kv_op + 31 * p.kv_multi_per_key < 32 * p.kv_op);
        // A bulk-migrated key is cheaper than a client-driven set: no
        // request decode, no reply path.
        assert!(p.kv_migrate_per_key < p.kv_op);
    }

    #[test]
    fn zero_profile_is_all_zero() {
        let z = LatencyProfile::zero();
        assert_eq!(z.scaled(123.0), z);
        assert_eq!(z.kv_op, 0);
        assert_eq!(z.mds_create, 0);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let p = LatencyProfile::default();
        let half = p.scaled(0.5);
        assert_eq!(half.mds_create, p.mds_create / 2);
        assert_eq!(half.kv_op, p.kv_op / 2);
        let identity = p.scaled(1.0);
        assert_eq!(identity, p);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn negative_scale_panics() {
        LatencyProfile::default().scaled(-1.0);
    }
}
