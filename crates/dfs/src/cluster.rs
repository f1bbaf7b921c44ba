//! Cluster assembly: metadata servers + data servers + shared namespace.

use std::sync::Arc;

use fsapi::{FsResult, Perm};
use simnet::LatencyProfile;
use syncguard::{level, Mutex, RwLock};

use crate::client::DfsClient;
use crate::datasrv::DataServer;
use crate::mds::Mds;
use crate::namespace::{Ino, Namespace};
use crate::replay::{OpId, SeenCache};

/// Cluster shape. The paper's testbed: 1 MDS (NVMe-backed) + 3 data
/// servers.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    pub n_mds: u32,
    pub n_data: u32,
    /// Per-client dentry-cache capacity (entries).
    pub dentry_cache_capacity: usize,
    /// Mode bits of `/`.
    pub root_mode: u16,
}

impl Default for DfsConfig {
    fn default() -> Self {
        Self { n_mds: 1, n_data: 3, dentry_cache_capacity: 4096, root_mode: 0o777 }
    }
}

/// A running DFS cluster. Hand out clients with [`DfsCluster::client`].
pub struct DfsCluster {
    ns: Arc<RwLock<Namespace>>,
    mds: Vec<Arc<Mds>>,
    data: Vec<Arc<DataServer>>,
    /// Idempotent-replay identities; shared by every MDS so it survives
    /// the restart of any region committing into this cluster.
    seen: Arc<Mutex<SeenCache>>,
    profile: Arc<LatencyProfile>,
    config: DfsConfig,
}

impl DfsCluster {
    pub fn new(config: DfsConfig, profile: Arc<LatencyProfile>) -> Arc<Self> {
        assert!(config.n_mds > 0 && config.n_data > 0, "cluster needs servers");
        let ns = Arc::new(RwLock::new(level::BACKEND, "dfs.namespace", Namespace::new(config.root_mode)));
        let seen = SeenCache::shared();
        let mds = (0..config.n_mds)
            .map(|i| Mds::with_seen(i, Arc::clone(&ns), Arc::clone(&seen), Arc::clone(&profile)))
            .collect();
        let data =
            (0..config.n_data).map(|i| DataServer::new(i, Arc::clone(&profile))).collect();
        Arc::new(Self { ns, mds, data, seen, profile, config })
    }

    /// Default-config cluster (1 MDS + 3 data servers), the paper's shape.
    pub fn with_default_config(profile: Arc<LatencyProfile>) -> Arc<Self> {
        Self::new(DfsConfig::default(), profile)
    }

    /// A new client with its own dentry cache (one per process).
    pub fn client(self: &Arc<Self>) -> DfsClient {
        DfsClient::new(Arc::clone(self), self.config.dentry_cache_capacity)
    }

    /// A client with a custom dentry-cache size (used by experiments that
    /// vary client caching).
    pub fn client_with_dentry_capacity(self: &Arc<Self>, capacity: usize) -> DfsClient {
        DfsClient::new(Arc::clone(self), capacity)
    }

    /// MDS responsible for an inode (directory-sharded like BeeGFS
    /// multi-MDS mode; a single-MDS cluster always returns server 0).
    pub fn mds_for(&self, ino: Ino) -> &Arc<Mds> {
        &self.mds[(ino.0 % self.mds.len() as u64) as usize]
    }

    /// Data server holding a given chunk of a file.
    pub fn data_server_for(&self, ino: Ino, chunk_idx: u64) -> &Arc<DataServer> {
        &self.data[((ino.0 + chunk_idx) % self.data.len() as u64) as usize]
    }

    /// Whether an identified data writeback replay would be stale (the
    /// exact write already applied, or the path was re-created since).
    pub fn data_replay_is_stale(&self, path: &str, id: &OpId) -> bool {
        !id.is_none() && self.seen.lock().data_replay_is_stale(path, id)
    }

    /// Record an applied identified data writeback so a second replay of
    /// the same log (crash during recovery) no-ops.
    pub fn record_data_replay(&self, path: &str, id: &OpId, ino: Ino) {
        if !id.is_none() {
            self.seen.lock().record(path, *id, ino);
        }
    }

    /// Number of replay identities remembered (diagnostics).
    pub fn seen_len(&self) -> usize {
        self.seen.lock().len()
    }

    /// Latest recorded namespace generation of every path under `root`
    /// (region launch: seed writeback generations for files created by
    /// earlier incarnations).
    pub fn replay_generations_under(&self, root: &str) -> Vec<(String, u64)> {
        self.seen.lock().generations_under(root)
    }

    /// Evict replay identities under `root` from incarnations
    /// `< below_incarnation` (`u64::MAX` = all of them). Only safe once
    /// the commit logs that could replay those identities are truncated;
    /// the owning region calls this at launch (after recovery reset its
    /// logs) and after fully-truncating sync barriers. Returns how many
    /// identities were evicted.
    pub fn prune_replay_identities(&self, root: &str, below_incarnation: u64) -> usize {
        self.seen.lock().prune_under(root, below_incarnation)
    }

    /// Drop a deleted file's chunks on every data server (server-side
    /// cleanup, uncharged).
    pub fn drop_file(&self, ino: Ino) {
        for d in &self.data {
            d.drop_file(ino);
        }
    }

    /// Perm and kind of an inode (uncharged — piggybacked on the lookup
    /// RPC the caller already paid for).
    pub fn peek_meta(&self, ino: Ino) -> FsResult<(Perm, fsapi::FileKind)> {
        let ns = self.ns.read();
        let inode = ns.get(ino)?;
        Ok((inode.perm, inode.kind))
    }

    /// Perm of `/`.
    pub fn root_perm(&self) -> Perm {
        self.ns.read().get(Ino::ROOT).expect("root must exist").perm
    }

    pub fn profile(&self) -> &Arc<LatencyProfile> {
        &self.profile
    }

    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// Full-tree listing for equivalence tests and checkpoints.
    pub fn snapshot(&self) -> Vec<(String, fsapi::FileKind, u64)> {
        self.ns.read().snapshot()
    }

    /// Live inode count (leak detection in tests).
    pub fn inode_count(&self) -> usize {
        self.ns.read().inode_count()
    }

    /// Aggregate a counter across all MDS instances.
    pub fn mds_counter(&self, name: &str) -> u64 {
        self.mds.iter().map(|m| m.counters.get(name)).sum()
    }

    /// Fault injection: make the next `n` requests at MDS `mds_id` fail
    /// transiently (tests and failure-injection experiments).
    pub fn inject_mds_failures(&self, mds_id: u32, n: u64) {
        self.mds[mds_id as usize].inject_failures(n);
    }

    /// Fault injection: the next `n` mutations at MDS `mds_id` apply but
    /// lose their reply (duplicate-replay hazard for the caller).
    pub fn inject_mds_reply_loss(&self, mds_id: u32, n: u64) {
        self.mds[mds_id as usize].inject_reply_loss(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsapi::{Credentials, FileSystem, FsError};
    use simnet::{with_recording, Station};

    fn cluster() -> Arc<DfsCluster> {
        DfsCluster::with_default_config(Arc::new(LatencyProfile::default()))
    }

    fn cred() -> Credentials {
        Credentials::new(100, 100)
    }

    #[test]
    fn end_to_end_metadata_flow() {
        let c = cluster();
        let fs = c.client();
        let u = cred();
        fs.mkdir("/w", &u, 0o755).unwrap();
        fs.mkdir("/w/sub", &u, 0o755).unwrap();
        fs.create("/w/sub/file", &u, 0o644).unwrap();
        let st = fs.stat("/w/sub/file", &u).unwrap();
        assert!(st.is_file());
        assert_eq!(fs.readdir("/w", &u).unwrap(), vec!["sub"]);
        assert_eq!(fs.rmdir("/w/sub", &u), Err(FsError::NotEmpty));
        fs.unlink("/w/sub/file", &u).unwrap();
        fs.rmdir("/w/sub", &u).unwrap();
        assert_eq!(fs.stat("/w/sub", &u), Err(FsError::NotFound));
        assert_eq!(c.inode_count(), 2); // root + /w
    }

    #[test]
    fn dentry_cache_absorbs_repeated_lookups() {
        let c = cluster();
        let fs = c.client();
        let u = cred();
        fs.mkdir("/a", &u, 0o755).unwrap();
        fs.mkdir("/a/b", &u, 0o755).unwrap();
        fs.create("/a/b/f", &u, 0o644).unwrap();
        let misses0 = fs.counters.get("dentry_miss");
        // The creating client cached every component on the way down.
        fs.stat("/a/b/f", &u).unwrap();
        fs.stat("/a/b/f", &u).unwrap();
        assert_eq!(fs.counters.get("dentry_miss"), misses0);

        // A fresh client misses each *ancestor* component once (the final
        // component rides the combined lookup+stat RPC), then hits.
        let fs2 = c.client();
        fs2.stat("/a/b/f", &u).unwrap();
        assert_eq!(fs2.counters.get("dentry_miss"), 2);
        fs2.stat("/a/b/f", &u).unwrap();
        assert_eq!(fs2.counters.get("dentry_miss"), 2);
    }

    #[test]
    fn deeper_paths_cost_more_rpcs_for_cold_clients() {
        let c = cluster();
        let setup = c.client();
        let u = cred();
        setup.mkdir("/d1", &u, 0o755).unwrap();
        setup.mkdir("/d1/d2", &u, 0o755).unwrap();
        setup.mkdir("/d1/d2/d3", &u, 0o755).unwrap();
        setup.create("/d1/d2/d3/f", &u, 0o644).unwrap();

        let p = c.profile().clone();
        let cold = c.client();
        let ((), t) = with_recording(|| {
            cold.stat("/d1/d2/d3/f", &u).unwrap();
        });
        // 3 ancestor lookups + 1 combined lookup+stat round trip.
        assert_eq!(t.station_ns(Station::Network), 4 * p.net_rtt_storage);
        assert_eq!(t.station_ns(Station::Mds(0)), 3 * p.mds_lookup + p.mds_stat);

        // Warm client: only the getattr RPC remains.
        let ((), t) = with_recording(|| {
            cold.stat("/d1/d2/d3/f", &u).unwrap();
        });
        assert_eq!(t.station_ns(Station::Network), p.net_rtt_storage);
        assert_eq!(t.station_ns(Station::Mds(0)), p.mds_stat);
    }

    #[test]
    fn dentry_cache_capacity_bounds_entries() {
        let c = cluster();
        let fs = c.client_with_dentry_capacity(8);
        let u = cred();
        for i in 0..50 {
            fs.create(&format!("/f{i:02}"), &u, 0o644).unwrap();
        }
        assert!(fs.dentry_count() <= 8);
    }

    #[test]
    fn file_data_roundtrip_and_striping() {
        let c = cluster();
        let fs = c.client();
        let u = cred();
        fs.create("/big", &u, 0o644).unwrap();
        // Spans three 512 KiB chunks.
        let data: Vec<u8> = (0..(1300 * 1024)).map(|i| (i % 251) as u8).collect();
        assert_eq!(fs.write("/big", &u, 0, &data).unwrap(), data.len());
        assert_eq!(fs.stat("/big", &u).unwrap().size, data.len() as u64);
        let back = fs.read("/big", &u, 0, data.len()).unwrap();
        assert_eq!(back, data);
        // Offset read across a chunk boundary.
        let mid = fs.read("/big", &u, 512 * 1024 - 10, 20).unwrap();
        assert_eq!(mid, data[512 * 1024 - 10..512 * 1024 + 10]);
        // Reads past EOF are truncated.
        let tail = fs.read("/big", &u, data.len() as u64 - 5, 100).unwrap();
        assert_eq!(tail.len(), 5);
    }

    #[test]
    fn permission_denied_across_users() {
        let c = cluster();
        let fs = c.client();
        let owner = cred();
        fs.mkdir("/private", &owner, 0o700).unwrap();
        fs.create("/private/f", &owner, 0o600).unwrap();
        let stranger = Credentials::new(200, 200);
        let fs2 = c.client();
        assert_eq!(fs2.stat("/private/f", &stranger), Err(FsError::PermissionDenied));
        assert_eq!(fs2.create("/private/g", &stranger, 0o644), Err(FsError::PermissionDenied));
        assert_eq!(fs2.readdir("/private", &stranger), Err(FsError::PermissionDenied));
    }

    #[test]
    fn stale_dentries_fail_safely_after_remote_removal() {
        let c = cluster();
        let a = c.client();
        let b = c.client();
        let u = cred();
        a.mkdir("/t", &u, 0o755).unwrap();
        a.create("/t/f", &u, 0o644).unwrap();
        b.stat("/t/f", &u).unwrap(); // b caches /t and /t/f
        a.unlink("/t/f", &u).unwrap();
        // b's dentry is stale; the final getattr RPC reports NotFound.
        assert_eq!(b.stat("/t/f", &u), Err(FsError::NotFound));
    }

    #[test]
    fn multi_mds_splits_load() {
        let c = DfsCluster::new(
            DfsConfig { n_mds: 4, ..DfsConfig::default() },
            Arc::new(LatencyProfile::default()),
        );
        let fs = c.client();
        let u = cred();
        fs.mkdir("/spread", &u, 0o755).unwrap();
        for i in 0..64 {
            fs.create(&format!("/spread/f{i:02}"), &u, 0o644).unwrap();
        }
        // All four MDS instances should have seen create traffic via the
        // directory-sharded routing. (Creates route by parent ino; files
        // land where their parent lives, so assert on lookups+creates.)
        let total: u64 = c.mds_counter("create") + c.mds_counter("mkdir");
        assert_eq!(total, 65);
    }

    /// Twelve small files plus the corner cases of a group: a missing
    /// path, an empty payload, and the same path twice.
    fn small_batch_items(payloads: &[Vec<u8>]) -> Vec<(String, &[u8])> {
        let mut items: Vec<(String, &[u8])> =
            payloads.iter().enumerate().map(|(i, d)| (format!("/s/f{i:02}"), &d[..])).collect();
        items.push(("/s/missing".to_string(), b"lost"));
        items.push(("/s/f00".to_string(), b""));
        items.push(("/s/f01".to_string(), b"rewritten, and longer than the first payload"));
        items
    }

    #[test]
    fn small_batch_equals_single_writes_and_costs_one_visit_per_server() {
        let payloads: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 8 + i as usize]).collect();
        let items = small_batch_items(&payloads);
        let u = cred();
        let populate = |c: &Arc<DfsCluster>| {
            let fs = c.client();
            fs.mkdir("/s", &u, 0o755).unwrap();
            for i in 0..12 {
                fs.create(&format!("/s/f{i:02}"), &u, 0o644).unwrap();
            }
            fs
        };

        let single = cluster();
        let fs = populate(&single);
        let want: Vec<FsResult<usize>> =
            items.iter().map(|(path, data)| fs.write(path, &u, 0, data)).collect();

        let batched = cluster();
        let fs = populate(&batched);
        let refs: Vec<(&str, &[u8], OpId)> =
            items.iter().map(|(path, data)| (path.as_str(), *data, OpId::NONE)).collect();
        let (got, t) = with_recording(|| fs.write_small_batch(&refs, &u));
        assert_eq!(got, want);
        assert_eq!(got[12], Err(FsError::NotFound), "a missing path fails alone");
        assert_eq!(batched.snapshot(), single.snapshot(), "same namespace and sizes");
        let (a, b) = (single.client(), batched.client());
        for i in 0..12 {
            let p = format!("/s/f{i:02}");
            assert_eq!(b.read(&p, &u, 0, 4096).unwrap(), a.read(&p, &u, 0, 4096).unwrap());
        }

        // 13 payloads in one visit per data server (12 inodes stripe over
        // all three) and one size request; the missing path costs its
        // lookup round as it would alone.
        let p = batched.profile();
        let data_ns: u64 = (0..3).map(|i| t.station_ns(Station::DataServer(i))).sum();
        assert_eq!(data_ns, 3 * p.data_write_per_mib);
        assert_eq!(
            t.station_ns(Station::Mds(0)),
            p.mds_batch_base + 13 * p.mds_stat + p.mds_lookup
        );
        assert_eq!(t.station_ns(Station::Network), 5 * p.net_rtt_storage);
        assert_eq!(fs.counters.get("small_batch_rpcs"), 1);
        assert_eq!(fs.counters.get("batch_rpcs"), 0);
        assert_eq!(batched.mds_counter("size_batch_ops"), 13);
    }

    #[test]
    fn identified_small_batch_replays_as_noops() {
        let c = cluster();
        let fs = c.client();
        let u = cred();
        fs.mkdir("/s", &u, 0o755).unwrap();
        for i in 0..4 {
            fs.create(&format!("/s/f{i}"), &u, 0o644).unwrap();
        }
        let paths: Vec<String> = (0..4).map(|i| format!("/s/f{i}")).collect();
        let items: Vec<(&str, &[u8], OpId)> = paths
            .iter()
            .zip(1u64..)
            .map(|(p, w)| (p.as_str(), &b"payload"[..], OpId { write_id: w, generation: 0 }))
            .collect();
        // A fault striking the first size update (the paths resolve from
        // the dentry cache, so nothing else consumes it): that item fails
        // alone and must not be remembered as applied.
        c.inject_mds_failures(0, 1);
        let first = fs.write_small_batch(&items, &u);
        assert!(matches!(first[0], Err(FsError::Backend(_))), "{first:?}");
        assert_eq!(first[1..], [Ok(7), Ok(7), Ok(7)]);
        assert_eq!(c.seen_len(), 3, "the failed item has no replay identity yet");

        // Replaying the whole group: three no-ops, the failed item applies.
        let replay = fs.write_small_batch(&items, &u);
        assert_eq!(replay, vec![Ok(7); 4]);
        assert_eq!(fs.counters.get("replay_skipped_write"), 3);
        assert_eq!(fs.read("/s/f0", &u, 0, 64).unwrap(), b"payload");
        // And once more: all four are remembered.
        fs.write_small_batch(&items, &u);
        assert_eq!(fs.counters.get("replay_skipped_write"), 7);
    }

    #[test]
    fn write_to_missing_file_fails() {
        let c = cluster();
        let fs = c.client();
        let u = cred();
        assert_eq!(fs.write("/nope", &u, 0, b"data"), Err(FsError::NotFound));
        assert_eq!(fs.read("/nope", &u, 0, 4), Err(FsError::NotFound));
    }
}
