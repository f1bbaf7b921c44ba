//! The per-process Pacon client: Table I semantics over the distributed
//! cache, the commit queue, and the underlying DFS.
//!
//! | op      | cache op        | comm            | commit        |
//! |---------|-----------------|-----------------|---------------|
//! | create  | put             | async           | independent   |
//! | mkdir   | put             | async           | independent   |
//! | rm      | update + delete | async           | independent   |
//! | getattr | get             | n/a, sync miss  | n/a           |
//! | rmdir   | delete subtree  | sync            | barrier       |
//! | readdir | none (DFS call) | sync            | barrier       |
//!
//! Requests outside every known consistent region are redirected to the
//! DFS untouched (weak consistency, Section III.A); merged regions are
//! read-only (Section III.D-4).

use std::collections::HashMap;
use std::sync::Arc;

use dfs::DfsClient;
use fsapi::types::{ACCESS_R, ACCESS_W, ACCESS_X};
use fsapi::{path as fspath, Credentials, FileKind, FileStat, FsError, FsResult, Perm};
use fsapi::FileSystem;
use simnet::{charge, ClientId, NodeId, Station};
use syncguard::{level, Mutex, RwLock};

use crate::cache::{CacheError, Held, MetaCache};
use crate::commit::op::{CommitOp, QueueMsg};
use crate::degraded::Mode as DegradedMode;
use crate::eviction;
use crate::metadata::CachedMeta;
use crate::region::{RegionCore, RegionHandle};

/// A merged region: its handle plus a remote cache client.
struct Merged {
    handle: RegionHandle,
    cache: MetaCache,
}

/// One application process's Pacon endpoint.
pub struct PaconClient {
    core: Arc<RegionCore>,
    cache: MetaCache,
    /// The node's DFS mount, shared with the node's other clients and its
    /// commit process.
    dfs: Arc<DfsClient>,
    merged: RwLock<Vec<Merged>>,
    id: ClientId,
    node: NodeId,
    /// Memo of the most recently verified parent directory: consecutive
    /// creations in one directory (the common mdtest/N-N pattern) pay the
    /// parent-existence check only once. Invalidated by rmdir.
    parent_memo: Mutex<Option<String>>,
    /// Own-write memo: the one record this client stored last, exactly as
    /// its shard holds it. The next write of the same path hands it to
    /// [`MetaCache::update`] and goes straight to the CAS — the N-N
    /// checkpoint shape (create a file, write it) then costs two cache
    /// round trips, not four. Taken out on use and put back only by the
    /// update that succeeded, so an unlink or any failure in between
    /// drops it. A leaf lock: never held across a cache RPC.
    write_memo: Mutex<WriteMemo>,
}

struct WriteMemo {
    /// Outlives the entry, so refilling the memo reuses the buffer.
    path: String,
    held: Option<Held>,
}

impl PaconClient {
    pub(crate) fn new(
        core: Arc<RegionCore>,
        kv: memkv::KvClient,
        dfs: Arc<DfsClient>,
        id: ClientId,
        node: NodeId,
    ) -> Self {
        Self {
            cache: MetaCache::with_faults(kv, Arc::clone(&core)),
            core,
            dfs,
            merged: RwLock::new(level::CLIENT_VIEW, "pacon.client.merged", Vec::new()),
            id,
            node,
            parent_memo: Mutex::new(level::CLIENT_MEMO, "pacon.client.parent_memo", None),
            write_memo: Mutex::new(
                level::CLIENT_MEMO,
                "pacon.client.write_memo",
                WriteMemo { path: String::new(), held: None },
            ),
        }
    }

    /// Merge another application's consistent region into this client's
    /// view (read-only access, Section III.D-4).
    pub fn merge_region(&self, handle: RegionHandle) {
        let cache = MetaCache::new(handle.cache_cluster.remote_client());
        // Warm-up: prefetch the merged region's "basic information"
        // (Section III.D-4) — the root record plus every
        // special-permission path — in one batched read so the first
        // accesses after the merge do not each pay a remote miss.
        let mut paths: Vec<&str> = vec![handle.root.as_str()];
        paths.extend(handle.perms.special.iter().map(|(p, _)| p.as_str()));
        let _ = self.batched_get_on(&cache, &paths);
        self.merged.write().push(Merged { handle, cache });
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn profile(&self) -> Arc<simnet::LatencyProfile> {
        Arc::clone(self.core.cache_cluster.profile())
    }

    fn charge_overhead(&self) {
        charge(Station::ClientCpu, self.profile().pacon_client_overhead);
    }

    /// The queue envelope of one of this client's ops, stamped `ts` or now.
    fn envelope(&self, op: CommitOp, degraded: bool, ts: Option<u64>) -> QueueMsg {
        QueueMsg {
            id: self.core.op_identity(&op),
            op,
            client: self.id.0,
            epoch: self.core.board.current_epoch(),
            timestamp: ts.unwrap_or_else(|| self.core.now()),
            degraded,
        }
    }

    /// Full publish entry point: journal the op, then hand it to the node's
    /// outbox (`Outbox::publish`). Coalescing may settle the op entirely
    /// client-side (create×unlink annihilation, writeback collapse) —
    /// those ops complete without ever touching the queue.
    /// `snapshot` is journaled alongside an inline writeback (replay
    /// rebuilds file content from the log, not from the cache). `degraded`
    /// tags an op admitted against the backup view only: the commit worker
    /// applies create-if-absent semantics to it. `ts` carries a
    /// pre-allocated publish timestamp — unlinks stamp themselves *before*
    /// marking the removal pending, so the pending-removal table and the
    /// queue envelope agree on the op's identity.
    fn publish_at(
        &self,
        op: CommitOp,
        snapshot: Option<&[u8]>,
        degraded: bool,
        ts: Option<u64>,
    ) -> FsResult<()> {
        use crate::commit::publish::Buffered;
        let unlink_path = match &op {
            CommitOp::Unlink { path } => Some(path.clone()),
            _ => None,
        };
        // Count the op in flight, stamp it, journal it, then buffer.
        // Enqueued-before-stamp is the stamp rule's (`note_enqueued`);
        // enqueued-before-append is what makes truncation safe: `drained()`
        // under the WAL lock proves the log holds no unconfirmed op.
        self.core.note_enqueued();
        let msg = self.envelope(op, degraded, ts);
        let timestamp = msg.timestamp;
        let node = self.node.index();
        // Journal before the buffer sees the op: coalescing may settle it
        // client-side, but the log keeps the full history (a cancelled
        // create×unlink pair replays in order and nets to nothing).
        if let Err(e) = self.core.wal_append(node, &msg, snapshot) {
            self.core.note_completed();
            return Err(e);
        }
        // (An error is the shutdown race: journaled, still in flight.)
        match self.core.outbox(node).publish(&self.core, msg)? {
            Buffered::Queued => {}
            Buffered::Cancelled { absorbed } => {
                // The create (plus its trailing writebacks) and this
                // unlink annihilated in the buffer: the file never reaches
                // the DFS. Settle all of them as completed and mirror the
                // worker's post-unlink cleanup on the primary copy.
                for _ in 0..absorbed + 1 {
                    self.core.note_completed();
                }
                self.core.counters.add("coalesced_cancel", absorbed as u64 + 1);
                let path = unlink_path.expect("only unlinks cancel");
                // The unlink settled client-side: its pending-removal
                // mark retires here, not in a commit worker, and the
                // cancelled creation's staged bytes go with it.
                self.core.in_flight().cancel_create(&path, timestamp);
                // Best-effort: a record unreachable now died with the
                // shard its removal mark was just written to.
                // Versioned: a re-create landing after this read stays.
                if let Ok(Some((meta, version))) = self.cache.get(&path) {
                    if meta.removed {
                        let _ = self.cache.delete(&path, Some(version));
                    }
                }
                self.core.maybe_truncate_wal();
            }
            Buffered::Collapsed => {
                // Duplicate writeback absorbed by the buffered one, which
                // reads the current primary copy at commit time anyway.
                self.core.note_completed();
                self.core.counters.incr("coalesced_collapse");
                self.core.maybe_truncate_wal();
            }
        }
        Ok(())
    }

    /// Batch permission check — a local table match, never a traversal
    /// (Section III.C). Under the ablation flag it instead walks every
    /// in-region ancestor with a distributed-cache lookup, the way a
    /// traditional hierarchical check would.
    fn check_perm(&self, path: &str, cred: &Credentials, want: u8) -> FsResult<()> {
        if self.core.config.hierarchical_permission_check {
            let ancs: Vec<&str> = fspath::ancestors(path)
                .into_iter()
                .filter(|anc| self.core.contains(anc) && *anc != self.core.root)
                .collect();
            // Charged cache lookups for every in-region component — one
            // batched round per shard node rather than one per component;
            // the permission bits themselves still come from the region
            // table so the ablation changes cost, not semantics.
            if !ancs.is_empty() {
                let _ = self.batched_get(&ancs);
            }
            for anc in ancs {
                if !self.core.perms.check(anc, cred, ACCESS_X) {
                    return Err(FsError::PermissionDenied);
                }
            }
        }
        if self.core.perms.check(path, cred, want) {
            Ok(())
        } else {
            Err(FsError::PermissionDenied)
        }
    }

    /// Parent of an in-region path.
    fn parent_of<'p>(&self, path: &'p str) -> FsResult<&'p str> {
        fspath::parent(path).ok_or_else(|| FsError::InvalidPath(format!("no parent: {path}")))
    }

    /// Parent-existence check for creations (Section III.C). May fall
    /// through to the DFS when the parent exists there but is not cached.
    fn check_parent(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        if !self.core.config.parent_check {
            return Ok(());
        }
        let parent = self.parent_of(path)?;
        if parent == self.core.root || !self.core.contains(parent) {
            // The workspace root was created at launch; parents outside
            // the region belong to the DFS (and `path == region root`
            // creation is handled by launch itself).
            return Ok(());
        }
        if self.parent_memo.lock().as_deref() == Some(parent) {
            return Ok(());
        }
        let cached = match self.cache.get(parent) {
            Ok(c) => c,
            Err(CacheError::Unavailable) => {
                // Degraded: verify against the backup copy only.
                self.core.counters.incr("degraded_reads");
                let stat = self.dfs.stat(parent, cred)?;
                if stat.kind != FileKind::Dir {
                    return Err(FsError::NotADirectory);
                }
                *self.parent_memo.lock() = Some(parent.to_string());
                return Ok(());
            }
        };
        match cached {
            Some((meta, _)) if meta.removed => Err(FsError::NotFound),
            Some((meta, _)) if meta.kind != FileKind::Dir => Err(FsError::NotADirectory),
            Some(_) => {
                *self.parent_memo.lock() = Some(parent.to_string());
                Ok(())
            }
            None => {
                // Sync check on the DFS; cache the result on success.
                let stat = self.dfs.stat(parent, cred)?;
                if stat.kind != FileKind::Dir {
                    return Err(FsError::NotADirectory);
                }
                self.warm_cache(parent, &CachedMeta::from_stat(&stat));
                *self.parent_memo.lock() = Some(parent.to_string());
                Ok(())
            }
        }
    }

    /// Best-effort cache populate from a DFS-loaded record; counts the
    /// key as rewarmed while the region is recovering from an outage.
    fn warm_cache(&self, path: &str, meta: &CachedMeta) {
        if self.cache.put(path, meta).is_ok()
            && self.core.degraded.mode() == DegradedMode::Rewarming
        {
            self.core.counters.incr("rewarm_keys");
        }
    }

    /// Load an uncached in-region entry from the DFS into the cache
    /// (getattr-miss path, Section III.D-1).
    fn load_from_dfs(&self, path: &str, cred: &Credentials) -> FsResult<CachedMeta> {
        // An acknowledged unlink may still sit in the commit queue while
        // the backup copy keeps the file. Resurrecting the record from
        // that stale view would drop the pending removal's tombstone and
        // let a second unlink of the same incarnation through.
        if self.core.in_flight().unlink_pending(path) {
            return Err(FsError::NotFound);
        }
        let stat = self.dfs.stat(path, cred)?;
        let meta = CachedMeta::from_stat(&stat);
        self.warm_cache(path, &meta);
        Ok(meta)
    }

    /// Get the cached record, falling back to a sync DFS load. While
    /// degraded, reads are served straight from the backup copy.
    fn get_or_load(&self, path: &str, cred: &Credentials) -> FsResult<CachedMeta> {
        match self.cache.get(path) {
            Ok(Some((meta, _))) => Ok(meta),
            Ok(None) => self.load_from_dfs(path, cred),
            Err(CacheError::Unavailable) => {
                self.degraded_stat(path, cred).map(|stat| CachedMeta::from_stat(&stat))
            }
        }
    }

    /// Degraded read: the committed backup view — where an acknowledged
    /// unlink is not still queued (the backup would resurrect the file).
    fn degraded_stat(&self, path: &str, cred: &Credentials) -> FsResult<FileStat> {
        if self.core.in_flight().unlink_pending(path) {
            return Err(FsError::NotFound);
        }
        self.core.counters.incr("degraded_reads");
        self.dfs.stat(path, cred)
    }

    /// Batched cache fetch with read-path accounting: one cache round
    /// trip per shard node instead of one per path.
    fn batched_get_on(
        &self,
        cache: &MetaCache,
        paths: &[&str],
    ) -> Result<Vec<Option<(CachedMeta, u64)>>, CacheError> {
        if paths.is_empty() {
            return Ok(Vec::new());
        }
        let cluster = cache.kv().cluster();
        let mut nodes: Vec<NodeId> = Vec::new();
        for p in paths {
            // lint: allow(stale-owner, accounting only — the grouping feeds read_rtts_saved; the authoritative per-key routing happens inside multi_get under the cluster's route lock)
            let n = cluster.shard_node(p.as_bytes());
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        self.core.counters.incr("batched_reads");
        self.core.counters.add("batched_read_keys", paths.len() as u64);
        self.core.counters.add("read_rtts_saved", (paths.len() - nodes.len()) as u64);
        cache.multi_get(paths)
    }

    /// [`Self::batched_get_on`] against this client's own region cache.
    fn batched_get(&self, paths: &[&str]) -> Result<Vec<Option<(CachedMeta, u64)>>, CacheError> {
        self.batched_get_on(&self.cache, paths)
    }

    /// Take the own-write memo's record for `path`, if it may stand in for
    /// a read. Safety does not rest on the copy being fresh — the CAS it
    /// feeds carries its version and ring epoch, so a record that moved
    /// on, was evicted and reloaded, lost its shard or changed owner is
    /// rejected there. What a skipped read would silently bypass is
    /// checked here instead: the degraded guard (the memo is used only
    /// while the region is `Healthy`) and `purge_if_stale` (a path whose
    /// removal committed while its shard was dark must read as gone).
    fn take_memo(&self, path: &str) -> Option<Held> {
        let held = {
            let mut memo = self.write_memo.lock();
            if memo.path != path {
                return None;
            }
            memo.held.take()
        }?;
        let healthy = self.core.degraded.mode() == DegradedMode::Healthy;
        (healthy && !self.core.in_flight().is_stale(path)).then_some(held)
    }

    /// Fill the own-write memo with a record this client just stored.
    /// Only files are ever written or unlinked, so only they are kept.
    fn remember(&self, path: &str, held: Held) {
        if held.meta.kind != FileKind::File {
            return;
        }
        let mut memo = self.write_memo.lock();
        if memo.path != path {
            memo.path.clear();
            memo.path.push_str(path);
        }
        memo.held = Some(held);
    }

    /// Read-modify-write of `path`'s record for write and unlink: one
    /// [`MetaCache::update`], from `start` if the caller holds the record.
    /// An uncached entry is pulled in from the DFS (mirroring the
    /// getattr-miss path) and the same update runs again; `None` after
    /// that means the entry is gone.
    fn update_cached(
        &self,
        path: &str,
        cred: &Credentials,
        start: Option<Held>,
        mut f: impl FnMut(&mut CachedMeta) -> FsResult<()>,
    ) -> Result<FsResult<Option<Held>>, CacheError> {
        match self.cache.update(path, start, &mut f)? {
            Ok(None) => {}
            settled => return Ok(settled),
        }
        if let Err(e) = self.load_from_dfs(path, cred) {
            return Ok(Err(e));
        }
        self.cache.update(path, None, &mut f)
    }

    fn create_kind(
        &self,
        path: &str,
        cred: &Credentials,
        mode: u16,
        kind: FileKind,
    ) -> FsResult<()> {
        self.charge_overhead();
        self.check_perm(self.parent_of(path)?, cred, ACCESS_W | ACCESS_X)?;
        self.check_parent(path, cred)?;
        let perm = Perm::new(mode, cred.uid, cred.gid);
        let fresh = match kind {
            FileKind::Dir => CachedMeta::new_dir(perm, self.core.now()),
            FileKind::File => CachedMeta::new_file(perm, self.core.now()),
        };
        // Set when duplicate detection could not consult the primary copy:
        // the published op carries the flag so `AlreadyExists` at commit
        // time settles as idempotent success instead of a retriable
        // conflict (it may duplicate an acknowledged-but-uncommitted
        // creation this admission check cannot see).
        let mut degraded = false;
        // Read before the store, like `update` reads it before its get:
        // a membership change in between then fences the memo's CAS.
        let epoch = self.core.cache_cluster.ring_epoch();
        match self.cache.add_new(path, &fresh) {
            Ok(Ok(version)) => self.remember(path, Held { meta: fresh, version, epoch }),
            Ok(Err(FsError::AlreadyExists)) => {
                // A record exists; re-creation is legal only over a
                // marked-removed one (Section III.D-1).
                match self.cache.update(path, None, |m| {
                    if m.removed {
                        *m = fresh.clone();
                        Ok(())
                    } else {
                        Err(FsError::AlreadyExists)
                    }
                }) {
                    Ok(Ok(Some(held))) => self.remember(path, held),
                    Ok(Ok(None)) => {
                        // Record vanished between add and update: retry
                        // once as a fresh add.
                        match self.cache.add_new(path, &fresh) {
                            Ok(r) => {
                                r?;
                            }
                            Err(CacheError::Unavailable) => {
                                self.core.counters.incr("degraded_writes");
                                degraded = true;
                            }
                        }
                    }
                    Ok(Err(e)) => return Err(e),
                    Err(CacheError::Unavailable) => {
                        self.core.counters.incr("degraded_writes");
                        degraded = true;
                    }
                }
            }
            Ok(Err(e)) => return Err(e),
            Err(CacheError::Unavailable) => {
                // Degraded creation: the primary copy is unreachable, so
                // duplicate detection falls back to the committed backup
                // view (creations still queued are invisible to it — the
                // documented consistency gap of a degraded window). The
                // op itself still queues through the commit path below.
                self.core.counters.incr("degraded_writes");
                degraded = true;
                match self.dfs.stat(path, cred) {
                    Ok(_) => return Err(FsError::AlreadyExists),
                    Err(FsError::NotFound) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        let op = match kind {
            FileKind::Dir => CommitOp::Mkdir { path: path.to_string(), mode },
            FileKind::File => CommitOp::Create { path: path.to_string(), mode },
        };
        self.publish_at(op, None, degraded, None)?;
        self.core.counters.incr(match kind {
            FileKind::Dir => "mkdir",
            FileKind::File => "create",
        });
        eviction::maybe_evict(&self.core, &self.cache);
        Ok(())
    }

    /// Recursively remove a committed subtree on the DFS (rmdir support;
    /// runs inside a barrier, so the DFS view is complete).
    fn remove_subtree_on_dfs(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        let stat = match self.dfs.stat(path, cred) {
            Ok(s) => s,
            Err(FsError::NotFound) => return Ok(()),
            Err(e) => return Err(e),
        };
        if stat.kind == FileKind::File {
            // lint: allow(commit-path, runs inside a barrier: subtree fully committed, direct backup-copy cleanup)
            return self.dfs.unlink(path, cred);
        }
        for name in self.dfs.readdir(path, cred)? {
            self.remove_subtree_on_dfs(&fspath::join(path, name.as_str()), cred)?;
        }
        // lint: allow(commit-path, runs inside a barrier: subtree fully committed, direct backup-copy cleanup)
        self.dfs.rmdir(path, cred)
    }

    /// Charge a durable staging write (the paper's direct-I/O cache files:
    /// data for files that do not yet exist on the DFS) of `charged_len`
    /// *new* bytes — incremental appends do not re-pay for the whole
    /// buffer.
    fn charge_staging(&self, path: &str, charged_len: usize) {
        let p = self.profile();
        charge(Station::Network, p.net_rtt_storage);
        let n_data = self.dfs.cluster().config().n_data as u64;
        let mut h = 0xcbf29ce484222325u64;
        for b in path.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        let mib = (charged_len as u64).div_ceil(1 << 20).max(1);
        charge(Station::DataServer((h % n_data) as u32), mib * p.data_write_per_mib);
    }

    /// Would the record still be a small file? Its whole cache entry —
    /// key (path), encoded header, inline data — counts against the
    /// small-file threshold.
    fn inline_fits(&self, path: &str, inline_len: usize) -> bool {
        CachedMeta::HEADER_LEN + path.len() + inline_len <= self.core.config.small_file_threshold
    }

    /// Unlink while the primary copy is unreachable: verify against the
    /// committed backup view, then queue the removal through the normal
    /// commit path. Removals of entries whose creation is still queued
    /// fail `NotFound` here — the degraded window trades namespace
    /// read-your-writes for availability.
    fn degraded_unlink(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.core.counters.incr("degraded_writes");
        // The backup still holds a file whose removal is already queued:
        // from the client's point of view that file is gone.
        if self.core.in_flight().unlink_pending(path) {
            return Err(FsError::NotFound);
        }
        let stat = self.dfs.stat(path, cred)?;
        if stat.kind == FileKind::Dir {
            return Err(FsError::IsADirectory);
        }
        self.publish_unlink(path, true)
    }

    /// Note the acknowledged unlink in the per-path table, then publish it.
    fn publish_unlink(&self, path: &str, degraded: bool) -> FsResult<()> {
        let ts = self.core.now();
        self.core.in_flight().ack_unlink(path, ts, degraded);
        let op = CommitOp::Unlink { path: path.to_string() };
        if let Err(e) = self.publish_at(op, None, degraded, Some(ts)) {
            self.core.in_flight().retract_unlink(path, ts, degraded);
            return Err(e);
        }
        self.core.counters.incr("unlink");
        Ok(())
    }

    /// Write while the primary copy is unreachable. Committed files take
    /// the data straight to the backup copy; a file not on the DFS fails
    /// `NotFound`, as in `degraded_unlink` — a queued creation looks like
    /// a path that never existed, whose staged bytes would flush into the
    /// next file created under its name.
    fn degraded_write(
        &self,
        path: &str,
        cred: &Credentials,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        self.core.counters.incr("degraded_writes");
        if self.core.in_flight().unlink_pending(path) {
            // The backup copy still holds the file, but its removal is
            // already acknowledged — writing there would land bytes on a
            // doomed incarnation.
            return Err(FsError::NotFound);
        }
        let end = offset as usize + data.len();
        // lint: allow(commit-path, degraded mode: primary copy unreachable, data goes to the backup copy directly)
        self.dfs.write(path, cred, offset, data)?;
        // If the path's own shard is still up (the window was opened by a
        // different node's crash), keep the primary copy coherent too: a
        // writeback already queued for this path reads the cache at commit
        // time, and a stale inline record would clobber the bytes just
        // written. One bare attempt: the retry envelope of a degraded
        // region would fail fast, and a shard that is down has no record
        // left to keep coherent.
        let _ = MetaCache::new(self.cache.kv().clone()).update::<()>(path, None, |m| {
            if !m.large && !m.removed {
                if m.inline.len() < end {
                    m.inline.resize(end, 0);
                }
                m.inline[offset as usize..end].copy_from_slice(data);
            }
            m.size = m.size.max(end as u64);
            Ok(())
        });
        Ok(data.len())
    }
}

impl FileSystem for PaconClient {
    fn mkdir(&self, path: &str, cred: &Credentials, mode: u16) -> FsResult<()> {
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.create_kind(path, cred, mode, FileKind::Dir)
            }
            Route::Merged(_) => Err(FsError::PermissionDenied), // read-only
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.mkdir(path, cred, mode),
        }
    }

    fn create(&self, path: &str, cred: &Credentials, mode: u16) -> FsResult<()> {
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.create_kind(path, cred, mode, FileKind::File)
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.create(path, cred, mode),
        }
    }

    fn stat(&self, path: &str, cred: &Credentials) -> FsResult<FileStat> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                if path != self.core.root {
                    self.check_perm(self.parent_of(path)?, cred, ACCESS_X)?;
                }
                match self.cache.get(path) {
                    Ok(Some((meta, _))) if meta.removed => Err(FsError::NotFound),
                    Ok(Some((meta, _))) => Ok(meta.to_stat()),
                    Ok(None) => Ok(self.load_from_dfs(path, cred)?.to_stat()),
                    Err(CacheError::Unavailable) => self.degraded_stat(path, cred),
                }
            }
            Route::Merged(i) => {
                let m = &merged[i];
                if path != m.handle.root {
                    let parent = fspath::parent(path)
                        .ok_or_else(|| FsError::InvalidPath(path.to_string()))?;
                    if !m.handle.perms.check(parent, cred, ACCESS_X) {
                        return Err(FsError::PermissionDenied);
                    }
                }
                match m.cache.get(path) {
                    Ok(Some((meta, _))) if meta.removed => Err(FsError::NotFound),
                    Ok(Some((meta, _))) => Ok(meta.to_stat()),
                    // Read-only: a miss — or a foreign shard that is down
                    // — falls back to the DFS without populating the
                    // foreign cache.
                    Ok(None) | Err(CacheError::Unavailable) => self.dfs.stat(path, cred),
                }
            }
            Route::Redirect => self.dfs.stat(path, cred),
        }
    }

    fn stat_many(&self, paths: &[String], cred: &Credentials) -> Vec<FsResult<FileStat>> {
        self.charge_overhead();
        let mut own: Vec<usize> = Vec::new();
        let mut other: Vec<usize> = Vec::new();
        {
            let merged = self.merged.read();
            for (i, p) in paths.iter().enumerate() {
                match route(&self.core, &merged, p) {
                    Route::Own => own.push(i),
                    // Merged and redirected paths keep their per-path
                    // handling; batching targets the own-region cache.
                    Route::Merged(_) | Route::Redirect => other.push(i),
                }
            }
        }
        let mut out: Vec<FsResult<FileStat>> =
            (0..paths.len()).map(|_| Err(FsError::NotFound)).collect();
        for i in other {
            out[i] = self.stat(&paths[i], cred);
        }
        // Permission checks are local table matches; do them up front,
        // then fetch every remaining record in one batched call.
        let mut lookup: Vec<usize> = Vec::new();
        for &i in &own {
            let p = paths[i].as_str();
            let allowed = if p == self.core.root {
                Ok(())
            } else {
                self.parent_of(p).and_then(|par| self.check_perm(par, cred, ACCESS_X))
            };
            match allowed {
                Ok(()) => lookup.push(i),
                Err(e) => out[i] = Err(e),
            }
        }
        let keys: Vec<&str> = lookup.iter().map(|&i| paths[i].as_str()).collect();
        let metas = match self.batched_get(&keys) {
            Ok(m) => m,
            Err(CacheError::Unavailable) => {
                // Degraded: the whole batch falls through to per-path
                // degraded reads, exactly as `stat` would make them.
                for &i in &lookup {
                    out[i] = self.degraded_stat(&paths[i], cred);
                }
                return out;
            }
        };
        // A path named more than once loads once; every copy gets its result.
        let mut loaded: HashMap<&str, FsResult<FileStat>> = HashMap::new();
        for (&i, meta) in lookup.iter().zip(metas) {
            out[i] = match meta {
                Some((m, _)) if m.removed => Err(FsError::NotFound),
                Some((m, _)) => Ok(m.to_stat()),
                // Miss: sync DFS load that also populates the cache
                // (getattr-miss path) — an unavoidable per-path trip.
                None => loaded
                    .entry(paths[i].as_str())
                    .or_insert_with(|| self.load_from_dfs(&paths[i], cred).map(|m| m.to_stat()))
                    .clone(),
            };
        }
        out
    }

    fn unlink(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(self.parent_of(path)?, cred, ACCESS_W | ACCESS_X)?;
                // The record this describes is going away: spend the memo
                // without using it. An unlink rarely follows its file's
                // last write closely — the commit worker has usually
                // marked the record committed by then, and a copy gone
                // stale costs a wasted CAS on top of the read.
                drop(self.take_memo(path));
                let updated = match self.update_cached(path, cred, None, |m| {
                    if m.removed {
                        return Err(FsError::NotFound);
                    }
                    if m.kind == FileKind::Dir {
                        return Err(FsError::IsADirectory);
                    }
                    m.removed = true;
                    Ok(())
                }) {
                    Ok(r) => r?,
                    Err(CacheError::Unavailable) => {
                        return self.degraded_unlink(path, cred);
                    }
                };
                if updated.is_none() {
                    return Err(FsError::NotFound);
                }
                self.publish_unlink(path, false)
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.unlink(path, cred),
        }
    }

    fn rmdir(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                if path == self.core.root {
                    return Err(FsError::InvalidArgument(
                        "cannot remove the consistent region's workspace root".into(),
                    ));
                }
                self.check_perm(self.parent_of(path)?, cred, ACCESS_W | ACCESS_X)?;
                // Existence/kind check (cache first, DFS on miss).
                let meta = self.get_or_load(path, cred)?;
                if meta.removed {
                    return Err(FsError::NotFound);
                }
                if meta.kind != FileKind::Dir {
                    return Err(FsError::NotADirectory);
                }
                // Barrier commit (sync, Section III.E-2).
                let guard = self.core.barrier(self.id.0)?;
                {
                    let mut memo = self.parent_memo.lock();
                    if memo.as_deref().map(|m| fspath::is_same_or_ancestor(path, m)).unwrap_or(false)
                    {
                        *memo = None;
                    }
                }
                // Clean the primary copy: the target and everything under
                // it (recursive removal, Section III.D-1).
                let keys = self.core.cache_cluster.keys_with_prefix(path.as_bytes());
                for key in keys {
                    if let Ok(k) = std::str::from_utf8(&key) {
                        if fspath::is_same_or_ancestor(path, k) {
                            // Best-effort: a crashed shard's records are
                            // wiped anyway; the removed-directory entry
                            // guards any survivors from stale resurrection.
                            let _ = self.cache.delete(k, None);
                        }
                    }
                }
                self.core.in_flight().remove_dir(path, guard.epoch(), self.core.drained());
                // Backup copy: everything earlier is committed, so the
                // DFS subtree is complete; remove it synchronously.
                let res = self.remove_subtree_on_dfs(path, cred);
                guard.complete();
                self.core.counters.incr("rmdir");
                res
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.rmdir(path, cred),
        }
    }

    fn readdir(&self, path: &str, cred: &Credentials) -> FsResult<Vec<String>> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(path, cred, ACCESS_R)?;
                // Barrier, then list on the DFS — avoids a full cache
                // table scan (Section III.D-1).
                let guard = self.core.barrier(self.id.0)?;
                let res = self.dfs.readdir(path, cred);
                guard.complete();
                self.core.counters.incr("readdir");
                res
            }
            Route::Merged(i) => {
                let m = &merged[i];
                if !m.handle.perms.check(path, cred, ACCESS_R) {
                    return Err(FsError::PermissionDenied);
                }
                // Read-only merged access cannot trigger a foreign
                // barrier; serve the committed view from the DFS.
                self.dfs.readdir(path, cred)
            }
            Route::Redirect => self.dfs.readdir(path, cred),
        }
    }

    fn readdir_plus(
        &self,
        path: &str,
        cred: &Credentials,
    ) -> FsResult<Vec<(String, FileStat)>> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(path, cred, ACCESS_R)?;
                // Barrier, then list on the DFS, exactly as `readdir`...
                let guard = self.core.barrier(self.id.0)?;
                let names = self.dfs.readdir(path, cred);
                guard.complete();
                self.core.counters.incr("readdir");
                let names = names?;
                // ...then fetch all child metadata in one batched call
                // instead of a stat round trip per entry.
                let children: Vec<String> =
                    names.iter().map(|n| fspath::join(path, n.as_str())).collect();
                let keys: Vec<&str> = children.iter().map(|p| p.as_str()).collect();
                let metas = match self.batched_get(&keys) {
                    Ok(m) => m,
                    Err(CacheError::Unavailable) => {
                        // Degraded: treat every child as a miss; the
                        // per-entry fallback below stats the backup copy.
                        self.core.counters.add("degraded_reads", keys.len() as u64);
                        vec![None; keys.len()]
                    }
                };
                let mut out = Vec::with_capacity(names.len());
                for ((name, child), meta) in names.into_iter().zip(&children).zip(metas) {
                    match meta {
                        Some((m, _)) if m.removed => {}
                        Some((m, _)) => out.push((name, m.to_stat())),
                        // Miss: the DFS load warms the cache for
                        // subsequent readers.
                        None => match self.load_from_dfs(child, cred) {
                            Ok(m) => out.push((name, m.to_stat())),
                            Err(FsError::NotFound) => {}
                            Err(e) => return Err(e),
                        },
                    }
                }
                Ok(out)
            }
            Route::Merged(i) => {
                let m = &merged[i];
                if !m.handle.perms.check(path, cred, ACCESS_R) {
                    return Err(FsError::PermissionDenied);
                }
                let names = self.dfs.readdir(path, cred)?;
                let children: Vec<String> =
                    names.iter().map(|n| fspath::join(path, n.as_str())).collect();
                let keys: Vec<&str> = children.iter().map(|p| p.as_str()).collect();
                // A faulted foreign cache degrades to all-misses: every
                // entry below falls back to the DFS.
                let metas = self
                    .batched_get_on(&m.cache, &keys)
                    .unwrap_or_else(|_| vec![None; keys.len()]);
                let mut out = Vec::with_capacity(names.len());
                for ((name, child), meta) in names.into_iter().zip(&children).zip(metas) {
                    match meta {
                        Some((mm, _)) if mm.removed => {}
                        Some((mm, _)) => out.push((name, mm.to_stat())),
                        // Read-only: DFS fallback without populating the
                        // foreign cache.
                        None => match self.dfs.stat(child, cred) {
                            Ok(st) => out.push((name, st)),
                            Err(FsError::NotFound) => {}
                            Err(e) => return Err(e),
                        },
                    }
                }
                Ok(out)
            }
            Route::Redirect => self.dfs.readdir_plus(path, cred),
        }
    }

    fn write(&self, path: &str, cred: &Credentials, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(path, cred, ACCESS_W)?;
                enum Outcome {
                    Inline,
                    WentLarge(Vec<u8>),
                    AlreadyLarge { committed: bool },
                }
                let mut outcome = Outcome::Inline;
                let end = offset as usize + data.len();
                let memo = self.take_memo(path);
                let updated = match self.update_cached(path, cred, memo, |m| {
                    if m.removed {
                        return Err(FsError::NotFound);
                    }
                    if m.kind == FileKind::Dir {
                        return Err(FsError::IsADirectory);
                    }
                    if m.large {
                        outcome = Outcome::AlreadyLarge { committed: m.committed };
                        return Ok(());
                    }
                    let new_len = end.max(m.inline.len());
                    if self.inline_fits(path, new_len) {
                        if m.inline.len() < end {
                            m.inline.resize(end, 0);
                        }
                        m.inline[offset as usize..end].copy_from_slice(data);
                        m.size = new_len as u64;
                        m.mtime = self.core.now();
                        outcome = Outcome::Inline;
                    } else {
                        // Transition to a large file: data leaves the
                        // cache for the DFS (Section III.D-2).
                        let mut full = std::mem::take(&mut m.inline);
                        if full.len() < end {
                            full.resize(end, 0);
                        }
                        full[offset as usize..end].copy_from_slice(data);
                        m.large = true;
                        m.size = full.len() as u64;
                        m.mtime = self.core.now();
                        outcome = Outcome::WentLarge(full);
                    }
                    Ok(())
                }) {
                    Ok(r) => r?,
                    Err(CacheError::Unavailable) => {
                        return self.degraded_write(path, cred, offset, data);
                    }
                };
                let held = updated.ok_or(FsError::NotFound)?;
                let held = match outcome {
                    Outcome::Inline => {
                        // Coalesce: the worker reads the freshest primary
                        // copy at commit time, so one queued writeback
                        // covers all earlier writes to this file.
                        if self.core.in_flight().queue_writeback(path) {
                            let op = CommitOp::WriteInline { path: path.to_string() };
                            self.publish_at(op, Some(&held.meta.inline), false, None)?;
                        } else {
                            self.core.counters.incr("writeback_coalesced");
                            if self.core.durable() {
                                // The queued writeback absorbs this write
                                // at commit time, but the log still needs
                                // the bytes: replay rebuilds content from
                                // snapshots, and truncation is blocked
                                // while the absorbing writeback is in
                                // flight, so no extra enqueue accounting.
                                let op = CommitOp::WriteInline { path: path.to_string() };
                                let msg = self.envelope(op, false, None);
                                self.core.wal_append(
                                    self.node.index(),
                                    &msg,
                                    Some(&held.meta.inline),
                                )?;
                            }
                        }
                        Some(held)
                    }
                    Outcome::WentLarge(full) => {
                        if held.meta.committed {
                            // lint: allow(commit-path, data plane: committed file contents write back directly, only metadata is queued)
                            self.dfs.write(path, cred, 0, &full)?;
                        } else {
                            self.charge_staging(path, full.len());
                            self.core.in_flight().stage(path, full);
                        }
                        Some(held)
                    }
                    // The size updates below start from the record the
                    // first update just read: one CAS, no second read.
                    Outcome::AlreadyLarge { committed } => {
                        let resized = if committed {
                            // lint: allow(commit-path, data plane: committed file contents write back directly, only metadata is queued)
                            self.dfs.write(path, cred, offset, data)?;
                            // Best-effort: a wiped record reloads its
                            // size from the DFS copy just written.
                            self.cache.update::<()>(path, Some(held), |m| {
                                m.size = m.size.max(end as u64);
                                m.mtime = self.core.now();
                                Ok(())
                            })
                        } else {
                            self.core.in_flight().stage_at(path, offset as usize, data);
                            self.charge_staging(path, data.len());
                            // Best-effort: the bytes are staged durably.
                            self.cache.update::<()>(path, Some(held), |m| {
                                m.size = m.size.max(end as u64);
                                Ok(())
                            })
                        };
                        match resized {
                            Ok(Ok(held)) => held,
                            _ => None,
                        }
                    }
                };
                if let Some(held) = held {
                    self.remember(path, held);
                }
                self.core.counters.incr("write");
                eviction::maybe_evict(&self.core, &self.cache);
                Ok(data.len())
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, data plane: committed file contents write back directly, only metadata is queued)
            Route::Redirect => self.dfs.write(path, cred, offset, data),
        }
    }

    fn read(&self, path: &str, cred: &Credentials, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(path, cred, ACCESS_R)?;
                let meta = self.get_or_load(path, cred)?;
                if meta.removed {
                    return Err(FsError::NotFound);
                }
                if meta.kind == FileKind::Dir {
                    return Err(FsError::IsADirectory);
                }
                if !meta.large {
                    let start = (offset as usize).min(meta.inline.len());
                    let end = (start + len).min(meta.inline.len());
                    return Ok(meta.inline[start..end].to_vec());
                }
                if meta.committed {
                    self.dfs.read(path, cred, offset, len)
                } else {
                    Ok(self.core.in_flight().read_staged(path, offset as usize, len))
                }
            }
            Route::Merged(i) => {
                let m = &merged[i];
                if !m.handle.perms.check(path, cred, ACCESS_R) {
                    return Err(FsError::PermissionDenied);
                }
                match m.cache.get(path) {
                    Ok(Some((meta, _))) if !meta.large && !meta.removed => {
                        let start = (offset as usize).min(meta.inline.len());
                        let end = (start + len).min(meta.inline.len());
                        Ok(meta.inline[start..end].to_vec())
                    }
                    _ => self.dfs.read(path, cred, offset, len),
                }
            }
            Route::Redirect => self.dfs.read(path, cred, offset, len),
        }
    }

    fn fsync(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                let meta = self.get_or_load(path, cred)?;
                if meta.removed {
                    return Err(FsError::NotFound);
                }
                if meta.kind == FileKind::Dir {
                    return Ok(());
                }
                match (meta.large, meta.committed) {
                    // Small file already on the DFS: write back inline
                    // data synchronously.
                    (false, true) => {
                        // lint: allow(commit-path, fsync writes back committed inline data directly; metadata already queued)
                        self.dfs.write(path, cred, 0, &meta.inline)?;
                        self.dfs.fsync(path, cred)
                    }
                    // Small file not yet created on the DFS: direct-I/O
                    // staging ("cache files", Section III.D-2).
                    (false, false) => {
                        self.charge_staging(path, meta.inline.len());
                        self.core.in_flight().stage(path, meta.inline);
                        Ok(())
                    }
                    (true, true) => self.dfs.fsync(path, cred),
                    // Large & uncommitted: every write already staged
                    // durably.
                    (true, false) => Ok(()),
                }
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            Route::Redirect => self.dfs.fsync(path, cred),
        }
    }
}

/// Route for an incoming path.
enum Route {
    /// Inside this client's own region.
    Own,
    /// Inside merged region `idx` (read-only).
    Merged(usize),
    /// Outside every known region: redirect to the DFS.
    Redirect,
}

/// Route a path against the own region and the merged handles without
/// cloning anything.
fn route(core: &RegionCore, merged: &[Merged], path: &str) -> Route {
    if core.contains(path) {
        return Route::Own;
    }
    for (i, m) in merged.iter().enumerate() {
        if fspath::is_same_or_ancestor(&m.handle.root, path) {
            return Route::Merged(i);
        }
    }
    Route::Redirect
}
