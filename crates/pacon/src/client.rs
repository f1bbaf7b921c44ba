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

use std::sync::Arc;

use dfs::DfsClient;
use fsapi::types::{ACCESS_R, ACCESS_W, ACCESS_X};
use fsapi::{path as fspath, Credentials, FileKind, FileStat, FsError, FsResult, Perm};
use fsapi::FileSystem;
use simnet::{charge, ClientId, FastMap, NodeId, Station};
use syncguard::{level, Mutex, RwLock};

use crate::cache::{CacheError, Held, MetaCache};
use crate::commit::op::{CommitOp, QueueMsg};
use crate::degraded::Mode as DegradedMode;
use crate::eviction;
use crate::inflight::Staging;
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
        let _ = self.fetch(&cache, &paths);
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
                let _ = self.fetch(&self.cache, &ancs);
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
        let meta = self.get_or_load(parent, cred)?;
        if meta.kind != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        *self.parent_memo.lock() = Some(parent.to_string());
        Ok(())
    }

    /// Load an uncached in-region entry from the DFS into the cache
    /// (getattr-miss path, Section III.D-1). The populate is best-effort;
    /// it counts the key as rewarmed while the region recovers from an
    /// outage.
    fn load_from_dfs(&self, path: &str, cred: &Credentials) -> FsResult<CachedMeta> {
        // An acknowledged unlink may still sit in the commit queue while
        // the backup copy keeps the file. Resurrecting the record from
        // that stale view would drop the pending removal's tombstone and
        // let a second unlink of the same incarnation through.
        if self.core.in_flight().unlink_pending(path) {
            return Err(FsError::NotFound);
        }
        let meta = CachedMeta::from_stat(&self.dfs.stat(path, cred)?);
        if self.cache.put(path, &meta).is_ok()
            && self.core.degraded.mode() == DegradedMode::Rewarming
        {
            self.core.counters.incr("rewarm_keys");
        }
        Ok(meta)
    }

    /// [`Self::lookup`] of one own-region path, for the ops that need
    /// the record: a removed one reads as gone.
    fn get_or_load(&self, path: &str, cred: &Credentials) -> FsResult<CachedMeta> {
        let mut found = Err(FsError::NotFound);
        self.lookup(None, &[path], cred, true, |_, f| found = f);
        found.and_then(Found::meta)
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

    /// One batched read of `cache` with the read-path accounting: one
    /// round trip per shard node instead of one per path.
    fn fetch(
        &self,
        cache: &MetaCache,
        paths: &[&str],
    ) -> Result<Vec<Option<(CachedMeta, u64)>>, CacheError> {
        self.core.counters.incr("batched_reads");
        self.core.counters.add("batched_read_keys", paths.len() as u64);
        let (hits, requests) = cache.multi_get(paths)?;
        self.core.counters.add("read_rtts_saved", paths.len().saturating_sub(requests) as u64);
        Ok(hits)
    }

    /// The getattr rule (Section III.D-1) for `paths` of one region, each
    /// answered by input index: the cached record; on a miss the DFS copy,
    /// loaded into the own cache, or read past a merged region's `foreign`
    /// cache, which is never written (Section III.D-4); while that cache is
    /// unavailable, the backup copy. `solo` (a single-path op) picks only
    /// the request form, the single-key `gets`; otherwise one batched read,
    /// in which a path named more than once loads once.
    fn lookup(
        &self,
        foreign: Option<&MetaCache>,
        paths: &[&str],
        cred: &Credentials,
        solo: bool,
        mut answer: impl FnMut(usize, FsResult<Found>),
    ) {
        if paths.is_empty() {
            return;
        }
        let cache = foreign.unwrap_or(&self.cache);
        let load = |path| match foreign {
            Some(_) => self.dfs.stat(path, cred).map(Found::Backup),
            None => self.load_from_dfs(path, cred).map(Found::Meta),
        };
        let fetched = if solo {
            cache.get(paths[0]).map(|hit| {
                answer(0, hit.map_or_else(|| load(paths[0]), |(meta, _)| Ok(Found::Meta(meta))))
            })
        } else {
            self.fetch(cache, paths).map(|hits| {
                let mut loaded: FastMap<&str, FsResult<Found>> = FastMap::default();
                for (i, hit) in hits.into_iter().enumerate() {
                    let found = match hit {
                        Some((meta, _)) => Ok(Found::Meta(meta)),
                        None => loaded.entry(paths[i]).or_insert_with(|| load(paths[i])).clone(),
                    };
                    answer(i, found);
                }
            })
        };
        if fetched.is_err() {
            for (i, &path) in paths.iter().enumerate() {
                let backup = match foreign {
                    Some(_) => self.dfs.stat(path, cred),
                    None => self.degraded_stat(path, cred),
                };
                answer(i, backup.map(Found::Backup));
            }
        }
    }

    /// Where getattr reads `path`, its permission checked: `Ok(None)` in
    /// the own region, `Ok(Some(r))` in merged region `r`; `Err` holds
    /// the answer itself (a denial, or a redirected path's DFS stat).
    fn stat_route(
        &self,
        path: &str,
        cred: &Credentials,
    ) -> Result<Option<usize>, FsResult<FileStat>> {
        match self.route(path) {
            Route::Own => {
                if path == self.core.root {
                    return Ok(None);
                }
                let parent = self.parent_of(path).map_err(Err)?;
                self.check_perm(parent, cred, ACCESS_X).map(|()| None).map_err(Err)
            }
            Route::Merged(r) => {
                let merged = self.merged.read();
                let m = &merged[r].handle;
                let searchable = |p| m.perms.check(p, cred, ACCESS_X);
                if path == m.root || fspath::parent(path).is_some_and(searchable) {
                    return Ok(Some(r));
                }
                Err(Err(FsError::PermissionDenied))
            }
            Route::Redirect => Err(self.dfs.stat(path, cred)),
        }
    }

    /// Where `path` lives: the own region, a merged one, or neither. The
    /// view lock is held while routing only, never across the op.
    fn route(&self, path: &str) -> Route {
        if self.core.contains(path) {
            return Route::Own;
        }
        let merged = self.merged.read();
        match merged.iter().position(|m| fspath::is_same_or_ancestor(&m.handle.root, path)) {
            Some(i) => Route::Merged(i),
            None => Route::Redirect,
        }
    }

    /// Merged region `i`'s cache, if `cred` may read `path` there.
    fn readable(&self, i: usize, path: &str, cred: &Credentials) -> FsResult<MetaCache> {
        let merged = self.merged.read();
        if !merged[i].handle.perms.check(path, cred, ACCESS_R) {
            return Err(FsError::PermissionDenied);
        }
        Ok(merged[i].cache.clone())
    }

    /// Merged region `r`'s cache, or `None` for the own region.
    fn foreign(&self, r: Option<usize>) -> Option<MetaCache> {
        r.map(|r| self.merged.read()[r].cache.clone())
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

    /// Bytes of a file already on the DFS, written to its copy there.
    fn write_backup(&self, path: &str, cred: &Credentials, off: u64, data: &[u8]) -> FsResult<()> {
        // lint: allow(commit-path, data plane: committed file contents write back directly, only metadata is queued)
        self.dfs.write(path, cred, off, data).map(drop)
    }

    /// Make sure bytes just staged for a file whose creation had not
    /// committed when the record was read are not stranded (DESIGN §10.4):
    /// the creation may have gone by them. `committed_since` reads the
    /// record again — only asked on a [`Staging::Recheck`].
    fn settle_staging(
        &self,
        path: &str,
        cred: &Credentials,
        offset: u64,
        data: &[u8],
        staging: Staging,
        committed_since: impl FnOnce() -> bool,
    ) -> FsResult<()> {
        let to_dfs = match staging {
            Staging::Held => false,
            Staging::AlsoToDfs => true,
            Staging::Recheck => {
                let committed = committed_since();
                if committed {
                    self.core.in_flight().unstage(path);
                }
                committed
            }
        };
        if to_dfs {
            self.write_backup(path, cred, offset, data)?;
        }
        Ok(())
    }

    fn reads_committed(&self, path: &str) -> bool {
        matches!(self.cache.get(path), Ok(Some((meta, _))) if meta.committed)
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
        match self.route(path) {
            Route::Own => self.create_kind(path, cred, mode, FileKind::Dir),
            Route::Merged(_) => Err(FsError::PermissionDenied), // read-only
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.mkdir(path, cred, mode),
        }
    }

    fn create(&self, path: &str, cred: &Credentials, mode: u16) -> FsResult<()> {
        match self.route(path) {
            Route::Own => self.create_kind(path, cred, mode, FileKind::File),
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.create(path, cred, mode),
        }
    }

    fn stat(&self, path: &str, cred: &Credentials) -> FsResult<FileStat> {
        self.charge_overhead();
        let r = match self.stat_route(path, cred) {
            Ok(r) => r,
            Err(answer) => return answer,
        };
        let mut stat = Err(FsError::NotFound);
        self.lookup(self.foreign(r).as_ref(), &[path], cred, true, |_, f| {
            stat = f.and_then(Found::stat)
        });
        stat
    }

    fn stat_many(&self, paths: &[String], cred: &Credentials) -> Vec<FsResult<FileStat>> {
        self.charge_overhead();
        let mut out = Vec::with_capacity(paths.len());
        // Per region that reads some of the paths (`None`: the own one),
        // their indices: one lookup each.
        let mut reads: Vec<(Option<usize>, Vec<usize>)> = Vec::new();
        for (i, path) in paths.iter().enumerate() {
            out.push(Err(FsError::NotFound));
            match self.stat_route(path, cred) {
                Ok(r) => match reads.iter_mut().find(|(to, _)| *to == r) {
                    Some((_, idxs)) => idxs.push(i),
                    None => reads.push((r, vec![i])),
                },
                Err(answer) => out[i] = answer,
            }
        }
        for (r, idxs) in reads {
            let keys: Vec<&str> = idxs.iter().map(|&i| paths[i].as_str()).collect();
            self.lookup(self.foreign(r).as_ref(), &keys, cred, false, |j, f| {
                out[idxs[j]] = f.and_then(Found::stat)
            });
        }
        out
    }

    fn unlink(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.charge_overhead();
        match self.route(path) {
            Route::Own => {
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
        match self.route(path) {
            Route::Own => {
                if path == self.core.root {
                    return Err(FsError::InvalidArgument(
                        "cannot remove the consistent region's workspace root".into(),
                    ));
                }
                self.check_perm(self.parent_of(path)?, cred, ACCESS_W | ACCESS_X)?;
                // Existence/kind check (cache first, DFS on miss).
                let meta = self.get_or_load(path, cred)?;
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
        match self.route(path) {
            Route::Own => {
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
                self.readable(i, path, cred)?;
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
        let (names, foreign) = match self.route(path) {
            Route::Own => {
                self.check_perm(path, cred, ACCESS_R)?;
                // Barrier, then list on the DFS, exactly as `readdir`...
                let guard = self.core.barrier(self.id.0)?;
                let names = self.dfs.readdir(path, cred);
                guard.complete();
                self.core.counters.incr("readdir");
                (names?, None)
            }
            Route::Merged(i) => {
                let cache = self.readable(i, path, cred)?;
                (self.dfs.readdir(path, cred)?, Some(cache))
            }
            Route::Redirect => return self.dfs.readdir_plus(path, cred),
        };
        // ...then every child's record in one batched read; a removed or
        // vanished child drops out.
        let children: Vec<String> = names.iter().map(|n| fspath::join(path, n.as_str())).collect();
        let keys: Vec<&str> = children.iter().map(String::as_str).collect();
        let mut stats: Vec<FsResult<FileStat>> =
            (0..keys.len()).map(|_| Err(FsError::NotFound)).collect();
        self.lookup(foreign.as_ref(), &keys, cred, false, |i, f| {
            stats[i] = f.and_then(Found::stat)
        });
        let listed = names.into_iter().zip(stats).filter(|(_, st)| st != &Err(FsError::NotFound));
        listed.map(|(name, st)| st.map(|st| (name, st))).collect()
    }

    fn write(&self, path: &str, cred: &Credentials, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.charge_overhead();
        match self.route(path) {
            Route::Own => {
                self.check_perm(path, cred, ACCESS_W)?;
                enum Outcome {
                    Inline,
                    WentLarge(Vec<u8>),
                    AlreadyLarge { committed: bool },
                }
                let mut outcome = Outcome::Inline;
                let end = offset as usize + data.len();
                let settles = self.core.in_flight().settles();
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
                    // While an inline writeback is queued or in flight the
                    // file stays inline past the threshold: a writeback
                    // that read the record already would write its older
                    // bytes over a large file's DFS copy. It goes large on
                    // a later write.
                    let stays_inline = self.inline_fits(path, new_len)
                        || self.core.in_flight().writeback_pending(path);
                    if stays_inline {
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
                            self.write_backup(path, cred, 0, &full)?;
                        } else {
                            let staging = self.core.in_flight().stage(path, &full, settles);
                            self.charge_staging(path, full.len());
                            let committed = || self.reads_committed(path);
                            self.settle_staging(path, cred, 0, &full, staging, committed)?;
                        }
                        Some(held)
                    }
                    // The size updates below start from the record the
                    // first update just read: one CAS, no second read.
                    Outcome::AlreadyLarge { committed } => {
                        let resized = if committed {
                            self.write_backup(path, cred, offset, data)?;
                            // Best-effort: a wiped record reloads its
                            // size from the DFS copy just written.
                            self.cache.update::<()>(path, Some(held), |m| {
                                m.size = m.size.max(end as u64);
                                m.mtime = self.core.now();
                                Ok(())
                            })
                        } else {
                            let staging =
                                self.core.in_flight().stage_at(path, offset as usize, data, settles);
                            self.charge_staging(path, data.len());
                            // Best-effort: the bytes are staged durably.
                            // The update stores over the record read
                            // before the staging or reads it again, so
                            // what it returns is the record after it.
                            let resized = self.cache.update::<()>(path, Some(held), |m| {
                                m.size = m.size.max(end as u64);
                                Ok(())
                            });
                            let committed = matches!(&resized, Ok(Ok(Some(h))) if h.meta.committed);
                            self.settle_staging(path, cred, offset, data, staging, || committed)?;
                            resized
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
        match self.route(path) {
            Route::Own => {
                self.check_perm(path, cred, ACCESS_R)?;
                let meta = self.get_or_load(path, cred)?;
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
                let cache = self.readable(i, path, cred)?;
                let mut found = Err(FsError::NotFound);
                self.lookup(Some(&cache), &[path], cred, true, |_, f| found = f);
                match found {
                    Ok(Found::Meta(meta)) if !meta.large && !meta.removed => {
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
        match self.route(path) {
            Route::Own => {
                let settles = self.core.in_flight().settles();
                let meta = self.get_or_load(path, cred)?;
                if meta.kind == FileKind::Dir {
                    return Ok(());
                }
                match (meta.large, meta.committed) {
                    // Small file already on the DFS: write back inline
                    // data synchronously.
                    (false, true) => {
                        self.write_backup(path, cred, 0, &meta.inline)?;
                        self.dfs.fsync(path, cred)
                    }
                    // Small file not yet created on the DFS: direct-I/O
                    // staging ("cache files", Section III.D-2).
                    (false, false) => {
                        let staging = self.core.in_flight().stage(path, &meta.inline, settles);
                        self.charge_staging(path, meta.inline.len());
                        let committed = || self.reads_committed(path);
                        self.settle_staging(path, cred, 0, &meta.inline, staging, committed)
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

/// What the read route found for a path.
#[derive(Clone)]
enum Found {
    /// The cached record, or the one a miss loaded into the cache.
    Meta(CachedMeta),
    /// The DFS copy's stat, read past the cache: the own cache is
    /// unavailable, or a merged region's cache has no record.
    Backup(FileStat),
}

impl Found {
    /// The record; a removed one reads as gone, and a backup stat stands
    /// in as a committed record.
    fn meta(self) -> FsResult<CachedMeta> {
        match self {
            Found::Meta(meta) if meta.removed => Err(FsError::NotFound),
            Found::Meta(meta) => Ok(meta),
            Found::Backup(stat) => Ok(CachedMeta::from_stat(&stat)),
        }
    }

    /// Getattr's answer.
    fn stat(self) -> FsResult<FileStat> {
        match self {
            Found::Backup(stat) => Ok(stat),
            found => found.meta().map(|meta| meta.to_stat()),
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
