//! Metadata server front end.
//!
//! Each public method models one RPC handler: it charges its service
//! demand to `Station::Mds(id)` and then executes the namespace
//! operation. Multiple MDS instances share one namespace store and split
//! the request load (BeeGFS-style multi-MDS deployments shard by
//! directory; the paper's testbed runs a single MDS, which is also the
//! default here).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fsapi::{path as fspath, Credentials, FileKind, FileStat, FsError, FsResult};
use simnet::{charge, Counters, LatencyProfile, Station};
use syncguard::{Mutex, RwLock};

use crate::namespace::{Ino, Namespace};
use crate::replay::{OpId, SeenCache};

/// One namespace operation inside a batched update request (group
/// commit). Paths are full normalized paths; the server resolves them
/// under a single namespace-lock acquisition. Inline-data writebacks are
/// data-path operations and never appear here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    Mkdir { path: String, mode: u16 },
    Create { path: String, mode: u16 },
    Unlink { path: String },
}

impl BatchOp {
    pub fn path(&self) -> &str {
        match self {
            BatchOp::Mkdir { path, .. }
            | BatchOp::Create { path, .. }
            | BatchOp::Unlink { path } => path,
        }
    }
}

/// One metadata server instance.
pub struct Mds {
    id: u32,
    ns: Arc<RwLock<Namespace>>,
    /// Idempotent-replay identities, shared across the cluster's MDS
    /// instances (it memoizes applied mutations the way the namespace
    /// stores them).
    seen: Arc<Mutex<SeenCache>>,
    profile: Arc<LatencyProfile>,
    pub counters: Counters,
    /// Fault injection: the next N requests fail with a backend error
    /// (transient MDS outage / RPC timeout).
    inject_failures: AtomicU64,
    /// Fault injection: the next N mutating requests *apply* but their
    /// reply is lost (the client sees a backend error for work that
    /// actually happened — the classic duplicate-replay hazard).
    inject_reply_loss: AtomicU64,
}

impl Mds {
    pub fn new(
        id: u32,
        ns: Arc<RwLock<Namespace>>,
        profile: Arc<LatencyProfile>,
    ) -> Arc<Self> {
        Self::with_seen(id, ns, SeenCache::shared(), profile)
    }

    /// Construct with an externally shared seen-cache (cluster assembly:
    /// all MDS instances of one cluster share it, like the namespace).
    pub fn with_seen(
        id: u32,
        ns: Arc<RwLock<Namespace>>,
        seen: Arc<Mutex<SeenCache>>,
        profile: Arc<LatencyProfile>,
    ) -> Arc<Self> {
        Arc::new(Self {
            id,
            ns,
            seen,
            profile,
            counters: Counters::new(),
            inject_failures: AtomicU64::new(0),
            inject_reply_loss: AtomicU64::new(0),
        })
    }

    pub fn id(&self) -> u32 {
        self.id
    }

    /// Make the next `n` requests fail transiently (tests and failure-
    /// injection experiments).
    pub fn inject_failures(&self, n: u64) {
        self.inject_failures.store(n, Ordering::Release);
    }

    /// Make the next `n` mutating requests apply their update but lose
    /// the reply: the caller sees `FsError::Backend` even though the
    /// namespace changed. Replaying such a request hits `AlreadyExists`
    /// (creations) — the idempotent-replay case commit processes must
    /// absorb.
    pub fn inject_reply_loss(&self, n: u64) {
        self.inject_reply_loss.store(n, Ordering::Release);
    }

    /// Consume one injected failure if armed.
    fn check_fault(&self) -> FsResult<()> {
        let mut cur = self.inject_failures.load(Ordering::Acquire);
        while cur > 0 {
            match self.inject_failures.compare_exchange(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.counters.incr("injected_failures");
                    return Err(FsError::Backend("injected MDS failure".into()));
                }
                Err(now) => cur = now,
            }
        }
        Ok(())
    }

    /// Consume one injected reply loss if armed. Call *after* a mutation
    /// applied successfully.
    fn check_reply_loss(&self) -> FsResult<()> {
        let mut cur = self.inject_reply_loss.load(Ordering::Acquire);
        while cur > 0 {
            match self.inject_reply_loss.compare_exchange(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.counters.incr("injected_reply_losses");
                    return Err(FsError::Backend("injected reply loss".into()));
                }
                Err(now) => cur = now,
            }
        }
        Ok(())
    }

    fn station(&self) -> Station {
        Station::Mds(self.id)
    }

    /// Resolve one path component under `parent`.
    pub fn lookup(&self, parent: Ino, name: &str, cred: &Credentials) -> FsResult<Ino> {
        charge(self.station(), self.profile.mds_lookup);
        self.counters.incr("lookup");
        self.check_fault()?;
        self.ns.read().lookup(parent, name, cred)
    }

    /// Attributes of a resolved inode.
    pub fn getattr(&self, ino: Ino, cred: &Credentials) -> FsResult<FileStat> {
        charge(self.station(), self.profile.mds_stat);
        self.counters.incr("getattr");
        self.check_fault()?;
        let _ = cred;
        self.ns.read().getattr(ino)
    }

    /// Combined lookup + getattr of one directory entry — the single RPC
    /// a BeeGFS-style client issues for `stat` once the parent dentry is
    /// cached (stat-by-name with lookup intent).
    pub fn lookup_stat(
        &self,
        parent: Ino,
        name: &str,
        cred: &Credentials,
    ) -> FsResult<(Ino, FileStat)> {
        charge(self.station(), self.profile.mds_stat);
        self.counters.incr("lookup_stat");
        self.check_fault()?;
        let ns = self.ns.read();
        let ino = ns.lookup(parent, name, cred)?;
        Ok((ino, ns.getattr(ino)?))
    }

    /// Create a file or directory under `parent`.
    pub fn create(
        &self,
        parent: Ino,
        name: &str,
        kind: FileKind,
        mode: u16,
        cred: &Credentials,
    ) -> FsResult<Ino> {
        let demand = match kind {
            FileKind::File => self.profile.mds_create,
            FileKind::Dir => self.profile.mds_mkdir,
        };
        charge(self.station(), demand);
        self.counters.incr(match kind {
            FileKind::File => "create",
            FileKind::Dir => "mkdir",
        });
        self.check_fault()?;
        let ino = self.ns.write().create_child(parent, name, kind, mode, cred)?;
        self.check_reply_loss()?;
        Ok(ino)
    }

    /// Unlink a file; returns the removed inode for chunk reclamation.
    pub fn unlink(&self, parent: Ino, name: &str, cred: &Credentials) -> FsResult<Ino> {
        charge(self.station(), self.profile.mds_unlink);
        self.counters.incr("unlink");
        self.check_fault()?;
        let ino = self.ns.write().unlink_child(parent, name, cred)?;
        self.check_reply_loss()?;
        Ok(ino)
    }

    /// Apply a batched namespace update (group commit): one RPC carrying
    /// many operations, handled under a *single* namespace-lock
    /// acquisition. Each op resolves its own parent inside the lock and
    /// succeeds or fails independently; the per-op results come back in
    /// input order. Injected failures are consumed per op, exactly like
    /// the single-op handlers — an outage window of `n` armed failures
    /// fails `n` consecutive ops (possibly mid-batch) while every other
    /// op in the same batch applies, the partial-failure shape the
    /// commit process must disaggregate.
    ///
    /// `ids` are per-op replay identities: an op whose identity is already
    /// in the seen-cache is a no-op returning the original inode
    /// ("replay_noop"), and every applied op is recorded *before* its
    /// reply can be lost — so a durable commit log can be replayed any
    /// number of times without duplicating effects. [`OpId::NONE`] (or a
    /// missing id) leaves an op unidentified.
    pub fn apply_batch(
        &self,
        ops: &[BatchOp],
        ids: &[OpId],
        cred: &Credentials,
    ) -> Vec<FsResult<Ino>> {
        charge(
            self.station(),
            self.profile.mds_batch_base + ops.len() as u64 * self.profile.mds_batch_per_op,
        );
        self.counters.incr("batch");
        self.counters.add("batch_ops", ops.len() as u64);
        let mut ns = self.ns.write();
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                let id = ids.get(i).copied().unwrap_or(OpId::NONE);
                self.check_fault()?;
                if !id.is_none() {
                    if let Some(ino) = self.seen.lock().hit(op.path(), id.write_id) {
                        self.counters.incr("replay_noop");
                        return Ok(ino);
                    }
                }
                let (parent, name) = Self::resolve_parent_locked(&ns, op.path(), cred)?;
                let ino = match op {
                    BatchOp::Mkdir { mode, .. } => {
                        ns.create_child(parent, name, FileKind::Dir, *mode, cred)?
                    }
                    BatchOp::Create { mode, .. } => {
                        ns.create_child(parent, name, FileKind::File, *mode, cred)?
                    }
                    BatchOp::Unlink { .. } => ns.unlink_child(parent, name, cred)?,
                };
                // Record before the reply can be lost: a replay after a
                // lost reply must see the identity and no-op.
                if !id.is_none() {
                    self.seen.lock().record(op.path(), id, ino);
                }
                self.check_reply_loss()?;
                Ok(ino)
            })
            .collect()
    }

    /// Resolve `path`'s parent directory component by component inside
    /// an already-held namespace lock (X-permission checks included via
    /// `Namespace::lookup`).
    fn resolve_parent_locked<'p>(
        ns: &Namespace,
        path: &'p str,
        cred: &Credentials,
    ) -> FsResult<(Ino, &'p str)> {
        let parent = fspath::parent(path)
            .ok_or_else(|| FsError::InvalidPath(format!("no parent: {path}")))?;
        let name = fspath::basename(path)
            .ok_or_else(|| FsError::InvalidPath(format!("no name: {path}")))?;
        let mut cur = Ino::ROOT;
        for comp in fspath::components(parent) {
            cur = ns.lookup(cur, comp, cred)?;
        }
        Ok((cur, name))
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, parent: Ino, name: &str, cred: &Credentials) -> FsResult<()> {
        charge(self.station(), self.profile.mds_rmdir);
        self.counters.incr("rmdir");
        self.check_fault()?;
        self.ns.write().rmdir_child(parent, name, cred)
    }

    /// List a directory.
    pub fn readdir(&self, ino: Ino, cred: &Credentials) -> FsResult<Vec<String>> {
        self.counters.incr("readdir");
        self.check_fault()?;
        let names = self.ns.read().readdir(ino, cred)?;
        charge(
            self.station(),
            self.profile.mds_readdir_base
                + names.len() as u64 * self.profile.mds_readdir_per_entry,
        );
        Ok(names)
    }

    /// Record a file's new size after a data-server write.
    pub fn set_size(&self, ino: Ino, size: u64, cred: &Credentials) -> FsResult<()> {
        charge(self.station(), self.profile.mds_stat);
        self.counters.incr("set_size");
        self.check_fault()?;
        self.ns.write().set_size(ino, size, cred)
    }

    /// The size updates of one vectored data write, in a single request:
    /// each file grows to its `size` if that is larger than what the
    /// namespace holds (the compare runs here, under one namespace-lock
    /// acquisition, instead of costing the client a `getattr` round) and
    /// is never shrunk. Items succeed or fail independently, in input
    /// order; injected failures are consumed per item, as in
    /// [`Mds::apply_batch`]. Counted apart from namespace batches.
    pub fn set_sizes(&self, items: &[(Ino, u64)], cred: &Credentials) -> Vec<FsResult<()>> {
        charge(
            self.station(),
            self.profile.mds_batch_base + items.len() as u64 * self.profile.mds_stat,
        );
        self.counters.incr("size_batch");
        self.counters.add("size_batch_ops", items.len() as u64);
        let mut ns = self.ns.write();
        items
            .iter()
            .map(|&(ino, size)| {
                self.check_fault()?;
                if size > ns.getattr(ino)?.size {
                    ns.set_size(ino, size, cred)?;
                }
                Ok(())
            })
            .collect()
    }

    /// Validate a read and return the current size.
    pub fn check_read(&self, ino: Ino, cred: &Credentials) -> FsResult<u64> {
        charge(self.station(), self.profile.mds_stat);
        self.counters.incr("check_read");
        self.check_fault()?;
        self.ns.read().check_read(ino, cred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::with_recording;

    fn mds() -> Arc<Mds> {
        let ns = Arc::new(RwLock::new(syncguard::level::BACKEND, "dfs.namespace", Namespace::new(0o777)));
        Mds::new(0, ns, Arc::new(LatencyProfile::default()))
    }

    #[test]
    fn charges_service_time_per_op() {
        let m = mds();
        let cred = Credentials::new(1, 1);
        let profile = LatencyProfile::default();
        let (ino, t) = with_recording(|| {
            m.create(Ino::ROOT, "d", FileKind::Dir, 0o755, &cred).unwrap()
        });
        assert_eq!(t.station_ns(Station::Mds(0)), profile.mds_mkdir);
        let ((), t) = with_recording(|| {
            m.getattr(ino, &cred).unwrap();
        });
        assert_eq!(t.station_ns(Station::Mds(0)), profile.mds_stat);
    }

    #[test]
    fn readdir_charges_scale_with_entries() {
        let m = mds();
        let cred = Credentials::new(1, 1);
        let d = m.create(Ino::ROOT, "dir", FileKind::Dir, 0o755, &cred).unwrap();
        for i in 0..10 {
            m.create(d, &format!("f{i}"), FileKind::File, 0o644, &cred).unwrap();
        }
        let profile = LatencyProfile::default();
        let (names, t) = with_recording(|| m.readdir(d, &cred).unwrap());
        assert_eq!(names.len(), 10);
        assert_eq!(
            t.station_ns(Station::Mds(0)),
            profile.mds_readdir_base + 10 * profile.mds_readdir_per_entry
        );
    }

    #[test]
    fn counters_track_requests() {
        let m = mds();
        let cred = Credentials::new(1, 1);
        m.create(Ino::ROOT, "a", FileKind::File, 0o644, &cred).unwrap();
        m.lookup(Ino::ROOT, "a", &cred).unwrap();
        m.lookup(Ino::ROOT, "a", &cred).unwrap();
        assert_eq!(m.counters.get("create"), 1);
        assert_eq!(m.counters.get("lookup"), 2);
    }

    #[test]
    fn batch_applies_in_order_and_charges_once() {
        let m = mds();
        let cred = Credentials::new(1, 1);
        let profile = LatencyProfile::default();
        let ops = vec![
            BatchOp::Mkdir { path: "/d".into(), mode: 0o755 },
            BatchOp::Create { path: "/d/f".into(), mode: 0o644 },
            BatchOp::Create { path: "/d/g".into(), mode: 0o644 },
            BatchOp::Unlink { path: "/d/f".into() },
        ];
        let (results, t) = with_recording(|| m.apply_batch(&ops, &[OpId::NONE; 4], &cred));
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        assert_eq!(
            t.station_ns(Station::Mds(0)),
            profile.mds_batch_base + 4 * profile.mds_batch_per_op,
            "one batch charge, not per-op standalone demands"
        );
        // The dir survives with only /d/g inside.
        let d = m.lookup(Ino::ROOT, "d", &cred).unwrap();
        assert!(m.lookup(d, "g", &cred).is_ok());
        assert_eq!(m.lookup(d, "f", &cred), Err(FsError::NotFound));
        assert_eq!(m.counters.get("batch"), 1);
        assert_eq!(m.counters.get("batch_ops"), 4);
    }

    #[test]
    fn batch_ops_fail_independently() {
        let m = mds();
        let cred = Credentials::new(1, 1);
        let ops = vec![
            BatchOp::Create { path: "/a".into(), mode: 0o644 },
            BatchOp::Create { path: "/missing/f".into(), mode: 0o644 },
            BatchOp::Create { path: "/b".into(), mode: 0o644 },
        ];
        let results = m.apply_batch(&ops, &[OpId::NONE; 3], &cred);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().err(), Some(&FsError::NotFound));
        assert!(results[2].is_ok(), "a namespace rejection must not poison the batch");
    }

    #[test]
    fn outage_window_fails_a_contiguous_run_inside_a_batch() {
        let m = mds();
        let cred = Credentials::new(1, 1);
        let ops: Vec<BatchOp> = (0..5)
            .map(|i| BatchOp::Create { path: format!("/f{i}"), mode: 0o644 })
            .collect();
        m.inject_failures(2);
        let results = m.apply_batch(&ops, &[OpId::NONE; 5], &cred);
        assert!(matches!(results[0], Err(FsError::Backend(_))));
        assert!(matches!(results[1], Err(FsError::Backend(_))));
        assert!(results[2..].iter().all(|r| r.is_ok()), "{results:?}");
        // Exactly the survivors exist.
        assert_eq!(m.lookup(Ino::ROOT, "f0", &cred), Err(FsError::NotFound));
        assert!(m.lookup(Ino::ROOT, "f2", &cred).is_ok());
        assert_eq!(m.counters.get("injected_failures"), 2);
    }

    #[test]
    fn size_batch_charges_once_grows_only_and_fails_per_item() {
        let m = mds();
        let cred = Credentials::new(1, 1);
        let profile = LatencyProfile::default();
        let inos: Vec<Ino> = (0..4)
            .map(|i| m.create(Ino::ROOT, &format!("f{i}"), FileKind::File, 0o644, &cred).unwrap())
            .collect();
        m.set_size(inos[0], 100, &cred).unwrap();
        let size_of = |ino| m.getattr(ino, &cred).unwrap().size;

        let items: Vec<(Ino, u64)> = inos.iter().map(|&ino| (ino, 64)).collect();
        let (results, t) = with_recording(|| m.set_sizes(&items, &cred));
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        assert_eq!(t.station_ns(Station::Mds(0)), profile.mds_batch_base + 4 * profile.mds_stat);
        assert_eq!(size_of(inos[0]), 100, "a size batch never shrinks a file");
        assert_eq!(size_of(inos[1]), 64);

        // A fault inside the group fails exactly the items it strikes; an
        // unknown inode fails alone as well.
        m.inject_failures(1);
        let items = [(inos[1], 200), (inos[2], 200), (Ino(9_999), 200), (inos[3], 200)];
        let results = m.set_sizes(&items, &cred);
        assert!(matches!(results[0], Err(FsError::Backend(_))));
        assert_eq!(results[1], Ok(()));
        assert_eq!(results[2], Err(FsError::NotFound));
        assert_eq!(results[3], Ok(()));
        assert_eq!(size_of(inos[1]), 64);
        assert_eq!(size_of(inos[2]), 200);

        // Counted under its own names: `batch`/`batch_ops` keep meaning
        // namespace batches.
        assert_eq!(m.counters.get("size_batch"), 2);
        assert_eq!(m.counters.get("size_batch_ops"), 8);
        assert_eq!(m.counters.get("batch"), 0);
        assert_eq!(m.counters.get("batch_ops"), 0);
    }

    #[test]
    fn reply_loss_applies_but_reports_failure() {
        let m = mds();
        let cred = Credentials::new(1, 1);
        m.inject_reply_loss(1);
        let res = m.create(Ino::ROOT, "ghost", FileKind::File, 0o644, &cred);
        assert!(matches!(res, Err(FsError::Backend(_))));
        // The op applied despite the error: a replay sees AlreadyExists.
        assert!(m.lookup(Ino::ROOT, "ghost", &cred).is_ok());
        let replay = m.create(Ino::ROOT, "ghost", FileKind::File, 0o644, &cred);
        assert_eq!(replay.err(), Some(FsError::AlreadyExists));
    }
}
