//! Consistent regions (Section III.A) and their runtime.
//!
//! A [`PaconRegion`] owns everything Pacon launches with an application:
//! the distributed metadata cache (one shard per node), the per-node
//! commit queues and commit processes, the barrier board, and the batch
//! permission table. Clients are handed out per process and share the
//! region through an `Arc<RegionCore>`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dfs::{DfsClient, DfsCluster};
use fsapi::{path as fspath, FsError, FsResult};
use fsapi::FileSystem;
use memkv::KvCluster;
use mq::push_pull;
use simnet::{ClientId, Counters, NodeId};
use syncguard::{level, Mutex};

use crate::client::PaconClient;
use crate::commit::barrier::{BarrierBoard, BarrierGuard};
use crate::commit::op::{CommitOp, QueueMsg};
use crate::commit::outbox::Outbox;
use crate::commit::wal::{CommitWal, CrashPoint, CrashSwitch, WalEntry};
use crate::commit::worker::{CommitWorker, WorkerStep};
use crate::config::PaconConfig;
use crate::inflight::InFlight;
use crate::permission::RegionPermissions;

/// Capacity of each per-node commit queue, in messages; a publisher
/// blocks while its node's queue is full.
const COMMIT_QUEUE_CAPACITY: usize = 1 << 16;

/// State shared by every client and commit process of one region.
pub struct RegionCore {
    /// Normalized workspace root.
    pub root: String,
    pub config: PaconConfig,
    pub perms: RegionPermissions,
    /// The distributed metadata cache.
    pub cache_cluster: Arc<KvCluster>,
    /// Barrier rendezvous (one commit process per node).
    pub board: BarrierBoard,
    /// What the region remembers about each path between acknowledgement
    /// and commit, with the epoch stamp rule ([`crate::inflight`]). Behind
    /// an accessor, so `tools-lint` keeps its lock edges.
    in_flight: InFlight,
    /// One outbox per node, the only sender into the node's commit queue:
    /// every op published on the node coalesces there, is cut into a
    /// message and waits until the broker provably handed it on.
    outboxes: Vec<Outbox>,
    pub counters: Counters,
    /// Operations published to the commit queues (barrier markers not
    /// counted).
    pub enqueued: AtomicU64,
    /// Operations fully handled by commit processes (committed, discarded
    /// or dropped).
    pub completed: AtomicU64,
    clock: AtomicU64,
    /// Round-robin pointer of the eviction policy (Section III.F): a
    /// position in key order, see [`crate::eviction`]. Locked only to read
    /// or replace it, never across a cache query.
    pub(crate) evict_cursor: Mutex<Vec<u8>>,
    /// Durable commit logs, one per node. Empty in volatile mode — the
    /// cheap `wals.is_empty()` check is the durability switch on every
    /// hot path.
    pub wals: Vec<CommitWal>,
    /// Deterministic kill trigger for the crash-recovery harness. Never
    /// armed in production; two relaxed atomic loads when idle.
    pub crash: CrashSwitch,
    /// This launch's incarnation (from the WAL directory's counter file;
    /// 0 in volatile mode). High bits of every `write_id`.
    pub incarnation: u64,
    /// Region-wide mutation sequence (low bits of `write_id`).
    write_seq: AtomicU64,
    /// Virtual-ns clock of the fault plane. Backoff "sleeps" and the
    /// chaos driver advance it; degraded windows are measured on it.
    /// Distinct from `clock`, whose ticks are per-event identities.
    sim_ns: AtomicU64,
    /// Degraded-mode state machine (Healthy → Degraded → Rewarming).
    pub degraded: crate::degraded::DegradedState,
}

impl RegionCore {
    /// Monotonic logical timestamp.
    pub fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current virtual time (fault plane), in ns.
    pub fn sim_ns(&self) -> u64 {
        self.sim_ns.load(Ordering::Relaxed)
    }

    /// Advance the virtual clock by `ns` (a backoff "sleep" or a chaos
    /// driver step); returns the new time. No wall time passes.
    pub fn advance(&self, ns: u64) -> u64 {
        self.sim_ns.fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Is `path` inside this consistent region?
    pub fn contains(&self, path: &str) -> bool {
        fspath::is_same_or_ancestor(&self.root, path)
    }

    /// Count an op in flight — *before* its envelope reads the epoch stamp:
    /// an op holding a stamp below a released epoch is then counted, and
    /// `drained()` says so (the stamp rule, [`crate::inflight`]).
    pub fn note_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::Release);
    }

    /// True when every published operation has been handled. Completions
    /// are read first (`Acquire`, pairing with `note_completed`'s
    /// `Release`, so every op they count is seen enqueued too): an op still
    /// in flight then always leaves the enqueued count above them, however
    /// many others start and finish between the two reads.
    pub fn drained(&self) -> bool {
        let completed = self.completed.load(Ordering::Acquire);
        self.enqueued.load(Ordering::Acquire) == completed
    }

    /// Whether this region journals its commit queue.
    pub fn durable(&self) -> bool {
        !self.wals.is_empty()
    }

    /// The per-path table ([`crate::inflight`]).
    pub fn in_flight(&self) -> &InFlight {
        &self.in_flight
    }

    /// Allocate the replay identity for an op about to be published.
    /// Creations/unlinks start a new namespace generation for their path;
    /// writebacks inherit the current one. `OpId::NONE` in volatile mode.
    pub(crate) fn op_identity(&self, op: &CommitOp) -> dfs::OpId {
        if self.wals.is_empty() {
            return dfs::OpId::NONE;
        }
        let seq = self.write_seq.fetch_add(1, Ordering::Relaxed) + 1;
        // Panics on a 2^40 per-launch mutation overflow rather than
        // letting seq bleed into the incarnation bits and collide with
        // identities already in the seen-cache.
        let write_id = dfs::OpId::pack_write_id(self.incarnation, seq);
        let generation = match op {
            CommitOp::Mkdir { path, .. }
            | CommitOp::Create { path, .. }
            | CommitOp::Unlink { path } => {
                self.in_flight().new_generation(path, write_id);
                write_id
            }
            CommitOp::WriteInline { path } => self.in_flight().generation(path),
            CommitOp::Barrier { .. } | CommitOp::Batch(_) => 0,
        };
        dfs::OpId { write_id, generation }
    }

    /// Append an identified op to its node's commit log (durable mode;
    /// no-op otherwise). Hosts the harness's two client-side crash
    /// points. Callers must `note_enqueued` *before* appending: that
    /// ordering is what makes `drained()` under the WAL lock prove the
    /// log holds no unconfirmed op (see [`CommitWal::truncate_if`]).
    pub(crate) fn wal_append(
        &self,
        node: usize,
        msg: &QueueMsg,
        snapshot: Option<&[u8]>,
    ) -> FsResult<()> {
        let Some(wal) = self.wals.get(node) else {
            return Ok(());
        };
        if self.crash.hit(CrashPoint::PreAppend) {
            return Err(CrashSwitch::error(CrashPoint::PreAppend));
        }
        let synced = wal.append(msg, snapshot)?;
        self.counters.incr("wal_appended");
        if synced {
            self.counters.incr("wal_fsyncs");
        }
        if self.crash.hit(CrashPoint::PostAppend) {
            return Err(CrashSwitch::error(CrashPoint::PostAppend));
        }
        Ok(())
    }

    /// Truncate every node's commit log if the region is fully drained —
    /// called after completions; two atomic loads when there is still
    /// work in flight. Hosts the post-apply/pre-truncate crash point.
    /// Returns whether every log was truncated by this pass (and is thus
    /// provably empty), which is when replay identities become prunable.
    pub fn maybe_truncate_wals(&self) -> bool {
        if self.wals.is_empty() || !self.drained() {
            return false;
        }
        if self.crash.hit(CrashPoint::PreTruncate) {
            return false;
        }
        let mut all_truncated = true;
        for wal in &self.wals {
            match wal.truncate_if(|| self.drained()) {
                Ok(true) => self.counters.incr("wal_truncations"),
                Ok(false) => all_truncated = false,
                Err(_) => {
                    self.counters.incr("wal_errors");
                    all_truncated = false;
                }
            }
        }
        all_truncated
    }

    /// Unconditionally truncate every commit log (end of a successful
    /// recovery; checkpoint rollback).
    pub(crate) fn reset_wals(&self) -> FsResult<()> {
        for wal in &self.wals {
            wal.reset()?;
            self.counters.incr("wal_truncations");
        }
        Ok(())
    }

    /// Node `node`'s outbox. An accessor, not `outboxes[node]`: `tools-lint`
    /// resolves a receiver from a return type, not from `Vec` indexing, and
    /// the outbox lock must stay in the static lock graph.
    pub fn outbox(&self, node: usize) -> &Outbox {
        &self.outboxes[node]
    }

    /// Barrier commit up to the rendezvous (Section III.E-2): take the
    /// slot, post the epoch's marker into every node's queue behind all
    /// published there so far ([`Outbox::post_marker`]) and wait until
    /// every commit process reached its marker. The caller performs the
    /// dependent op, then completes the guard. A node that cannot take its
    /// marker fails the barrier: the guard drops, and the markers already
    /// posted are stale — the commit processes skip them.
    pub(crate) fn barrier(&self, client: u32) -> FsResult<BarrierGuard<'_>> {
        let guard = self.board.start_barrier();
        for n in 0..self.outboxes.len() {
            self.outbox(n).post_marker(self, guard.epoch(), client)?;
        }
        guard.wait_workers();
        Ok(guard)
    }
}

/// Read-only view of a region another application merged in
/// (Section III.D-4).
#[derive(Clone)]
pub struct RegionHandle {
    pub root: String,
    pub cache_cluster: Arc<KvCluster>,
    pub perms: RegionPermissions,
}

/// A running consistent region.
pub struct PaconRegion {
    core: Arc<RegionCore>,
    dfs: Arc<DfsCluster>,
    /// One DFS mount per node, shared by the node's clients and its commit
    /// process — one dentry cache per node, as a node-level BeeGFS client
    /// keeps (`DfsConfig::dentry_cache_capacity` sizes a node's cache).
    mounts: Vec<Arc<DfsClient>>,
    /// Workers not yet claimed by a thread or the DES driver.
    worker_slots: Mutex<Vec<Option<CommitWorker>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
    /// Crash simulation: workers bail out immediately, dropping pending
    /// commits (see [`PaconRegion::abort`]).
    hard_stop: Arc<AtomicBool>,
}

impl PaconRegion {
    /// Initialize the region and start one commit-process thread per
    /// node. The workspace directory (and its ancestors) are created on
    /// the DFS if missing.
    pub fn launch(config: PaconConfig, dfs: &Arc<DfsCluster>) -> FsResult<Arc<Self>> {
        let region = Self::launch_paused(config, dfs)?;
        region.start_worker_threads();
        Ok(region)
    }

    /// As [`PaconRegion::launch`] but without spawning worker threads —
    /// the discrete-event harness claims the workers via
    /// [`PaconRegion::take_worker`] and drives them in virtual time.
    pub fn launch_paused(config: PaconConfig, dfs: &Arc<DfsCluster>) -> FsResult<Arc<Self>> {
        let root = fspath::normalize(&config.workspace)?;
        if root == "/" {
            return Err(FsError::InvalidPath(
                "workspace cannot be the filesystem root".into(),
            ));
        }
        if config.commit_batch_size == 0 {
            return Err(FsError::InvalidArgument("commit_batch_size must be at least 1".into()));
        }

        // Ensure the workspace exists on the DFS (uncharged setup unless a
        // recorder is active; this happens once at application start).
        let setup = dfs.client();
        let mut prefix = String::new();
        for comp in fspath::components(&root) {
            prefix.push('/');
            prefix.push_str(comp);
            // lint: allow(commit-path, one-time workspace setup at region launch, before any client or worker runs)
            match setup.mkdir(&prefix, &config.cred, 0o777) {
                Ok(()) | Err(FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }

        let perms = config
            .permissions
            .clone()
            .unwrap_or_else(|| RegionPermissions::default_for(config.cred));
        let cache_cluster =
            KvCluster::with_options(config.topology, Arc::clone(dfs.profile()), config.station_base);
        let nodes = config.topology.nodes as usize;

        // Durable mode: bump the incarnation, open every node's commit
        // log crash-safely, and collect surviving entries for replay.
        let mut wals = Vec::new();
        let mut recovered: Vec<Vec<WalEntry>> = Vec::new();
        let mut incarnation = 0u64;
        if let Some(wal_dir) = &config.wal_dir {
            std::fs::create_dir_all(wal_dir)
                .map_err(|e| FsError::Backend(format!("wal dir {}: {e}", wal_dir.display())))?;
            incarnation = bump_incarnation(wal_dir)?;
            for n in 0..nodes {
                let (wal, entries) = CommitWal::open(
                    &wal_dir.join(format!("node{n}.wal")),
                    config.wal_fsync_batch,
                )?;
                wals.push(wal);
                recovered.push(entries);
            }
        }

        // One commit queue per node; its sending end lives in the node's
        // outbox, its receiving end in the node's worker.
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..nodes).map(|_| push_pull::<Arc<QueueMsg>>(COMMIT_QUEUE_CAPACITY)).unzip();

        let core = Arc::new(RegionCore {
            root,
            perms,
            cache_cluster,
            board: BarrierBoard::new(nodes),
            in_flight: InFlight::default(),
            outboxes: txs.into_iter().enumerate().map(|(n, tx)| Outbox::new(n, tx)).collect(),
            counters: Counters::new(),
            enqueued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            evict_cursor: Mutex::new(
                level::REGION_STATE,
                "pacon.region.evict_cursor",
                Vec::new(),
            ),
            wals,
            crash: CrashSwitch::new(),
            incarnation,
            write_seq: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
            degraded: crate::degraded::DegradedState::new(),
            config,
        });

        let mounts: Vec<Arc<DfsClient>> = (0..nodes).map(|_| Arc::new(dfs.client())).collect();
        let mut workers: Vec<CommitWorker> = (0u32..)
            .zip(rxs)
            .zip(&mounts)
            .map(|((n, rx), mount)| {
                CommitWorker::new(NodeId(n), rx, Arc::clone(mount), Arc::clone(&core))
            })
            .collect();
        // The previous incarnation's logged ops commit before any new work
        // is accepted.
        if recovered.iter().any(|log| !log.is_empty()) {
            recover(&core, &mut workers, recovered)?;
        }
        if core.durable() {
            // Writebacks to files created by earlier incarnations must
            // carry those files' creation generations, not 0: seed the
            // in-memory generation map from the cluster's records before
            // any client publishes.
            for (path, generation) in dfs.replay_generations_under(&core.root) {
                core.in_flight().new_generation(&path, generation);
            }
            // Every earlier incarnation's log was just replayed (or found
            // empty) and reset, so the identities those logs could replay
            // are confirmed-and-gone: shed them from the seen-cache.
            let pruned = dfs.prune_replay_identities(&core.root, core.incarnation);
            core.counters.add("replay_pruned", pruned as u64);
        }

        let workers = workers.into_iter().map(Some).collect();
        Ok(Arc::new(Self {
            core,
            dfs: Arc::clone(dfs),
            mounts,
            worker_slots: Mutex::new(level::REGION_STATE, "pacon.region.worker_slots", workers),
            threads: Mutex::new(level::REGION_STATE, "pacon.region.threads", Vec::new()),
            stop: Arc::new(AtomicBool::new(false)),
            hard_stop: Arc::new(AtomicBool::new(false)),
        }))
    }

    /// Spawn one thread per remaining worker slot.
    pub fn start_worker_threads(&self) {
        // Collect the handles locally so `worker_slots` and `threads`
        // (same lock level) are never held together.
        let mut spawned = Vec::new();
        let mut slots = self.worker_slots.lock();
        for slot in slots.iter_mut() {
            if let Some(mut worker) = slot.take() {
                let stop = Arc::clone(&self.stop);
                let hard_stop = Arc::clone(&self.hard_stop);
                let core = Arc::clone(&self.core);
                spawned.push(std::thread::spawn(move || loop {
                    if hard_stop.load(Ordering::Acquire) {
                        break;
                    }
                    match worker.step() {
                        WorkerStep::Committed
                        | WorkerStep::Batch { .. }
                        | WorkerStep::Retried
                        | WorkerStep::Discarded
                        | WorkerStep::BarrierReported => {}
                        WorkerStep::Blocked(epoch) => core.board.wait_released(epoch),
                        WorkerStep::Idle => {
                            if stop.load(Ordering::Acquire) && worker.backlog_empty() {
                                break;
                            }
                            std::thread::sleep(std::time::Duration::from_micros(100));
                        }
                        WorkerStep::Disconnected | WorkerStep::Crashed => break,
                    }
                }));
            }
        }
        drop(slots);
        self.threads.lock().extend(spawned);
    }

    /// Claim node `n`'s commit worker for external (DES) driving.
    pub fn take_worker(&self, n: usize) -> CommitWorker {
        self.worker_slots.lock()[n]
            .take()
            .expect("worker already claimed or thread-started")
    }

    /// A client for process `id` (determines its node and cache shard
    /// affinity).
    pub fn client(self: &Arc<Self>, id: ClientId) -> PaconClient {
        let node = self.core.config.topology.node_of(id);
        PaconClient::new(
            Arc::clone(&self.core),
            self.core.cache_cluster.client(node),
            Arc::clone(&self.mounts[node.index()]),
            id,
            node,
        )
    }

    /// Shared core (tests, eviction, checkpoints).
    pub fn core(&self) -> &Arc<RegionCore> {
        &self.core
    }

    /// The DFS this region commits to.
    pub fn dfs(&self) -> &Arc<DfsCluster> {
        &self.dfs
    }

    /// Every node's DFS mount forgets its dentries: the tree they name
    /// was replaced behind them (checkpoint rollback).
    pub(crate) fn forget_mount_dentries(&self) {
        for mount in &self.mounts {
            mount.forget_dentries();
        }
    }

    /// Read-only handle for merging into another application's view.
    pub fn handle(&self) -> RegionHandle {
        RegionHandle {
            root: self.core.root.clone(),
            cache_cluster: Arc::clone(&self.core.cache_cluster),
            perms: self.core.perms.clone(),
        }
    }

    /// Block until every published operation has been committed
    /// (threaded mode only).
    pub fn quiesce(&self) {
        while !self.core.drained() {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    /// Simulate a crash: stop the commit processes immediately, dropping
    /// everything still queued. Uncommitted primary-copy state is lost,
    /// exactly the failure Section III.G's checkpoint/rollback recovers
    /// from.
    pub fn abort(&self) {
        self.hard_stop.store(true, Ordering::Release);
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            // lint: allow(hold-across-blocking, abort joins commit threads under `threads`; joined threads never take it)
            let _ = t.join();
        }
    }

    /// Drain the queues and stop the commit threads.
    pub fn shutdown(&self) -> FsResult<()> {
        self.quiesce();
        self.stop.store(true, Ordering::Release);
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            // lint: allow(hold-across-blocking, shutdown joins commit threads under `threads`; joined threads never take it)
            t.join().map_err(|_| FsError::Backend("commit thread panicked".into()))?;
        }
        Ok(())
    }

    /// Apply one scripted fault event to the region's subsystems — the
    /// chaos driver's dispatch point. Cache-node events hit the memkv
    /// cluster; commit-link events hit the node's queue.
    pub fn apply_fault(&self, ev: simnet::FaultEvent) {
        use simnet::FaultEvent as E;
        let link = |n: NodeId| &self.core.outbox(n.index()).link;
        match ev {
            E::CrashCacheNode(n) => self.core.cache_cluster.crash(n),
            E::RestartCacheNode(n) => self.core.cache_cluster.restart(n),
            E::SlowCacheNode { node, extra_ns } => {
                self.core.cache_cluster.set_slowdown(node, extra_ns)
            }
            E::RestoreCacheNode(n) => self.core.cache_cluster.set_slowdown(n, 0),
            E::PartitionCommitLink(n) => link(n).partition(),
            E::CrashBroker(n) => {
                let lost = link(n).sever();
                self.core.counters.add("broker_lost_msgs", lost as u64);
            }
            E::HealCommitLink(n) => link(n).heal(),
            E::DuplicateCommitSends { node, count } => link(node).arm_duplicates(count),
            E::JoinNode(n) => {
                let _ = self.core.cache_cluster.begin_join(n);
            }
            E::LeaveNode(n) => {
                let _ = self.core.cache_cluster.begin_leave(n);
            }
            E::CrashDuringMigration => {
                // Crash whichever node is mid-join/mid-leave — the
                // worst-case elasticity fault; the cluster resolves the
                // migration deterministically (join aborts, leave
                // force-completes).
                if let Some(n) = self.core.cache_cluster.migrating_node() {
                    self.core.cache_cluster.crash(n);
                }
            }
        }
    }

    /// Drive an in-flight cache-ring migration forward by up to
    /// `max_keys` key transfers — the chaos/reshard driver's per-tick
    /// pump (a real deployment's background transfer thread). No-op when
    /// no migration is active. Returns keys moved this call.
    pub fn pump_reshard(&self, max_keys: usize) -> usize {
        self.core.cache_cluster.migration_step(max_keys)
    }

    /// [`Outbox::settle`] on every node; returns how many messages this
    /// call delivered.
    pub fn flush_publishes(&self) -> FsResult<usize> {
        (0..self.core.outboxes.len()).map(|n| self.core.outbox(n).settle()).sum()
    }

    /// Commit messages not yet provably consumed by their node's broker.
    pub fn unacked_publishes(&self) -> usize {
        (0..self.core.outboxes.len()).map(|n| self.core.outbox(n).unacked()).sum()
    }

    /// Run an empty barrier: returns once every operation published
    /// before this call is committed to the DFS. Used by checkpointing
    /// and by tests that need a consistent backup copy without shutting
    /// the region down. Fails, with the barrier abandoned, while a commit
    /// link cannot take its marker.
    pub fn sync_barrier(&self) -> FsResult<()> {
        self.core.barrier(u32::MAX)?.complete();
        // Everything published before the barrier is now confirmed; a
        // drained durable region can shed its logs.
        // lint: allow(hold-across-blocking, WAL truncation must run inside the barrier: the held slot fences new ops)
        if self.core.maybe_truncate_wals() {
            // Every log is empty and the barrier fences new publishes, so
            // no identity recorded under this root can ever replay: shed
            // them all (bounds seen-cache growth in long-lived regions).
            let pruned = self.dfs.prune_replay_identities(&self.core.root, u64::MAX);
            self.core.counters.add("replay_pruned", pruned as u64);
        }
        Ok(())
    }
}

/// Read-increment-write the WAL directory's incarnation counter. The
/// incarnation forms the high bits of every `write_id`, so identities
/// never collide across restarts of the same region — which is why the
/// bump must be crash-safe: the new value is written to a temp file,
/// fsynced, renamed over the counter, and the directory is fsynced, so a
/// crash either keeps the old value (the next launch re-bumps past it)
/// or lands the new one, never a torn or reverted counter. A counter
/// that exists but does not parse fails the launch: silently restarting
/// from 0 would reuse incarnations and no-op real ops against stale
/// seen-cache identities.
fn bump_incarnation(wal_dir: &std::path::Path) -> FsResult<u64> {
    let io_err = |e: std::io::Error| FsError::Backend(format!("incarnation file: {e}"));
    let path = wal_dir.join("incarnation");
    let current = match std::fs::read_to_string(&path) {
        Ok(s) => s.trim().parse::<u64>().map_err(|_| {
            FsError::Backend(format!(
                "incarnation file {} is corrupt; refusing to reuse write_id space",
                path.display()
            ))
        })?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(io_err(e)),
    };
    let next = current + 1;
    if next >= dfs::OpId::MAX_INCARNATION {
        return Err(FsError::Backend(
            "incarnation counter exhausted the write_id incarnation bits".into(),
        ));
    }
    let tmp = wal_dir.join("incarnation.tmp");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(next.to_string().as_bytes()).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, &path).map_err(io_err)?;
    // The rename itself must be durable, or a crash could resurrect the
    // previous counter value after this launch already used `next`.
    std::fs::File::open(wal_dir).map_err(io_err)?.sync_all().map_err(io_err)?;
    Ok(next)
}

/// Recovery (DESIGN §5.3): every node's surviving log entries re-enter
/// the commit route as what they were, ops published and not yet
/// committed. The nodes take turns; in each, a node's worker commits a run
/// of its log (up to `commit_batch_size` entries, in log order per path)
/// or, with none free to go, retries an entry that waits in its backlog
/// for a prerequisite in another log. Then the logs are truncated, once.
/// Every apply is idempotent, so a crash during recovery
/// (`recovery_crash_after`: runs are cut so that exactly that many ops
/// have applied) only means the next launch replays the same logs and the
/// seen-cache no-ops the prefix that landed. An error no wait resolves
/// fails the launch the same way.
fn recover(
    core: &RegionCore,
    workers: &mut [CommitWorker],
    logs: Vec<Vec<WalEntry>>,
) -> FsResult<()> {
    let total = logs.iter().map(Vec::len).sum::<usize>() as u64;
    core.counters.add("wal_replayed", total);
    // The births and unlink stamps the route records order before every
    // new op.
    let newest = logs.iter().flatten().map(|e| e.msg.timestamp).max().unwrap_or(0);
    core.clock.fetch_max(newest, Ordering::Relaxed);
    // One op more than the logs hold, completed after the last run: the
    // route's `maybe_truncate_wals` never finds the region drained.
    core.enqueued.fetch_add(total + 1, Ordering::Relaxed);
    let applied = || core.counters.get("committed");
    let batch = core.config.commit_batch_size as u64;
    let crash_after = core.config.recovery_crash_after;
    let mut logs: Vec<VecDeque<WalEntry>> = logs.into_iter().map(Into::into).collect();
    while logs.iter().any(|log| !log.is_empty()) || workers.iter().any(|w| !w.backlog_empty()) {
        for (worker, log) in workers.iter_mut().zip(&mut logs) {
            let room = crash_after.map_or(batch, |n| n.saturating_sub(applied()).clamp(1, batch));
            worker.recover(log, room as usize)?;
            if crash_after.is_some_and(|n| n == applied()) {
                return Err(FsError::Backend("crash-kill: recovery interrupted".into()));
            }
        }
    }
    core.note_completed();
    core.counters.add("recovery_applied", applied());
    core.counters.add("recovery_skipped", total - applied());
    core.reset_wals()
}

impl Drop for PaconRegion {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            // lint: allow(hold-across-blocking, shutdown joins commit threads under `threads`; joined threads never take it)
            let _ = t.join();
        }
    }
}

/// The paper's use case 3 (Section III.B): applications with
/// *overlapping* working directories should run in the same large
/// consistent region — the topmost one. Given the requested workspaces,
/// return the workspace roots to actually launch regions for: every path
/// that has an ancestor in the set collapses into that ancestor.
///
/// ```
/// let roots = pacon::region::collapse_overlapping_workspaces(&[
///     "/A", "/A/B", "/C", "/C/D/E", "/F",
/// ]).unwrap();
/// assert_eq!(roots, vec!["/A", "/C", "/F"]);
/// ```
pub fn collapse_overlapping_workspaces(workspaces: &[&str]) -> FsResult<Vec<String>> {
    let mut normalized: Vec<String> = workspaces
        .iter()
        .map(|w| fspath::normalize(w))
        .collect::<FsResult<_>>()?;
    normalized.sort();
    normalized.dedup();
    let mut roots: Vec<String> = Vec::new();
    for w in normalized {
        // Sorted order guarantees any ancestor appears before its
        // descendants.
        if !roots.iter().any(|r| fspath::is_same_or_ancestor(r, &w)) {
            roots.push(w);
        }
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::DfsCluster;
    use fsapi::Credentials;
    use simnet::LatencyProfile;
    use simnet::Topology;

    fn launch(workspace: &str) -> (Arc<DfsCluster>, Arc<PaconRegion>) {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let region = PaconRegion::launch_paused(
            PaconConfig::new(workspace, Topology::new(2, 2), Credentials::new(1, 1)),
            &dfs,
        )
        .unwrap();
        (dfs, region)
    }

    #[test]
    fn launch_creates_the_workspace_chain_on_the_dfs() {
        let (dfs, _region) = launch("/deep/nested/workspace");
        use fsapi::FileSystem;
        let fs = dfs.client();
        let cred = Credentials::new(1, 1);
        assert!(fs.stat("/deep", &cred).unwrap().is_dir());
        assert!(fs.stat("/deep/nested", &cred).unwrap().is_dir());
        assert!(fs.stat("/deep/nested/workspace", &cred).unwrap().is_dir());
    }

    #[test]
    fn workspace_root_rejected() {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let res = PaconRegion::launch_paused(
            PaconConfig::new("/", Topology::new(1, 1), Credentials::new(1, 1)),
            &dfs,
        );
        assert!(res.is_err());
    }

    #[test]
    fn a_zero_batch_size_is_rejected_at_launch() {
        // The builder asserts; the field is public. At 0 no flush takes
        // anything out of the publish buffer and the node never drains.
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let mut config = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1));
        config.commit_batch_size = 0;
        let res = PaconRegion::launch_paused(config, &dfs);
        assert!(matches!(res, Err(FsError::InvalidArgument(_))));
    }

    #[test]
    fn contains_and_route() {
        let (_dfs, region) = launch("/app");
        let core = region.core();
        assert!(core.contains("/app"));
        assert!(core.contains("/app/x/y"));
        assert!(!core.contains("/apps"));
        assert!(!core.contains("/other"));
    }

    #[test]
    fn drained_tracks_enqueue_complete() {
        let (_dfs, region) = launch("/app");
        let core = region.core();
        assert!(core.drained());
        core.note_enqueued();
        assert!(!core.drained());
        core.note_completed();
        assert!(core.drained());
    }

    #[test]
    fn now_is_monotonic() {
        let (_dfs, region) = launch("/app");
        let a = region.core().now();
        let b = region.core().now();
        assert!(b > a);
    }

    fn plain_entry(op: CommitOp) -> WalEntry {
        WalEntry {
            msg: QueueMsg {
                op,
                client: 0,
                epoch: 0,
                timestamp: 0,
                id: dfs::OpId::NONE,
                degraded: false,
            },
            snapshot: None,
        }
    }

    /// Recover `logs` (one per node) through the region's own workers.
    fn recover_logs(region: &PaconRegion, logs: Vec<Vec<WalEntry>>) {
        let mut workers: Vec<_> = (0..logs.len()).map(|n| region.take_worker(n)).collect();
        recover(region.core(), &mut workers, logs).unwrap();
        assert!(region.core().drained(), "every recovered op completed");
    }

    fn mkdir(path: &str) -> WalEntry {
        plain_entry(CommitOp::Mkdir { path: path.into(), mode: 0o755 })
    }

    fn create(path: &str) -> WalEntry {
        plain_entry(CommitOp::Create { path: path.into(), mode: 0o644 })
    }

    /// Regression: recovery must only abandon the entry whose
    /// prerequisite is truly lost. Here node 0's `create /app/a/f` waits
    /// on `mkdir /app/a` sitting *behind* the unrecoverable `mkdir
    /// /lost/x` in node 1's log.
    #[test]
    fn stalled_replay_drops_only_unrecoverable_heads() {
        let (dfs, region) = launch("/app");
        let q0 = vec![create("/app/a/f")];
        let q1 = vec![mkdir("/lost/x"), mkdir("/app/a")];
        recover_logs(&region, vec![q0, q1]);
        let core = region.core();
        let cred = Credentials::new(1, 1);
        let landed = dfs.client().stat("/app/a/f", &cred).unwrap().is_file();
        assert!(landed, "recoverable op was dropped");
        assert_eq!(core.counters.get("recovery_skipped"), 1, "only /lost/x is unrecoverable");
        assert_eq!(core.counters.get("recovery_applied"), 2);
        assert_eq!(core.counters.get("dropped_retry_budget"), 1);
    }

    #[test]
    fn stalled_replay_with_cyclic_waits_still_terminates() {
        let (_dfs, region) = launch("/app");
        // Each log's head waits on a creation behind the other's head. The
        // heads wait in their backlogs while the mkdirs land: nothing is
        // sacrificed.
        let q0 = vec![create("/app/x/f"), mkdir("/app/y")];
        let q1 = vec![create("/app/y/g"), mkdir("/app/x")];
        recover_logs(&region, vec![q0, q1]);
        let core = region.core();
        assert_eq!(core.counters.get("recovery_skipped"), 0);
        assert_eq!(core.counters.get("recovery_applied"), 4);
    }

    /// A batched run holds a create whose parent's mkdir sits in the other
    /// node's log: the create goes to its worker's backlog alone, the rest
    /// of the run lands, and the create follows its parent.
    #[test]
    fn a_batched_run_waits_out_a_parent_in_the_other_log() {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let config = PaconConfig::new("/app", Topology::new(2, 2), Credentials::new(1, 1))
            .with_commit_batch(16);
        let region = PaconRegion::launch_paused(config, &dfs).unwrap();
        let q0 = vec![create("/app/f0"), create("/app/d/f"), create("/app/f1")];
        let q1 = vec![create("/app/g0"), mkdir("/app/d")];
        recover_logs(&region, vec![q0, q1]);
        let core = region.core();
        assert_eq!(core.counters.get("recovery_applied"), 5);
        assert_eq!(core.counters.get("recovery_skipped"), 0);
        assert!(core.counters.get("resubmitted") >= 1);
        let cred = Credentials::new(1, 1);
        assert!(dfs.client().stat("/app/d/f", &cred).unwrap().is_file());
    }

    /// A logged create whose path already exists (made outside the log, or
    /// a degraded duplicate admission) has its intent in place at once: the
    /// unlink behind it in the same log removes the file, and the create
    /// must not land after it.
    #[test]
    fn a_recovered_create_that_meets_its_path_settles_before_the_unlink_behind_it() {
        let cred = Credentials::new(1, 1);
        for (batch, degraded) in [(1, false), (1, true), (16, false), (16, true)] {
            let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
            let config =
                PaconConfig::new("/app", Topology::new(2, 2), cred).with_commit_batch(batch);
            let region = PaconRegion::launch_paused(config, &dfs).unwrap();
            dfs.client().create("/app/f", &cred, 0o644).unwrap();
            let mut dup = create("/app/f");
            dup.msg.degraded = degraded;
            let unlink = plain_entry(CommitOp::Unlink { path: "/app/f".into() });
            recover_logs(&region, vec![vec![dup, unlink], vec![]]);
            let counters = &region.core().counters;
            let case = format!("batch {batch}, degraded {degraded}");
            assert_eq!(dfs.client().stat("/app/f", &cred).err(), Some(FsError::NotFound), "{case}");
            assert_eq!(counters.get("recovery_exists"), 1, "{case}");
            assert_eq!(counters.get("recovery_applied"), 2, "{case}");
            assert_eq!(counters.get("resubmitted"), 0, "{case}");
        }
    }

    /// A run never lets an op overtake an earlier op of its path that it
    /// passed over: the writeback logged after a re-creation lands in the
    /// re-created file, not in the one the unlink before it removes.
    #[test]
    fn a_writeback_behind_a_recreation_lands_in_the_new_file() {
        let cred = Credentials::new(1, 1);
        for batch in [1, 16, usize::MAX] {
            let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
            let config =
                PaconConfig::new("/app", Topology::new(2, 2), cred).with_commit_batch(batch);
            let region = PaconRegion::launch_paused(config, &dfs).unwrap();
            let unlink = plain_entry(CommitOp::Unlink { path: "/app/f".into() });
            let mut write = plain_entry(CommitOp::WriteInline { path: "/app/f".into() });
            write.snapshot = Some(b"new".to_vec());
            let log = vec![create("/app/f"), unlink, create("/app/f"), write];
            recover_logs(&region, vec![log, vec![]]);
            let read = dfs.client().read("/app/f", &cred, 0, 16);
            assert_eq!(read.as_deref(), Ok(&b"new"[..]), "batch {batch}");
        }
    }

    /// A DFS outage during recovery fails it: the log record is the op's
    /// only copy, so the op is neither retried to its budget and shed nor
    /// counted as a commit error, and the caller keeps the log.
    #[test]
    fn a_dfs_error_fails_recovery_instead_of_shedding_the_op() {
        let (dfs, region) = launch("/app");
        let retries = region.core().config.max_commit_retries as u64;
        dfs.inject_mds_failures(0, retries + 1);
        let mut workers: Vec<_> = (0..2).map(|n| region.take_worker(n)).collect();
        let logs = vec![vec![create("/app/f")], vec![mkdir("/app/d")]];
        let err = recover(region.core(), &mut workers, logs).unwrap_err();
        assert!(matches!(err, FsError::Backend(_)), "{err:?}");
        let counters = &region.core().counters;
        for shed in ["dropped_retry_budget", "commit_errors", "recovery_skipped", "committed"] {
            assert_eq!(counters.get(shed), 0, "{shed}");
        }
        assert_eq!(counters.get("resubmitted"), 0, "no retry of an outage");
    }

    #[test]
    fn incarnation_counter_bumps_durably_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "pacon-incarnation-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(bump_incarnation(&dir).unwrap(), 1);
        assert_eq!(bump_incarnation(&dir).unwrap(), 2);
        assert!(!dir.join("incarnation.tmp").exists(), "temp file must not survive");
        // A corrupt counter must fail the launch, not restart from 0.
        std::fs::write(dir.join("incarnation"), "not-a-number").unwrap();
        assert!(bump_incarnation(&dir).is_err());
        // An exhausted counter must refuse rather than truncate.
        std::fs::write(dir.join("incarnation"), (dfs::OpId::MAX_INCARNATION - 1).to_string())
            .unwrap();
        assert!(bump_incarnation(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collapse_overlapping() {
        let roots =
            collapse_overlapping_workspaces(&["/A/B", "/A", "/C/D/E", "/C", "/F"]).unwrap();
        assert_eq!(roots, vec!["/A", "/C", "/F"]);
        // Disjoint stays disjoint; sibling shared prefixes are distinct.
        let roots = collapse_overlapping_workspaces(&["/ab", "/a"]).unwrap();
        assert_eq!(roots, vec!["/a", "/ab"]);
        // Duplicates collapse.
        let roots = collapse_overlapping_workspaces(&["/x", "/x"]).unwrap();
        assert_eq!(roots, vec!["/x"]);
        // Invalid paths propagate errors.
        assert!(collapse_overlapping_workspaces(&["relative"]).is_err());
    }
}
