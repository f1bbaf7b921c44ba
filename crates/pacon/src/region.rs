//! Consistent regions (Section III.A) and their runtime.
//!
//! A [`PaconRegion`] owns everything Pacon launches with an application:
//! the distributed metadata cache (one shard per node), the per-node
//! commit queues and commit processes, the barrier board, and the batch
//! permission table. Clients are handed out per process and share the
//! region through an `Arc<RegionCore>`.
//!
//! Each node's commit process lives in a slot in the core, stepped by
//! [`RegionCore::pump`] for a barrier op awaiting its drain, for
//! [`PaconRegion::quiesce`] and on [`PaconRegion::launch`]'s one driver
//! thread; the DES steps one slot per process. A worker taken with
//! [`PaconRegion::take_worker`] is stepped by its taker alone.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    /// The durable commit log, shared by every node. `None` in volatile
    /// mode — the durability switch on every hot path.
    wal: Option<CommitWal>,
    /// Deterministic kill trigger for the crash-recovery harness, handed
    /// over at launch ([`PaconRegion::launch_armed`]). Never armed in
    /// production; one atomic load and a compare when idle.
    pub(crate) crash: CrashSwitch,
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
    /// One commit process per node, in its slot; empty once taken
    /// ([`PaconRegion::take_worker`]) or after the region stopped. A
    /// worker holds the core, so `PaconRegion`'s drop empties the slots.
    workers: Vec<Mutex<Option<CommitWorker>>>,
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
        self.wal.is_some()
    }

    /// The per-path table ([`crate::inflight`]).
    pub fn in_flight(&self) -> &InFlight {
        &self.in_flight
    }

    /// Allocate the replay identity for an op about to be published.
    /// Creations/unlinks start a new namespace generation for their path;
    /// writebacks inherit the current one. `OpId::NONE` in volatile mode.
    pub(crate) fn op_identity(&self, op: &CommitOp) -> dfs::OpId {
        if self.wal.is_none() {
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

    /// Append an identified op published on `node` to the commit log
    /// (durable mode; no-op otherwise). Hosts the harness's two client-side
    /// crash points. Callers must `note_enqueued` *before* appending: that
    /// ordering is what makes `drained()` under the WAL lock prove the
    /// log holds no unconfirmed op (see [`CommitWal::truncate_if`]).
    pub(crate) fn wal_append(
        &self,
        node: usize,
        msg: &QueueMsg,
        snapshot: Option<&[u8]>,
    ) -> FsResult<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        if self.crash.hit(CrashPoint::PreAppend) {
            return Err(CrashSwitch::error(CrashPoint::PreAppend));
        }
        let synced = wal.append_from(node, msg, snapshot)?;
        self.counters.incr("wal_appended");
        if synced {
            self.counters.incr("wal_fsyncs");
        }
        if self.crash.hit(CrashPoint::PostAppend) {
            return Err(CrashSwitch::error(CrashPoint::PostAppend));
        }
        Ok(())
    }

    /// Truncate the commit log if the region is fully drained — called
    /// after completions; two atomic loads when there is still work in
    /// flight. Hosts the post-apply/pre-truncate crash point. Returns
    /// whether this pass truncated the log (which is thus provably empty),
    /// which is when replay identities become prunable.
    pub fn maybe_truncate_wal(&self) -> bool {
        let Some(wal) = &self.wal else {
            return false;
        };
        if !self.drained() || self.crash.hit(CrashPoint::PreTruncate) {
            return false;
        }
        match wal.truncate_if(|| self.drained()) {
            Ok(true) => {
                self.counters.incr("wal_truncations");
                true
            }
            Ok(false) => false,
            Err(_) => {
                self.counters.incr("wal_errors");
                false
            }
        }
    }

    /// Unconditionally truncate the commit log (end of a successful
    /// recovery; checkpoint rollback).
    pub(crate) fn reset_wal(&self) -> FsResult<()> {
        if let Some(wal) = &self.wal {
            wal.truncate_if(|| true)?;
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
    /// published there so far ([`Outbox::post_marker`]) and pump the commit
    /// processes until every one reached its marker — under the DES, a
    /// drain charged to the barrier op's own job (DESIGN §5). The caller
    /// performs the dependent op, then completes the guard. A node that
    /// cannot take its marker fails the barrier: the guard drops, and the
    /// markers already posted are stale — the commit processes skip them.
    pub(crate) fn barrier(&self, client: u32) -> FsResult<BarrierGuard<'_>> {
        let guard = self.board.start_barrier();
        for n in 0..self.outboxes.len() {
            self.outbox(n).post_marker(self, guard.epoch(), client)?;
        }
        while !self.board.all_reached(guard.epoch()) {
            if !self.pump() {
                std::thread::yield_now();
            }
        }
        Ok(guard)
    }

    /// Step node `n`'s commit process once. `None` when the region no
    /// longer holds it (taken, or the region stopped) or someone else is
    /// stepping it; else the step and whether the worker's retry backlog
    /// is empty after it.
    pub fn step_worker(&self, n: usize) -> Option<(WorkerStep, bool)> {
        let worker = &self.workers[n];
        let mut slot = worker.try_lock()?;
        let worker = slot.as_mut()?;
        // permit_blocking: a step may fsync (WAL truncation) under its slot,
        // which only `take_worker` and teardown wait for, holding nothing,
        // and under a pumping barrier's slot, held across the truncation on
        // purpose to fence new ops, as in `PaconRegion::sync_barrier`.
        let step = syncguard::permit_blocking(|| worker.step());
        Some((step, worker.backlog_empty()))
    }

    /// Step every commit process the region holds once ([`Self::step_worker`]);
    /// true when any of them did work.
    pub fn pump(&self) -> bool {
        let mut worked = false;
        for n in 0..self.workers.len() {
            worked |= self.step_worker(n).is_some_and(|(step, _)| {
                !matches!(
                    step,
                    WorkerStep::Blocked(_)
                        | WorkerStep::Idle
                        | WorkerStep::Disconnected
                        | WorkerStep::Crashed
                )
            });
        }
        worked
    }

    /// Empty every worker slot: the workers, and the queue ends and
    /// commits they hold, are dropped.
    fn release_workers(&self) {
        for worker in &self.workers {
            let released = worker.lock().take();
            drop(released);
        }
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
    /// The commit driver thread of a launched region.
    driver: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Tells the driver to stop once a pump finds nothing to do.
    stop: Arc<AtomicBool>,
}

impl PaconRegion {
    /// Initialize the region and start its commit driver: one thread
    /// pumping the commit processes, asleep 100 µs whenever a pump finds
    /// nothing to do. Barrier ops drain by themselves; the driver makes
    /// sure that a publisher waiting on a full commit queue has a
    /// consumer. The workspace directory (and its ancestors) are created
    /// on the DFS if missing.
    pub fn launch(config: PaconConfig, dfs: &Arc<DfsCluster>) -> FsResult<Arc<Self>> {
        let region = Self::launch_paused(config, dfs)?;
        let (core, stop) = (Arc::clone(&region.core), Arc::clone(&region.stop));
        *region.driver.lock() = Some(std::thread::spawn(move || loop {
            if !core.pump() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }));
        Ok(region)
    }

    /// As [`PaconRegion::launch`] but with no driver thread: a commit
    /// process waits in its slot until a barrier op, `quiesce` or the DES
    /// steps it, or someone takes it ([`PaconRegion::take_worker`]).
    pub fn launch_paused(config: PaconConfig, dfs: &Arc<DfsCluster>) -> FsResult<Arc<Self>> {
        Self::launch_armed(config, dfs, CrashSwitch::default())
    }

    /// [`PaconRegion::launch_paused`] with the crash-kill harness's switch,
    /// the only way to arm one: it counts hits from this launch on, so a
    /// recovery's runs reach `MidBatch` and its end reaches `PreTruncate`.
    pub fn launch_armed(
        config: PaconConfig,
        dfs: &Arc<DfsCluster>,
        crash: CrashSwitch,
    ) -> FsResult<Arc<Self>> {
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

        // Durable mode: bump the incarnation, open the region's commit log
        // crash-safely, and collect surviving entries for replay.
        let (mut wal, mut recovered, mut incarnation) = (None, Vec::new(), 0u64);
        if let Some(wal_dir) = &config.wal_dir {
            std::fs::create_dir_all(wal_dir)
                .map_err(|e| FsError::Backend(format!("wal dir {}: {e}", wal_dir.display())))?;
            incarnation = bump_incarnation(wal_dir)?;
            let opened = CommitWal::open(&wal_dir.join("region.wal"), config.wal_fsync_batch)?;
            (wal, recovered) = (Some(opened.0), opened.1);
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
            wal,
            crash,
            incarnation,
            write_seq: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
            degraded: crate::degraded::DegradedState::new(),
            workers: (0..nodes)
                .map(|_| Mutex::new(level::COMMIT_WORKER, "pacon.commit.worker", None))
                .collect(),
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
        // is accepted, through node 0's worker: every mount reaches the same
        // DFS.
        if !recovered.is_empty() {
            recover(&core, &mut workers[0], recovered)?;
        }
        if core.durable() {
            // Writebacks to files created by earlier incarnations must
            // carry those files' creation generations, not 0: seed the
            // in-memory generation map from the cluster's records before
            // any client publishes.
            for (path, generation) in dfs.replay_generations_under(&core.root) {
                core.in_flight().new_generation(&path, generation);
            }
            // The earlier incarnations' log was just replayed (or found
            // empty) and reset, so the identities it could replay are
            // confirmed-and-gone: shed them from the seen-cache.
            let pruned = dfs.prune_replay_identities(&core.root, core.incarnation);
            core.counters.add("replay_pruned", pruned as u64);
        }

        // No error past this point: the workers hold the core, and only
        // the region's drop breaks that cycle.
        for (slot, worker) in core.workers.iter().zip(workers) {
            *slot.lock() = Some(worker);
        }
        Ok(Arc::new(Self {
            core,
            dfs: Arc::clone(dfs),
            mounts,
            driver: Mutex::new(level::REGION_STATE, "pacon.region.driver", None),
            stop: Arc::new(AtomicBool::new(false)),
        }))
    }

    /// Stop the commit driver once it finds nothing to do, and wait for it.
    fn join_driver(&self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::Release);
        let driver = self.driver.lock().take();
        driver.map_or(Ok(()), std::thread::JoinHandle::join)
    }

    /// Claim node `n`'s commit worker: it leaves its slot, and from then on
    /// only the caller steps it.
    pub fn take_worker(&self, n: usize) -> CommitWorker {
        self.core.workers[n].lock().take().expect("worker already claimed")
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

    /// Block until every published operation has been committed, pumping
    /// the commit processes meanwhile. Workers that were taken must be
    /// stepped by their takers.
    pub fn quiesce(&self) {
        while !self.core.drained() {
            if !self.core.pump() {
                std::thread::yield_now();
            }
        }
    }

    /// Simulate a crash: stop the commit processes immediately, dropping
    /// everything still queued. Uncommitted primary-copy state is lost,
    /// exactly the failure Section III.G's checkpoint/rollback recovers
    /// from. The slots are emptied, so nobody pumps any further.
    pub fn abort(&self) {
        self.core.release_workers();
        let _ = self.join_driver();
    }

    /// Drain the queues and stop the commit driver.
    pub fn shutdown(&self) -> FsResult<()> {
        self.quiesce();
        self.join_driver().map_err(|_| FsError::Backend("commit driver panicked".into()))
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
        // drained durable region can shed its log.
        // lint: allow(hold-across-blocking, WAL truncation must run inside the barrier: the held slot fences new ops)
        if self.core.maybe_truncate_wal() {
            // The log is empty and the barrier fences new publishes, so
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

/// Recovery (DESIGN §5.3): the log's surviving entries re-enter one
/// worker's commit route as ops published and not yet committed, in
/// append order, which is publish order across every node: runs of up to
/// `commit_batch_size` entries, in log order per path, or, with none free
/// to go, a retry of an entry waiting in the backlog for a prerequisite.
/// Then the log is truncated, once. Every apply is idempotent, so a crash
/// during recovery (the launch's switch tripping in a run, or just before
/// the truncation) only means the next launch replays the same log and the
/// seen-cache no-ops the prefix that landed. An error no wait resolves
/// fails the launch the same way.
fn recover(core: &RegionCore, worker: &mut CommitWorker, log: Vec<WalEntry>) -> FsResult<()> {
    let total = log.len() as u64;
    core.counters.add("wal_replayed", total);
    // The births and unlink stamps the route records order before every
    // new op.
    let newest = log.iter().map(|e| e.msg.timestamp).max().unwrap_or(0);
    core.clock.fetch_max(newest, Ordering::Relaxed);
    // One op more than the log holds, completed after the last run: the
    // route's `maybe_truncate_wal` never finds the region drained.
    core.enqueued.fetch_add(total + 1, Ordering::Relaxed);
    let mut log = VecDeque::from(log);
    while !log.is_empty() || !worker.backlog_empty() {
        worker.recover(&mut log, core.config.commit_batch_size)?;
    }
    core.note_completed();
    let applied = core.counters.get("committed");
    core.counters.add("recovery_applied", applied);
    core.counters.add("recovery_skipped", total - applied);
    if core.crash.hit(CrashPoint::PreTruncate) {
        return Err(CrashSwitch::error(CrashPoint::PreTruncate));
    }
    core.reset_wal()
}

impl Drop for PaconRegion {
    fn drop(&mut self) {
        let _ = self.join_driver();
        self.core.release_workers();
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

    /// Recover `log` through the region's own node-0 worker, as a launch does.
    fn recover_log(region: &PaconRegion, log: Vec<WalEntry>) {
        recover(region.core(), &mut region.take_worker(0), log).unwrap();
        assert!(region.core().drained(), "every recovered op completed");
    }

    fn mkdir(path: &str) -> WalEntry {
        plain_entry(CommitOp::Mkdir { path: path.into(), mode: 0o755 })
    }

    fn create(path: &str) -> WalEntry {
        plain_entry(CommitOp::Create { path: path.into(), mode: 0o644 })
    }

    /// Regression: recovery must only abandon the entry whose
    /// prerequisite is truly lost. Here `create /app/a/f` waits on
    /// `mkdir /app/a`, logged *behind* the unrecoverable `mkdir /lost/x`.
    #[test]
    fn stalled_replay_drops_only_unrecoverable_heads() {
        let (dfs, region) = launch("/app");
        recover_log(&region, vec![create("/app/a/f"), mkdir("/lost/x"), mkdir("/app/a")]);
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
        // Each create waits on a mkdir logged behind both, in the other
        // order. The creates wait in the backlog while the mkdirs land:
        // nothing is sacrificed.
        let log = vec![create("/app/x/f"), create("/app/y/g"), mkdir("/app/y"), mkdir("/app/x")];
        recover_log(&region, log);
        let core = region.core();
        assert_eq!(core.counters.get("recovery_skipped"), 0);
        assert_eq!(core.counters.get("recovery_applied"), 4);
    }

    /// A batched run holds a create whose parent's mkdir is logged behind
    /// it: the create goes to the worker's backlog alone, the rest of the
    /// run lands, and the create follows its parent.
    #[test]
    fn a_batched_run_waits_out_a_parent_logged_behind_it() {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let config = PaconConfig::new("/app", Topology::new(2, 2), Credentials::new(1, 1))
            .with_commit_batch(16);
        let region = PaconRegion::launch_paused(config, &dfs).unwrap();
        let log = vec![
            create("/app/f0"),
            create("/app/d/f"),
            create("/app/f1"),
            create("/app/g0"),
            mkdir("/app/d"),
        ];
        recover_log(&region, log);
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
            recover_log(&region, vec![dup, unlink]);
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
            recover_log(&region, log);
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
        let log = vec![create("/app/f"), mkdir("/app/d")];
        let err = recover(region.core(), &mut region.take_worker(0), log).unwrap_err();
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
