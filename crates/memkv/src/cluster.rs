//! Cluster facade, epoch'd routing and the per-node client handle.
//!
//! A [`KvCluster`] owns one [`Shard`] per node of the topology (the paper
//! launches one Memcached instance per application node). A [`KvClient`]
//! is bound to the node its owner runs on and charges simulated costs for
//! every request: a same-node access pays `net_local`, a remote shard pays
//! `net_hop_remote`, and every request pays the shard's `kv_op` service
//! (plus a per-KiB payload charge for inline small-file data).
//!
//! # Live membership (elastic resharding)
//!
//! Ring membership is a dynamic subset of the provisioned nodes:
//! [`KvCluster::begin_join`] / [`KvCluster::begin_leave`] start an epoch'd
//! migration that moves only the keys whose rendezvous owner changes
//! (those the joiner wins, or those the leaver held), driven forward in
//! bounded batches by
//! [`KvCluster::migration_step`]. Clients keep reading and writing
//! throughout:
//!
//! * every client op routes through the [`EpochRouter`] — a read lock
//!   (level `ROUTE`, just outside `SHARD`) held across the shard ops it
//!   routes, so a membership flip is atomic w.r.t. in-flight ops;
//! * a migrated key is removed from its source shard behind a *moved-out
//!   marker* and installed on the new owner **with its source version**
//!   ([`Shard::install`] lifts the destination's version clock), so CAS
//!   tokens handed out before the move keep working after it;
//! * reads try the post-migration owner first and fall back to the
//!   pre-migration owner for not-yet-moved ranges (a moved-out marker
//!   makes the new owner's miss authoritative);
//! * writes land on the pre-migration owner until the key moves, then on
//!   the new owner — decided per-op under the route lock, so no write is
//!   ever applied to a shard that has ceded the key;
//! * CAS is epoch-fenced ([`KvClient::cas`]): it rejects writers whose
//!   routing view predates a membership event with
//!   [`KvError::WrongEpoch`]; the caller re-reads (fresh version + epoch)
//!   and retries — versions survive migration, so the retry lands.
//!
//! A node crash while a migration is active resolves it deterministically:
//! a **join** aborts (the joiner is wiped, markers dropped, the old ring
//! restored — moved keys degrade to cache misses, never stale hits); a
//! **leave** force-completes (authority flips to the target ring; unmoved
//! keys degrade to misses). Either way the epoch advances and the cluster
//! keeps serving.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use simnet::{charge, LatencyProfile, NodeId, Station, Topology};
use syncguard::{level, RwLock};

use crate::ring::Ring;
use crate::shard::{CasOutcome, CondOutcome, CondWrite, KeyMoved, Shard, ShardStats, Value};

/// A cache request that could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The shard owning the key is crashed. The ring deliberately keeps
    /// it a member — re-hashing elsewhere would silently serve
    /// stale/missing data — so callers must retry or degrade.
    NodeDown(NodeId),
    /// An epoch-fenced operation carried a routing epoch older than the
    /// cluster's current one: ring membership changed since the caller
    /// read its version. Refresh (re-read value + epoch) and retry — the
    /// moved entry keeps its version, so a refreshed CAS still lands.
    WrongEpoch { seen: u64, current: u64 },
}

/// Liveness of one cache node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    Up,
    /// Crashed: shard state wiped, requests surface [`KvError::NodeDown`].
    Down,
}

/// Which membership change a live migration is performing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    /// `node` is joining the ring; remapped ranges flow *to* it.
    Join(NodeId),
    /// `node` is leaving the ring; its ranges flow to the survivors.
    Leave(NodeId),
}

impl MigrationKind {
    /// The node joining or leaving.
    pub fn node(&self) -> NodeId {
        match *self {
            MigrationKind::Join(n) | MigrationKind::Leave(n) => n,
        }
    }
}

/// In-flight state of one membership migration.
struct MigrationState {
    kind: MigrationKind,
    /// Ring after the migration completes.
    target: Arc<Ring>,
    /// Membership after the migration completes (sorted).
    members_after: Vec<NodeId>,
    /// Keys still to move (re-filled by straggler sweeps until clean).
    queue: Vec<Vec<u8>>,
    cursor: usize,
}

/// Routing view: current membership, the authoritative ring(s) and any
/// in-flight migration.
struct RouteState {
    /// Current ring membership (sorted subset of the provisioned nodes).
    members: Vec<NodeId>,
    /// Ring over `members`; during a migration this is the
    /// *pre-migration* ring and the target ring lives in `migration`.
    stable: Arc<Ring>,
    migration: Option<MigrationState>,
}

/// Per-key routing decision made under the route lock.
enum Target {
    /// No migration, or the key's owner is unchanged by it.
    Direct(NodeId),
    /// Mid-migration and ownership differs: `new` is the post-migration
    /// owner (tried first by reads), `old` the pre-migration owner.
    Migrating { old: NodeId, new: NodeId },
}

/// The epoch'd two-ring router: owns ring membership, the live-migration
/// state and the monotonic ring epoch. Every client op holds its read
/// lock across the shard access it routes; membership events take the
/// write lock, so a flip never splits an op.
pub struct EpochRouter {
    state: RwLock<RouteState>,
    /// Bumped under the write lock on *any* membership event: crash,
    /// restart, migration begin, complete, abort. Monotonic.
    epoch: AtomicU64,
}

impl EpochRouter {
    fn new(members: Vec<NodeId>) -> Self {
        let stable = Arc::new(Ring::new(&members));
        Self {
            state: RwLock::new(
                level::ROUTE,
                "memkv.route",
                RouteState { members, stable, migration: None },
            ),
            epoch: AtomicU64::new(0),
        }
    }

    /// Current ring epoch (monotonic across membership events).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

/// Snapshot of the reshard counters (see [`KvCluster::reshard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReshardStats {
    /// Migrations started (`begin_join` + `begin_leave`).
    pub reshard_started: u64,
    /// Keys moved to their new owner across all migrations.
    pub keys_migrated: u64,
    /// Join migrations aborted by a crash (old ring restored).
    pub migration_aborts: u64,
    /// Leave migrations force-completed by a crash (target ring adopted
    /// with the unmoved remainder degraded to misses).
    pub forced_completes: u64,
}

/// Result of a batched request, fault-isolated per node group: what the
/// healthy node groups answered survives even when another group's node
/// is down mid-batch.
#[derive(Debug, Clone)]
pub struct Partial<T> {
    /// Per input item, in input order. `None` = a miss (of a get) *or* no
    /// answer (the item's index then appears under `failed`).
    pub results: Vec<Option<T>>,
    /// Item indices that could not be served, grouped by the down node
    /// that owned them. Empty = the batch completed in full.
    pub failed: Vec<(NodeId, Vec<usize>)>,
    /// Node requests sent: one per owning node group, plus one per
    /// mid-migration key.
    pub requests: usize,
}

impl<T> Partial<T> {
    /// Did every node group answer?
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    fn fail(&mut self, node: NodeId, i: usize) {
        match self.failed.iter_mut().find(|(n, _)| *n == node) {
            Some((_, idxs)) => idxs.push(i),
            None => self.failed.push((node, vec![i])),
        }
    }
}

/// Item indices grouped by the shard node that owns them.
type NodeGroups = Vec<(NodeId, Vec<usize>)>;

/// [`KvClient::multi_gets`]: per key its value and CAS version.
pub type PartialMultiGet = Partial<(Value, u64)>;

/// [`KvClient::multi_write`]: per item what its shard did with it.
pub type PartialMultiWrite = Partial<CondOutcome>;

/// A distributed cache: one shard per provisioned node plus the epoch'd
/// router over the current ring membership.
pub struct KvCluster {
    shards: Vec<Arc<Shard>>,
    node_ids: Vec<NodeId>,
    router: EpochRouter,
    profile: Arc<LatencyProfile>,
    /// Offset added to shard indices when charging `Station::KvShard` —
    /// distinct cache clusters (one per consistent region) must map to
    /// distinct stations in the queueing model.
    station_base: u32,
    /// Per-node liveness (index-aligned with `node_ids`/`shards`).
    up: Vec<AtomicBool>,
    /// Extra virtual ns charged per access to a slowed node (fault-plane
    /// `SlowCacheNode`); 0 = healthy.
    slowdown_ns: Vec<AtomicU64>,
    // Reshard counters (snapshot via `reshard_stats`).
    reshard_started: AtomicU64,
    keys_migrated: AtomicU64,
    migration_aborts: AtomicU64,
    forced_completes: AtomicU64,
}

impl KvCluster {
    /// Spin up one shard per node of `topology`.
    pub fn new(topology: Topology, profile: Arc<LatencyProfile>) -> Arc<Self> {
        Self::with_options(topology, profile, 0)
    }

    /// Every provisioned node starts on the ring; `station_base` offsets
    /// the shards' station ids (used when several cache clusters coexist
    /// in one simulation).
    pub fn with_options(
        topology: Topology,
        profile: Arc<LatencyProfile>,
        station_base: u32,
    ) -> Arc<Self> {
        let node_ids: Vec<NodeId> = topology.node_ids().collect();
        let shards: Vec<Arc<Shard>> = node_ids.iter().map(|_| Arc::new(Shard::new())).collect();
        let up = node_ids.iter().map(|_| AtomicBool::new(true)).collect();
        let slowdown_ns = node_ids.iter().map(|_| AtomicU64::new(0)).collect();
        Arc::new(Self {
            shards,
            router: EpochRouter::new(node_ids.clone()),
            node_ids,
            profile,
            station_base,
            up,
            slowdown_ns,
            reshard_started: AtomicU64::new(0),
            keys_migrated: AtomicU64::new(0),
            migration_aborts: AtomicU64::new(0),
            forced_completes: AtomicU64::new(0),
        })
    }

    /// Client handle for a process living on `local` node.
    pub fn client(self: &Arc<Self>, local: NodeId) -> KvClient {
        assert!(
            self.node_ids.contains(&local),
            "node {local:?} is not part of this cache cluster"
        );
        KvClient { cluster: Arc::clone(self), local: Some(local) }
    }

    /// Client handle for a process *outside* this cluster's nodes (merged
    /// consistent regions, Section III.D-4): every access pays the remote
    /// hop.
    pub fn remote_client(self: &Arc<Self>) -> KvClient {
        KvClient { cluster: Arc::clone(self), local: None }
    }

    /// Which node's shard stores `key` — the **post-migration** owner
    /// while a reshard is in flight (where the key will live). Advisory
    /// outside the route lock: re-check [`ring_epoch`](Self::ring_epoch)
    /// before acting on a cached answer.
    pub fn shard_node(&self, key: &[u8]) -> NodeId {
        let s = self.router.state.read();
        match &s.migration {
            Some(m) => m.target.node_for(key),
            None => s.stable.node_for(key),
        }
    }

    fn node_index(&self, node: NodeId) -> usize {
        self.node_ids
            .iter()
            .position(|n| *n == node)
            .expect("ring returned a node outside the cluster")
    }

    fn shard(&self, node: NodeId) -> &Shard {
        &self.shards[self.node_index(node)]
    }

    fn node_up(&self, node: NodeId) -> bool {
        self.up[self.node_index(node)].load(Ordering::Acquire)
    }

    /// Per-key routing decision; must be called under the route lock.
    fn decide(&self, s: &RouteState, key: &[u8]) -> Target {
        match &s.migration {
            None => Target::Direct(s.stable.node_for(key)),
            Some(m) => {
                let old = s.stable.node_for(key);
                let new = m.target.node_for(key);
                if old == new {
                    Target::Direct(old)
                } else {
                    Target::Migrating { old, new }
                }
            }
        }
    }

    /// Crash `node`: its shard state is wiped immediately (volatile
    /// cache memory dies with the process — data *and* moved-out markers)
    /// and every request routed to it surfaces [`KvError::NodeDown`]
    /// until [`restart`](Self::restart). The ring keeps it a member, so
    /// no key silently re-hashes to a surviving shard. Bumps
    /// the ring epoch.
    ///
    /// A crash while a migration is in flight resolves it
    /// deterministically: a join **aborts** (joiner wiped, markers
    /// dropped, old ring restored), a leave **force-completes**
    /// (authority flips to the target ring; the unmoved remainder
    /// degrades to cache misses). Moved or unmoved, no key can be served
    /// stale afterwards — at most it misses and reloads.
    pub fn crash(&self, node: NodeId) {
        let mut guard = self.router.state.write();
        let idx = self.node_index(node);
        self.shards[idx].clear();
        self.up[idx].store(false, Ordering::Release);
        let s = &mut *guard;
        if let Some(m) = &s.migration {
            match m.kind {
                MigrationKind::Join(j) => {
                    // Abort: wipe the joiner so partial imports can never
                    // resurface on a later join, drop every marker so the
                    // old owners are authoritative again. Keys already
                    // moved degrade to misses — never stale hits.
                    self.shards[self.node_index(j)].clear();
                    for sh in &self.shards {
                        sh.clear_moved();
                    }
                    s.migration = None;
                    self.migration_aborts.fetch_add(1, Ordering::Relaxed);
                }
                MigrationKind::Leave(_) => {
                    // Force-complete: adopt the target ring now. Unmoved
                    // keys sit on the (off-ring) leaver and simply miss.
                    self.finish_migration(s);
                    self.forced_completes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.router.bump();
    }

    /// Restart a crashed node with a **cold** cache (the wipe happened at
    /// crash time; cleared again here for belt-and-braces). Bumps the
    /// ring epoch. An in-flight migration keeps running — a restart only
    /// adds back an empty, healthy shard.
    pub fn restart(&self, node: NodeId) {
        let _guard = self.router.state.write();
        let idx = self.node_index(node);
        self.shards[idx].clear();
        self.up[idx].store(true, Ordering::Release);
        self.router.bump();
    }

    // ---- live membership -------------------------------------------------

    /// Start migrating `node` **onto** the ring. Returns `false` (no-op)
    /// if a migration is already in flight, the node is not provisioned,
    /// already a member, or down. Bumps the ring epoch; drive the
    /// transfer with [`migration_step`](Self::migration_step).
    pub fn begin_join(&self, node: NodeId) -> bool {
        let mut guard = self.router.state.write();
        let s = &mut *guard;
        if s.migration.is_some()
            || !self.node_ids.contains(&node)
            || s.members.contains(&node)
            || !self.node_up(node)
        {
            return false;
        }
        // The joiner starts cold: residue from an earlier epoch would
        // shadow migrated values (reads try the new owner first).
        self.shards[self.node_index(node)].clear();
        let mut members_after = s.members.clone();
        members_after.push(node);
        members_after.sort_unstable_by_key(|n| n.0);
        let target = Arc::new(Ring::new(&members_after));
        let queue = self.enumerate_moves(s, &target);
        s.migration = Some(MigrationState {
            kind: MigrationKind::Join(node),
            target,
            members_after,
            queue,
            cursor: 0,
        });
        self.reshard_started.fetch_add(1, Ordering::Relaxed);
        self.router.bump();
        true
    }

    /// Start migrating `node` **off** the ring. Returns `false` (no-op)
    /// if a migration is already in flight, the node is not a member, or
    /// it is the last member. Leaving a *down* node is allowed — that is
    /// how a dead node is deprovisioned (its shard is empty, so the
    /// migration completes on the first step).
    pub fn begin_leave(&self, node: NodeId) -> bool {
        let mut guard = self.router.state.write();
        let s = &mut *guard;
        if s.migration.is_some() || !s.members.contains(&node) || s.members.len() <= 1 {
            return false;
        }
        let members_after: Vec<NodeId> =
            s.members.iter().copied().filter(|m| *m != node).collect();
        let target = Arc::new(Ring::new(&members_after));
        let queue = self.enumerate_moves(s, &target);
        s.migration = Some(MigrationState {
            kind: MigrationKind::Leave(node),
            target,
            members_after,
            queue,
            cursor: 0,
        });
        self.reshard_started.fetch_add(1, Ordering::Relaxed);
        self.router.bump();
        true
    }

    /// Keys whose ownership differs between the current stable ring and
    /// `target`, enumerated from the shards that currently own them.
    fn enumerate_moves(&self, s: &RouteState, target: &Ring) -> Vec<Vec<u8>> {
        let mut moves = Vec::new();
        for &m in &s.members {
            for key in self.shards[self.node_index(m)].keys_with_prefix(b"") {
                if s.stable.node_for(&key) == m && target.node_for(&key) != m {
                    moves.push(key);
                }
            }
        }
        moves
    }

    /// Move up to `max_keys` keys of the in-flight migration to their new
    /// owners; returns the number moved. When the queue drains, stragglers
    /// (keys written to old owners after enumeration) are swept until a
    /// sweep comes back clean — then the migration **completes**: markers
    /// drop, the target ring becomes stable, a leaver's shard is wiped,
    /// and the epoch bumps. Each transferred key charges the destination
    /// shard `kv_migrate_per_key` (+ payload) of service.
    pub fn migration_step(&self, max_keys: usize) -> usize {
        let mut guard = self.router.state.write();
        let mut moved = 0usize;
        loop {
            let s = &mut *guard;
            let Some(m) = s.migration.as_mut() else { break };
            if m.cursor >= m.queue.len() {
                let target = Arc::clone(&m.target);
                let stragglers = self.enumerate_moves(s, &target);
                let m = s.migration.as_mut().expect("checked above");
                if stragglers.is_empty() {
                    self.finish_migration(s);
                    break;
                }
                m.queue = stragglers;
                m.cursor = 0;
                continue;
            }
            if moved >= max_keys {
                break;
            }
            let key = std::mem::take(&mut m.queue[m.cursor]);
            m.cursor += 1;
            let old = s.stable.node_for(&key);
            let new = m.target.node_for(&key);
            // Source down: the entry already died with the crash-wipe.
            if !self.node_up(old) {
                continue;
            }
            let Some((value, version)) = self.shard(old).migrate_out(&key) else { continue };
            // Destination down: drop the value (it would be unreachable
            // there anyway); the marker keeps the old owner honest.
            if self.node_up(new) {
                let p = &self.profile;
                let payload = (value.len() as u64).div_ceil(1024) * p.kv_payload_per_kib;
                charge(
                    Station::KvShard(self.station_base + new.0),
                    p.kv_migrate_per_key + payload,
                );
                self.shard(new).install(&key, &value, version);
            }
            moved += 1;
            self.keys_migrated.fetch_add(1, Ordering::Relaxed);
        }
        moved
    }

    /// Adopt the target ring: drop every moved-out marker, wipe a leaving
    /// node's shard, install the new membership and bump the epoch.
    /// Called with the route write lock held.
    fn finish_migration(&self, s: &mut RouteState) {
        let m = s.migration.take().expect("no migration to finish");
        for sh in &self.shards {
            sh.clear_moved();
        }
        if let MigrationKind::Leave(l) = m.kind {
            self.shards[self.node_index(l)].clear();
        }
        s.members = m.members_after;
        s.stable = m.target;
        self.router.bump();
    }

    /// Is a membership migration in flight?
    pub fn migration_active(&self) -> bool {
        self.router.state.read().migration.is_some()
    }

    /// The node joining or leaving, while a migration is in flight.
    pub fn migrating_node(&self) -> Option<NodeId> {
        self.router.state.read().migration.as_ref().map(|m| m.kind.node())
    }

    /// Current ring membership (sorted; a subset of [`nodes`](Self::nodes)).
    pub fn members(&self) -> Vec<NodeId> {
        self.router.state.read().members.clone()
    }

    /// Reshard counter snapshot.
    pub fn reshard_stats(&self) -> ReshardStats {
        ReshardStats {
            reshard_started: self.reshard_started.load(Ordering::Relaxed),
            keys_migrated: self.keys_migrated.load(Ordering::Relaxed),
            migration_aborts: self.migration_aborts.load(Ordering::Relaxed),
            forced_completes: self.forced_completes.load(Ordering::Relaxed),
        }
    }

    // ---------------------------------------------------------------------

    /// Liveness of `node`.
    pub fn node_status(&self, node: NodeId) -> NodeStatus {
        if self.up[self.node_index(node)].load(Ordering::Acquire) {
            NodeStatus::Up
        } else {
            NodeStatus::Down
        }
    }

    /// Monotonic counter bumped on every membership event: crash,
    /// restart, migration begin/complete/abort.
    pub fn ring_epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// Fault-plane slow-down: every access to `node` charges `extra_ns`
    /// additional virtual ns of shard service (0 restores full speed).
    pub fn set_slowdown(&self, node: NodeId, extra_ns: u64) {
        self.slowdown_ns[self.node_index(node)].store(extra_ns, Ordering::Release);
    }

    /// Total bytes across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.used_bytes()).sum()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys with `prefix`, across shards, sorted (management surface
    /// for region eviction / subtree cleanup; not charged — callers charge
    /// the individual deletions they then perform). One range scan per
    /// shard: the first ordered query builds the shards' key indexes.
    pub fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut all: Vec<Vec<u8>> = Vec::new();
        for s in &self.shards {
            all.extend(s.keys_with_prefix(prefix));
        }
        all.sort_unstable();
        all
    }

    /// The smallest key `>= key` in byte order across all shards (same
    /// management surface, same index): where a scan that resumes at
    /// `key` finds its next resident entry.
    pub fn first_key_at_or_after(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shards.iter().filter_map(|s| s.first_key_at_or_after(key)).min()
    }

    /// Has any shard materialised its ordered key index? (Debug surface,
    /// see [`Shard::index_built`].)
    pub fn index_built(&self) -> bool {
        self.shards.iter().any(|s| s.index_built())
    }

    /// Wipe every shard (failure-recovery cache rebuild).
    pub fn clear(&self) {
        for s in &self.shards {
            s.clear();
        }
    }

    /// Aggregated shard statistics.
    pub fn stats(&self) -> ShardStats {
        let mut agg = ShardStats::default();
        for s in &self.shards {
            let st = s.stats();
            agg.gets += st.gets;
            agg.hits += st.hits;
            agg.sets += st.sets;
            agg.cas_ok += st.cas_ok;
            agg.cas_conflicts += st.cas_conflicts;
            agg.deletes += st.deletes;
            agg.multi_gets += st.multi_gets;
            agg.multi_keys += st.multi_keys;
            agg.multi_writes += st.multi_writes;
            agg.multi_write_keys += st.multi_write_keys;
            agg.bytes_referenced += st.bytes_referenced;
            agg.scanned_keys += st.scanned_keys;
        }
        agg
    }

    pub fn profile(&self) -> &Arc<LatencyProfile> {
        &self.profile
    }

    /// Provisioned nodes backing this cluster (ring members *and* spares).
    pub fn nodes(&self) -> &[NodeId] {
        &self.node_ids
    }
}

/// Per-node client handle; all methods charge simulated costs.
#[derive(Clone)]
pub struct KvClient {
    cluster: Arc<KvCluster>,
    /// `None` for clients outside the cluster (always-remote access).
    local: Option<NodeId>,
}

impl KvClient {
    /// Charge the network hop to `target`.
    fn charge_hop(&self, target: NodeId) {
        let p = &self.cluster.profile;
        let hop = match self.local {
            Some(local) if target == local => p.net_local,
            _ => p.net_hop_remote,
        };
        charge(Station::Network, hop);
    }

    /// Charge the network hop, check liveness, then charge shard service
    /// (with any fault-plane slow-down). A request to a crashed node pays
    /// the hop — the packet travelled before the timeout — but no shard
    /// service, and reports the down node (the only way a routed shard
    /// access can fail).
    fn access(&self, target: NodeId, payload_len: usize) -> Result<(), NodeId> {
        self.charge_hop(target);
        let idx = self.cluster.node_index(target);
        if !self.cluster.up[idx].load(Ordering::Acquire) {
            return Err(target);
        }
        let p = &self.cluster.profile;
        let extra = self.cluster.slowdown_ns[idx].load(Ordering::Acquire);
        let payload = (payload_len as u64).div_ceil(1024) * p.kv_payload_per_kib;
        charge(
            Station::KvShard(self.cluster.station_base + target.0),
            p.kv_op + payload + extra,
        );
        Ok(())
    }

    /// Write target for `key` under the route lock: the pre-migration
    /// owner until the key moves (the moved-out marker flips authority),
    /// then the post-migration owner. Marker state cannot change while
    /// the route read lock is held (migration steps take it exclusively).
    fn write_target(&self, s: &RouteState, key: &[u8]) -> NodeId {
        match self.cluster.decide(s, key) {
            Target::Direct(n) => n,
            Target::Migrating { old, new } => {
                // A down pre-migration owner cannot serve the write (and
                // its markers died with it): route to the new owner.
                if !self.cluster.node_up(old) || self.cluster.shard(old).is_moved(key) {
                    new
                } else {
                    old
                }
            }
        }
    }

    /// Migration-window read: post-migration owner first (a hit there is
    /// always newest), pre-migration owner as fallback; its moved-out
    /// marker makes the new owner's miss authoritative.
    fn get_migrating(
        &self,
        old: NodeId,
        new: NodeId,
        key: &[u8],
    ) -> Result<Option<(Value, u64)>, NodeId> {
        self.access(new, 0)?;
        if let Some(hit) = self.cluster.shard(new).get(key) {
            return Ok(Some(hit));
        }
        self.access(old, 0)?;
        match self.cluster.shard(old).get_unless_moved(key) {
            Ok(v) => Ok(v),
            Err(KeyMoved) => Ok(None),
        }
    }

    /// The single-key `gets` under route state `s`: hop + `kv_op`, no
    /// payload term, counted as a shard `gets`.
    fn get_at(&self, s: &RouteState, key: &[u8]) -> Result<Option<(Value, u64)>, NodeId> {
        match self.cluster.decide(s, key) {
            Target::Direct(n) => {
                self.access(n, 0)?;
                Ok(self.cluster.shard(n).get(key))
            }
            Target::Migrating { old, new } => self.get_migrating(old, new, key),
        }
    }

    /// `gets`: value and CAS version.
    pub fn get(&self, key: &[u8]) -> Result<Option<(Value, u64)>, KvError> {
        self.get_at(&self.cluster.router.state.read(), key).map_err(KvError::NodeDown)
    }

    /// Batched `gets`: group keys by owning shard node and pay **one**
    /// network hop plus one batched shard service per node group instead
    /// of a full round trip per key (the read-side analogue of group
    /// commit). Results are in input order; a missing key yields `None`.
    ///
    /// Fault-isolated per node group: every healthy group's results are
    /// returned even when another group's node is down mid-batch — the
    /// unfetched keys are reported per down node instead of poisoning
    /// the whole batch. A key in a mid-migration range is read on its
    /// own, by the single-key form — the documented read amplification
    /// of a live reshard.
    pub fn multi_gets(&self, keys: &[&[u8]]) -> PartialMultiGet {
        let s = self.cluster.router.state.read();
        let (groups, migrating) = self.group_by_owner(&s, keys.iter().copied());
        let requests = groups.len() + migrating.len();
        let mut out = Partial { results: vec![None; keys.len()], failed: Vec::new(), requests };
        for (node, idxs) in &groups {
            self.charge_hop(*node);
            if !self.cluster.node_up(*node) {
                idxs.iter().for_each(|&i| out.fail(*node, i));
                continue;
            }
            let batch: Vec<&[u8]> = idxs.iter().map(|&i| keys[i]).collect();
            let results = self.cluster.shard(*node).get_many(&batch);
            // The payload is what came back.
            let payload: usize = results.iter().flatten().map(|(v, _)| v.len()).sum();
            self.charge_batch(*node, idxs.len(), payload);
            for (&i, r) in idxs.iter().zip(results) {
                out.results[i] = r;
            }
        }
        for (i, _, _) in migrating {
            match self.get_at(&s, keys[i]) {
                Ok(v) => out.results[i] = v,
                Err(down) => out.fail(down, i),
            }
        }
        out
    }

    /// Batched epoch-fenced conditional store, the write-side counterpart
    /// of [`multi_gets`](Self::multi_gets): each item CASes a value over,
    /// or deletes, the record at the version a `gets` returned
    /// ([`CondWrite`]). One network hop and one batched shard service per
    /// owning node, charged as a batched read is; within a node group the
    /// items apply in input order under one shard lock, exactly as the
    /// sequential [`cas`](Self::cas) / versioned [`delete`](Self::delete)
    /// would. Outcomes are in input order.
    ///
    /// Fenced as a whole: one `seen_epoch` (observed before the reads
    /// that produced the versions) covers every item, and a membership
    /// change since rejects the batch with [`KvError::WrongEpoch`] before
    /// any shard applies anything. Otherwise fault-isolated per node
    /// group like `multi_gets`; keys in mid-migration ranges take the
    /// single-key write route.
    pub fn multi_write(
        &self,
        items: &[CondWrite<'_>],
        seen_epoch: u64,
    ) -> Result<PartialMultiWrite, KvError> {
        let s = self.cluster.router.state.read();
        let (groups, migrating) = self.group_by_owner(&s, items.iter().map(|w| w.key));
        let current = self.cluster.router.epoch();
        if seen_epoch != current {
            // Every request travelled before the fence rejected it.
            for (node, _) in &groups {
                self.charge_hop(*node);
            }
            for &(i, ..) in &migrating {
                self.charge_hop(self.write_target(&s, items[i].key));
            }
            return Err(KvError::WrongEpoch { seen: seen_epoch, current });
        }
        let requests = groups.len() + migrating.len();
        let mut out = Partial { results: vec![None; items.len()], failed: Vec::new(), requests };
        for (node, idxs) in &groups {
            self.charge_hop(*node);
            if !self.cluster.node_up(*node) {
                idxs.iter().for_each(|&i| out.fail(*node, i));
                continue;
            }
            let batch: Vec<CondWrite<'_>> = idxs.iter().map(|&i| items[i]).collect();
            // The payload is what was sent.
            let payload: usize = batch.iter().filter_map(|w| w.value).map(<[u8]>::len).sum();
            self.charge_batch(*node, idxs.len(), payload);
            for (&i, r) in idxs.iter().zip(self.cluster.shard(*node).write_many(&batch)) {
                out.results[i] = Some(r);
            }
        }
        for (i, ..) in migrating {
            let w = items[i];
            let n = self.write_target(&s, w.key);
            match self.access(n, w.value.map_or(0, <[u8]>::len)) {
                Ok(()) => out.results[i] = Some(self.cluster.shard(n).write_one(&w)),
                Err(down) => out.fail(down, i),
            }
        }
        Ok(out)
    }

    /// Group item indices by owning node under the route lock, in
    /// first-seen order; mid-migration keys come back apart, with both
    /// owners. Node counts are small (one per cluster node), so a linear
    /// scan beats a hash map here.
    fn group_by_owner<'k>(
        &self,
        s: &RouteState,
        keys: impl Iterator<Item = &'k [u8]>,
    ) -> (NodeGroups, Vec<(usize, NodeId, NodeId)>) {
        let mut groups = NodeGroups::new();
        let mut migrating = Vec::new();
        for (i, key) in keys.enumerate() {
            match self.cluster.decide(s, key) {
                Target::Direct(node) => match groups.iter_mut().find(|(n, _)| *n == node) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((node, vec![i])),
                },
                Target::Migrating { old, new } => migrating.push((i, old, new)),
            }
        }
        (groups, migrating)
    }

    /// Shard service of one batched request of `items` keys moving
    /// `payload` bytes: one request decode (`kv_op`), a marginal
    /// `kv_multi_per_key` per extra key, the payload per KiB, and any
    /// fault-plane slow-down.
    fn charge_batch(&self, node: NodeId, items: usize, payload: usize) {
        let p = &self.cluster.profile;
        let extra = self.cluster.slowdown_ns[self.cluster.node_index(node)].load(Ordering::Acquire);
        let payload_ns = (payload as u64).div_ceil(1024) * p.kv_payload_per_kib;
        let service = p.kv_op + (items as u64 - 1) * p.kv_multi_per_key + payload_ns + extra;
        charge(Station::KvShard(self.cluster.station_base + node.0), service);
    }

    /// Unconditional store; returns the new version.
    pub fn set(&self, key: &[u8], value: &[u8]) -> Result<u64, KvError> {
        let s = self.cluster.router.state.read();
        let n = self.write_target(&s, key);
        self.access(n, value.len()).map_err(KvError::NodeDown)?;
        Ok(self.cluster.shard(n).set(key, value))
    }

    /// Store if absent; `None` when the key already exists.
    pub fn add(&self, key: &[u8], value: &[u8]) -> Result<Option<u64>, KvError> {
        let s = self.cluster.router.state.read();
        let n = self.write_target(&s, key);
        self.access(n, value.len()).map_err(KvError::NodeDown)?;
        Ok(self.cluster.shard(n).add(key, value))
    }

    /// Epoch-fenced check-and-swap: rejects with [`KvError::WrongEpoch`]
    /// when ring membership changed since the caller read `seen_epoch`
    /// (alongside the version it is CASing against). The fence closes the
    /// stale-owner window: a CAS routed under an old view can never land
    /// on a shard that has since ceded the key. On `WrongEpoch`, re-read
    /// (fresh value, version **and** epoch) and retry — migration
    /// preserves versions, so an otherwise-valid retry lands.
    pub fn cas(
        &self,
        key: &[u8],
        expected_version: u64,
        value: &[u8],
        seen_epoch: u64,
    ) -> Result<CasOutcome, KvError> {
        let s = self.cluster.router.state.read();
        let current = self.cluster.router.epoch();
        let n = self.write_target(&s, key);
        if seen_epoch != current {
            // The request travelled before the fence rejected it.
            self.charge_hop(n);
            return Err(KvError::WrongEpoch { seen: seen_epoch, current });
        }
        self.access(n, value.len()).map_err(KvError::NodeDown)?;
        Ok(self.cluster.shard(n).cas(key, expected_version, value))
    }

    /// Delete — with `expected_version`, only the record a `get` returned
    /// at that version ([`Shard::delete`]); true if a record was removed.
    pub fn delete(&self, key: &[u8], expected_version: Option<u64>) -> Result<bool, KvError> {
        let s = self.cluster.router.state.read();
        let n = self.write_target(&s, key);
        self.access(n, 0).map_err(KvError::NodeDown)?;
        Ok(self.cluster.shard(n).delete(key, expected_version))
    }

    /// The cluster this client talks to.
    pub fn cluster(&self) -> &Arc<KvCluster> {
        &self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::with_recording;

    fn cluster(nodes: u32) -> Arc<KvCluster> {
        KvCluster::new(Topology::new(nodes, 4), Arc::new(LatencyProfile::default()))
    }

    #[test]
    fn routes_consistently_across_clients() {
        let c = cluster(4);
        let a = c.client(NodeId(0));
        let b = c.client(NodeId(3));
        a.set(b"/w/f1", b"hello").unwrap();
        assert_eq!(&*b.get(b"/w/f1").unwrap().unwrap().0, b"hello");
        assert_eq!(b.delete(b"/w/f1", None), Ok(true));
        assert_eq!(a.get(b"/w/f1"), Ok(None));
    }

    #[test]
    fn charges_local_vs_remote_hops() {
        let c = cluster(4);
        let profile = c.profile().clone();
        // Find a key owned by node 0.
        let mut local_key = None;
        for i in 0..1000 {
            let k = format!("/probe/{i}");
            if c.shard_node(k.as_bytes()) == NodeId(0) {
                local_key = Some(k);
                break;
            }
        }
        let local_key = local_key.expect("some key must land on node 0");
        let client = c.client(NodeId(0));
        let ((), t) = with_recording(|| {
            client.get(local_key.as_bytes()).unwrap();
        });
        assert_eq!(t.station_ns(Station::Network), profile.net_local);
        assert_eq!(t.station_ns(Station::KvShard(0)), profile.kv_op);

        // A key owned by another node pays the remote hop.
        let mut remote_key = None;
        for i in 0..1000 {
            let k = format!("/probe2/{i}");
            if c.shard_node(k.as_bytes()) != NodeId(0) {
                remote_key = Some(k);
                break;
            }
        }
        let remote_key = remote_key.unwrap();
        let ((), t) = with_recording(|| {
            client.get(remote_key.as_bytes()).unwrap();
        });
        assert_eq!(t.station_ns(Station::Network), profile.net_hop_remote);
    }

    #[test]
    fn payload_charge_scales_with_size() {
        let c = cluster(1);
        let p = c.profile().clone();
        let client = c.client(NodeId(0));
        let ((), small) = with_recording(|| {
            client.set(b"k", &[0u8; 100]).unwrap();
        });
        let ((), big) = with_recording(|| {
            client.set(b"k", &[0u8; 4096]).unwrap();
        });
        let shard = Station::KvShard(0);
        assert_eq!(small.station_ns(shard), p.kv_op + p.kv_payload_per_kib);
        assert_eq!(big.station_ns(shard), p.kv_op + 4 * p.kv_payload_per_kib);
    }

    #[test]
    fn cluster_wide_prefix_and_clear() {
        let c = cluster(4);
        let client = c.client(NodeId(1));
        for i in 0..40 {
            client.set(format!("/ws/a/f{i:02}").as_bytes(), b"m").unwrap();
        }
        for i in 0..10 {
            client.set(format!("/other/f{i:02}").as_bytes(), b"m").unwrap();
        }
        let keys = c.keys_with_prefix(b"/ws/a/");
        assert_eq!(keys.len(), 40);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "not part of this cache cluster")]
    fn foreign_node_client_rejected() {
        let c = cluster(2);
        let _ = c.client(NodeId(7));
    }

    #[test]
    fn multi_get_matches_sequential_and_charges_per_node_group() {
        let c = cluster(4);
        let p = c.profile().clone();
        let client = c.client(NodeId(0));
        let keys: Vec<String> = (0..24).map(|i| format!("/batch/f{i:02}")).collect();
        for (i, k) in keys.iter().enumerate() {
            if i % 3 != 0 {
                client.set(k.as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
        }
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let (batched, trace) = with_recording(|| client.multi_gets(&refs));
        assert!(batched.is_complete());
        // Byte-for-byte equal to sequential gets, in input order.
        for (k, got) in refs.iter().zip(&batched.results) {
            assert_eq!(got, &client.get(k).unwrap());
        }
        // One network hop per distinct owning node, not one per key.
        let nodes: std::collections::BTreeSet<u32> =
            refs.iter().map(|k| c.shard_node(k).0).collect();
        assert!(trace.station_ns(Station::Network) <= nodes.len() as u64 * p.net_hop_remote);
        let mut shard_ns = 0;
        for n in &nodes {
            let ns = trace.station_ns(Station::KvShard(*n));
            assert!(ns >= p.kv_op, "every touched shard pays at least one kv_op");
            shard_ns += ns;
        }
        // Total shard demand = one kv_op per node group + marginal keys.
        let expected =
            nodes.len() as u64 * p.kv_op + (refs.len() - nodes.len()) as u64 * p.kv_multi_per_key;
        assert!(shard_ns >= expected, "payload only adds to the base demand");
        assert!(shard_ns < refs.len() as u64 * p.kv_op, "must beat per-key gets");
    }

    #[test]
    fn multi_get_empty_and_single() {
        let c = cluster(2);
        let client = c.client(NodeId(0));
        assert!(client.multi_gets(&[]).results.is_empty());
        client.set(b"k", b"v").unwrap();
        let got = client.multi_gets(&[b"k".as_ref()]);
        assert_eq!(&*got.results[0].clone().unwrap().0, b"v");
    }

    /// Keys `/mw/f0..n`, each with a value, and the versions they hold.
    fn stored(client: &KvClient, n: usize) -> (Vec<String>, Vec<u64>) {
        let keys: Vec<String> = (0..n).map(|i| format!("/mw/f{i:02}")).collect();
        let versions = keys.iter().map(|k| client.set(k.as_bytes(), b"v0").unwrap()).collect();
        (keys, versions)
    }

    #[test]
    fn multi_write_charges_like_a_multi_get_per_node_group() {
        let c = cluster(4);
        let p = c.profile().clone();
        let client = c.client(NodeId(0));
        let (keys, versions) = stored(&client, 24);
        let value = [7u8; 1500]; // two KiB of payload per CAS
        // Every third item deletes, the rest CAS.
        let items: Vec<CondWrite<'_>> = keys
            .iter()
            .zip(&versions)
            .enumerate()
            .map(|(i, (k, &version))| CondWrite {
                key: k.as_bytes(),
                version,
                value: (i % 3 != 0).then_some(&value[..]),
            })
            .collect();
        let (written, trace) = with_recording(|| client.multi_write(&items, c.ring_epoch()));
        let written = written.unwrap();
        assert!(written.is_complete());
        for (w, got) in items.iter().zip(&written.results) {
            match (w.value, got) {
                (Some(_), Some(CondOutcome::Stored { .. }))
                | (None, Some(CondOutcome::Deleted)) => {}
                other => panic!("{other:?}"),
            }
        }
        // Per owning node: one hop and `kv_op + (n − 1)·kv_multi_per_key +
        // payload KiB` — the multi-get formula, payload as sent.
        let mut hops = 0;
        for node in c.nodes() {
            let group: Vec<&CondWrite<'_>> =
                items.iter().filter(|w| c.shard_node(w.key) == *node).collect();
            if group.is_empty() {
                continue;
            }
            hops += if *node == NodeId(0) { p.net_local } else { p.net_hop_remote };
            let payload: u64 = group.iter().filter_map(|w| w.value).map(|v| v.len() as u64).sum();
            let want = p.kv_op
                + (group.len() as u64 - 1) * p.kv_multi_per_key
                + payload.div_ceil(1024) * p.kv_payload_per_kib;
            assert_eq!(trace.station_ns(Station::KvShard(node.0)), want, "{node:?}");
        }
        assert_eq!(trace.station_ns(Station::Network), hops);
        let st = c.stats();
        assert_eq!((st.multi_write_keys, st.cas_ok, st.deletes), (24, 16, 8));
        assert!(st.multi_writes <= 4);
    }

    #[test]
    fn multi_write_isolates_a_down_node_group() {
        let c = cluster(4);
        let client = c.client(NodeId(0));
        let (keys, versions) = stored(&client, 40);
        let victim = c.shard_node(keys[0].as_bytes());
        c.crash(victim);
        let items: Vec<CondWrite<'_>> = keys
            .iter()
            .zip(&versions)
            .map(|(k, &version)| CondWrite { key: k.as_bytes(), version, value: Some(b"v1") })
            .collect();
        let written = client.multi_write(&items, c.ring_epoch()).unwrap();
        assert_eq!(written.failed.len(), 1, "exactly one node group failed");
        assert_eq!(written.failed[0].0, victim);
        for (i, k) in keys.iter().enumerate() {
            if c.shard_node(k.as_bytes()) == victim {
                assert!(written.failed[0].1.contains(&i));
                assert_eq!(written.results[i], None);
            } else {
                assert!(matches!(written.results[i], Some(CondOutcome::Stored { .. })));
                assert_eq!(&*client.get(k.as_bytes()).unwrap().unwrap().0, b"v1");
            }
        }
    }

    #[test]
    fn crash_surfaces_node_down_and_keeps_the_node_a_member() {
        let c = cluster(4);
        let client = c.client(NodeId(0));
        // Find keys owned by two different nodes.
        let keys: Vec<String> = (0..200).map(|i| format!("/fault/f{i}")).collect();
        let victim = c.shard_node(keys[0].as_bytes());
        let surviving_key = keys
            .iter()
            .find(|k| c.shard_node(k.as_bytes()) != victim)
            .expect("4-node ring spreads keys");
        for k in &keys {
            client.set(k.as_bytes(), b"v").unwrap();
        }

        c.crash(victim);
        assert_eq!(c.node_status(victim), NodeStatus::Down);
        // The ring still routes to the dead node — no silent re-hash.
        assert_eq!(c.shard_node(keys[0].as_bytes()), victim);
        assert_eq!(client.get(keys[0].as_bytes()), Err(KvError::NodeDown(victim)));
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        assert_eq!(client.multi_gets(&refs).failed[0].0, victim);
        assert_eq!(client.set(keys[0].as_bytes(), b"x"), Err(KvError::NodeDown(victim)));
        // Surviving shards keep serving.
        assert!(client.get(surviving_key.as_bytes()).unwrap().is_some());

        // Restart comes back cold: up, but the crash wiped its state.
        c.restart(victim);
        assert_eq!(c.node_status(victim), NodeStatus::Up);
        assert_eq!(client.get(keys[0].as_bytes()), Ok(None), "cold cache after restart");
        assert!(client.set(keys[0].as_bytes(), b"warm").is_ok());
        assert!(client.get(keys[0].as_bytes()).unwrap().is_some());
    }

    #[test]
    fn restarted_shard_answers_ordered_queries() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        let keys: Vec<Vec<u8>> = (0..90).map(|i| format!("/ord/f{i:02}").into_bytes()).collect();
        for k in &keys {
            client.set(k, b"v").unwrap();
        }
        assert!(!c.index_built(), "sets alone never build the index");
        assert_eq!(c.keys_with_prefix(b"/ord/"), keys);
        assert!(c.index_built());

        // The crash wipes the victim's keys out of its index as well ...
        let victim = c.shard_node(&keys[0]);
        c.crash(victim);
        let survivors: Vec<Vec<u8>> =
            keys.iter().filter(|k| c.shard_node(k) != victim).cloned().collect();
        assert_eq!(c.keys_with_prefix(b"/ord/"), survivors);
        assert_eq!(c.first_key_at_or_after(b"/ord/"), survivors.first().cloned());
        // ... and what the cold shard is given after the restart shows up.
        c.restart(victim);
        client.set(&keys[0], b"rewarmed").unwrap();
        assert_eq!(c.first_key_at_or_after(b""), Some(keys[0].clone()));
        assert_eq!(c.keys_with_prefix(b"/ord/").len(), survivors.len() + 1);
    }

    #[test]
    fn ring_epoch_is_monotonic_across_crash_restart_cycles() {
        let c = cluster(3);
        let mut last = c.ring_epoch();
        assert_eq!(last, 0);
        for _ in 0..3 {
            c.crash(NodeId(1));
            let e = c.ring_epoch();
            assert!(e > last, "crash must bump the epoch");
            last = e;
            c.restart(NodeId(1));
            let e = c.ring_epoch();
            assert!(e > last, "restart must bump the epoch");
            last = e;
        }
        // Unrelated traffic never moves the epoch.
        let client = c.client(NodeId(0));
        client.set(b"k", b"v").unwrap();
        client.get(b"k").unwrap();
        assert_eq!(c.ring_epoch(), last);
    }

    #[test]
    fn slowdown_charges_extra_service() {
        let c = cluster(1);
        let p = c.profile().clone();
        let client = c.client(NodeId(0));
        c.set_slowdown(NodeId(0), 7_000);
        let ((), t) = with_recording(|| {
            client.get(b"k").unwrap();
        });
        assert_eq!(t.station_ns(Station::KvShard(0)), p.kv_op + 7_000);
        c.set_slowdown(NodeId(0), 0);
        let ((), t) = with_recording(|| {
            client.get(b"k").unwrap();
        });
        assert_eq!(t.station_ns(Station::KvShard(0)), p.kv_op);
    }

    #[test]
    fn aggregated_stats() {
        let c = cluster(2);
        let client = c.client(NodeId(0));
        client.set(b"a", b"1").unwrap();
        client.get(b"a").unwrap();
        client.get(b"nope").unwrap();
        let st = c.stats();
        assert_eq!(st.sets, 1);
        assert_eq!(st.gets, 2);
        assert_eq!(st.hits, 1);
    }
}

#[cfg(test)]
mod reshard_tests {
    use super::*;

    fn cluster(nodes: u32) -> Arc<KvCluster> {
        KvCluster::new(Topology::new(nodes, 4), Arc::new(LatencyProfile::default()))
    }

    fn fill(client: &KvClient, n: usize) -> Vec<String> {
        let keys: Vec<String> = (0..n).map(|i| format!("/reshard/f{i:03}")).collect();
        for (i, k) in keys.iter().enumerate() {
            client.set(k.as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        keys
    }

    fn drive_to_completion(c: &KvCluster) {
        let mut spins = 0;
        while c.migration_active() {
            c.migration_step(8);
            spins += 1;
            assert!(spins < 10_000, "migration never completed");
        }
    }

    #[test]
    fn leave_migrates_remapped_keys_and_reads_stay_consistent() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        let keys = fill(&client, 120);
        let epoch_before = c.ring_epoch();
        assert!(c.begin_leave(NodeId(2)));
        assert!(c.migration_active());
        assert_eq!(c.migrating_node(), Some(NodeId(2)));
        assert!(c.ring_epoch() > epoch_before, "begin bumps the epoch");
        // Mid-migration: every key still reads its written value.
        c.migration_step(10);
        for (i, k) in keys.iter().enumerate() {
            let (v, _) = client.get(k.as_bytes()).unwrap().expect("readable mid-migration");
            assert_eq!(&*v, format!("v{i}").as_bytes());
        }
        drive_to_completion(&c);
        assert_eq!(c.members(), vec![NodeId(0), NodeId(1)]);
        // The leaver's shard is empty and no key routes to it.
        for k in &keys {
            assert_ne!(c.shard_node(k.as_bytes()), NodeId(2));
            let (v, _) = client.get(k.as_bytes()).unwrap().expect("readable after migration");
            assert!(v.len() >= 2);
        }
        let st = c.reshard_stats();
        assert_eq!(st.reshard_started, 1);
        assert!(st.keys_migrated > 0, "a 3->2 shrink must move keys");
        assert_eq!(st.migration_aborts, 0);
    }

    #[test]
    fn join_moves_ranges_to_the_new_member() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        // Start with node 2 off the ring.
        assert!(c.begin_leave(NodeId(2)));
        drive_to_completion(&c);
        let keys = fill(&client, 120);
        assert!(c.begin_join(NodeId(2)));
        drive_to_completion(&c);
        assert_eq!(c.members(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        let moved: usize =
            keys.iter().filter(|k| c.shard_node(k.as_bytes()) == NodeId(2)).count();
        assert!(moved > 0, "a join must take over some ranges");
        for (i, k) in keys.iter().enumerate() {
            let (v, _) = client.get(k.as_bytes()).unwrap().expect("readable after join");
            assert_eq!(&*v, format!("v{i}").as_bytes());
        }
    }

    #[test]
    fn begin_rejects_invalid_membership_changes() {
        let c = cluster(2);
        assert!(!c.begin_join(NodeId(0)), "already a member");
        assert!(!c.begin_join(NodeId(9)), "not provisioned");
        assert!(!c.begin_leave(NodeId(9)), "not a member");
        assert!(c.begin_leave(NodeId(1)));
        assert!(!c.begin_leave(NodeId(0)), "one migration at a time");
        drive_to_completion(&c);
        assert!(!c.begin_leave(NodeId(0)), "cannot leave the last member");
        c.crash(NodeId(1));
        assert!(!c.begin_join(NodeId(1)), "a down node cannot join");
    }

    #[test]
    fn writes_during_migration_route_by_marker_and_survive() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        let keys = fill(&client, 150);
        assert!(c.begin_leave(NodeId(2)));
        // Move roughly half, then overwrite every key mid-window.
        c.migration_step(25);
        for (i, k) in keys.iter().enumerate() {
            client.set(k.as_bytes(), format!("w{i}").as_bytes()).unwrap();
        }
        // Every key reads the overwrite, wherever it lives right now.
        for (i, k) in keys.iter().enumerate() {
            let (v, _) = client.get(k.as_bytes()).unwrap().unwrap();
            assert_eq!(&*v, format!("w{i}").as_bytes(), "mid-migration write lost");
        }
        drive_to_completion(&c);
        for (i, k) in keys.iter().enumerate() {
            let (v, _) = client.get(k.as_bytes()).unwrap().unwrap();
            assert_eq!(&*v, format!("w{i}").as_bytes(), "post-migration write lost");
        }
    }

    #[test]
    fn migrated_keys_keep_their_cas_version() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        let keys = fill(&client, 80);
        let versions: Vec<u64> =
            keys.iter().map(|k| client.get(k.as_bytes()).unwrap().unwrap().1).collect();
        assert!(c.begin_leave(NodeId(2)));
        drive_to_completion(&c);
        for (k, ver) in keys.iter().zip(&versions) {
            let (_, now) = client.get(k.as_bytes()).unwrap().unwrap();
            assert_eq!(now, *ver, "migration must preserve CAS versions");
            // And the pre-migration token still swaps.
            assert!(matches!(
                client.cas(k.as_bytes(), *ver, b"swapped", c.ring_epoch()),
                Ok(CasOutcome::Stored { .. })
            ));
        }
    }

    #[test]
    fn fenced_cas_rejects_stale_epoch_and_lands_after_refresh() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        let keys = fill(&client, 60);
        let k = keys[0].as_bytes();
        let seen = c.ring_epoch();
        let (_, ver) = client.get(k).unwrap().unwrap();
        // Membership changes between the read and the CAS.
        assert!(c.begin_leave(NodeId(2)));
        drive_to_completion(&c);
        let out = client.cas(k, ver, b"stale-route", seen);
        match out {
            Err(KvError::WrongEpoch { seen: s, current }) => {
                assert_eq!(s, seen);
                assert!(current > seen);
            }
            other => panic!("expected WrongEpoch, got {other:?}"),
        }
        // Refresh: re-read version + epoch, retry — versions survived the
        // move, so the CAS lands.
        let fresh_epoch = c.ring_epoch();
        let (_, fresh_ver) = client.get(k).unwrap().unwrap();
        assert_eq!(fresh_ver, ver, "version preserved across the reshard");
        assert!(matches!(
            client.cas(k, fresh_ver, b"landed", fresh_epoch),
            Ok(CasOutcome::Stored { .. })
        ));
    }

    #[test]
    fn fenced_multi_write_applies_nothing() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        let keys = fill(&client, 30);
        let seen = c.ring_epoch();
        let read: Vec<u64> =
            keys.iter().map(|k| client.get(k.as_bytes()).unwrap().unwrap().1).collect();
        let items: Vec<CondWrite<'_>> = keys
            .iter()
            .zip(&read)
            .enumerate()
            .map(|(i, (k, &version))| CondWrite {
                key: k.as_bytes(),
                version,
                value: (i % 2 == 0).then_some(&b"stale-route"[..]),
            })
            .collect();
        assert!(c.begin_leave(NodeId(2)));
        drive_to_completion(&c);
        match client.multi_write(&items, seen) {
            Err(KvError::WrongEpoch { seen: s, current }) => assert!(s == seen && current > seen),
            other => panic!("expected WrongEpoch, got {other:?}"),
        }
        for (i, k) in keys.iter().enumerate() {
            let (v, version) = client.get(k.as_bytes()).unwrap().expect("nothing deleted");
            assert_eq!((&*v, version), (format!("v{i}").as_bytes(), read[i]), "nothing stored");
        }
        // Versions survived the move: the same batch under a fresh epoch lands.
        let written = client.multi_write(&items, c.ring_epoch()).unwrap();
        assert!(written.results.iter().all(|r| matches!(
            r,
            Some(CondOutcome::Stored { .. } | CondOutcome::Deleted)
        )));
    }

    #[test]
    fn multi_write_routes_mid_migration_keys_one_by_one() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        let keys = fill(&client, 150);
        let read: Vec<u64> =
            keys.iter().map(|k| client.get(k.as_bytes()).unwrap().unwrap().1).collect();
        assert!(c.begin_leave(NodeId(2)));
        c.migration_step(25); // some remapped keys moved, some not yet
        let items: Vec<CondWrite<'_>> = keys
            .iter()
            .zip(&read)
            .map(|(k, &version)| CondWrite { key: k.as_bytes(), version, value: Some(b"w") })
            .collect();
        let before = c.stats();
        let written = client.multi_write(&items, c.ring_epoch()).unwrap();
        let after = c.stats();
        assert!(written.is_complete());
        assert!(written.results.iter().all(|r| matches!(r, Some(CondOutcome::Stored { .. }))));
        // Only the keys whose owner the leave does not change were batched.
        let stable = c.members().len(); // the two survivors
        assert!(after.multi_writes - before.multi_writes <= stable as u64);
        assert!(after.multi_write_keys - before.multi_write_keys < keys.len() as u64);
        drive_to_completion(&c);
        for k in &keys {
            assert_eq!(&*client.get(k.as_bytes()).unwrap().unwrap().0, b"w", "{k}");
        }
    }

    #[test]
    fn joiner_crash_aborts_join_deterministically() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        assert!(c.begin_leave(NodeId(2)));
        drive_to_completion(&c);
        let keys = fill(&client, 150);
        let owner_before: Vec<NodeId> =
            keys.iter().map(|k| c.shard_node(k.as_bytes())).collect();
        assert!(c.begin_join(NodeId(2)));
        c.migration_step(20); // partial transfer
        c.crash(NodeId(2));
        assert!(!c.migration_active(), "crash resolves the migration");
        assert_eq!(c.members(), vec![NodeId(0), NodeId(1)], "old ring restored");
        assert_eq!(c.reshard_stats().migration_aborts, 1);
        // No key routes to the dead joiner; reads are never stale — at
        // worst a moved key degraded to a miss.
        for (i, (k, owner)) in keys.iter().zip(&owner_before).enumerate() {
            assert_eq!(c.shard_node(k.as_bytes()), *owner);
            // A moved key lost with the joiner reads as a clean miss.
            if let Some((v, _)) = client.get(k.as_bytes()).unwrap() {
                assert_eq!(&*v, format!("v{i}").as_bytes());
            }
        }
        // The cluster keeps serving writes on the restored ring.
        assert!(client.set(keys[0].as_bytes(), b"fresh").is_ok());
    }

    #[test]
    fn leaver_crash_force_completes_leave() {
        let c = cluster(3);
        let client = c.client(NodeId(0));
        let keys = fill(&client, 150);
        assert!(c.begin_leave(NodeId(2)));
        c.migration_step(20); // partial transfer
        c.crash(NodeId(2));
        assert!(!c.migration_active());
        assert_eq!(c.members(), vec![NodeId(0), NodeId(1)], "target ring adopted");
        assert_eq!(c.reshard_stats().forced_completes, 1);
        for (i, k) in keys.iter().enumerate() {
            assert_ne!(c.shard_node(k.as_bytes()), NodeId(2));
            // An unmoved key that died with the leaver is a clean miss.
            if let Some((v, _)) = client.get(k.as_bytes()).unwrap() {
                assert_eq!(&*v, format!("v{i}").as_bytes());
            }
        }
    }

    #[test]
    fn unrelated_crash_during_join_aborts_without_stale_reads() {
        let c = cluster(4);
        let client = c.client(NodeId(0));
        assert!(c.begin_leave(NodeId(3)));
        drive_to_completion(&c);
        let keys = fill(&client, 150);
        assert!(c.begin_join(NodeId(3)));
        c.migration_step(15);
        // A *source* node crashes mid-join: its markers died with it, so
        // continuing would risk stale double-copies — the join aborts.
        c.crash(NodeId(1));
        assert!(!c.migration_active());
        assert_eq!(c.reshard_stats().migration_aborts, 1);
        for (i, k) in keys.iter().enumerate() {
            match client.get(k.as_bytes()) {
                Ok(Some((v, _))) => assert_eq!(&*v, format!("v{i}").as_bytes()),
                Ok(None) => {}
                Err(KvError::NodeDown(n)) => assert_eq!(n, NodeId(1)),
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn leave_of_a_down_node_completes_immediately() {
        let c = cluster(3);
        c.crash(NodeId(2));
        assert!(c.begin_leave(NodeId(2)), "deprovisioning a dead node");
        c.migration_step(1);
        assert!(!c.migration_active(), "nothing to move from a wiped shard");
        assert_eq!(c.members(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn epoch_is_monotonic_across_join_leave_storm() {
        let c = cluster(4);
        let client = c.client(NodeId(0));
        fill(&client, 60);
        let mut last = c.ring_epoch();
        for round in 0..3 {
            let n = NodeId(1 + (round % 3));
            assert!(c.begin_leave(n));
            let e = c.ring_epoch();
            assert!(e > last);
            last = e;
            drive_to_completion(&c);
            let e = c.ring_epoch();
            assert!(e > last, "completion bumps the epoch");
            last = e;
            assert!(c.begin_join(n));
            drive_to_completion(&c);
            let e = c.ring_epoch();
            assert!(e > last);
            last = e;
        }
    }

    #[test]
    fn migration_charges_transfer_service_to_the_destination() {
        let c = cluster(2);
        let client = c.client(NodeId(0));
        for i in 0..60 {
            client.set(format!("/xfer/f{i}").as_bytes(), b"0123456789").unwrap();
        }
        c.begin_leave(NodeId(1));
        let ((), t) = simnet::with_recording(|| {
            drive_to_completion(&c);
        });
        let moved = c.reshard_stats().keys_migrated;
        assert!(moved > 0);
        let p = c.profile();
        assert!(
            t.station_ns(Station::KvShard(0)) >= moved * p.kv_migrate_per_key,
            "each migrated key charges the destination shard"
        );
    }

    #[test]
    fn partial_multi_get_keeps_healthy_groups_on_mid_batch_crash() {
        let c = cluster(4);
        let client = c.client(NodeId(0));
        let keys: Vec<String> = (0..200).map(|i| format!("/pmg/f{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            client.set(k.as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        let victim = c.shard_node(keys[0].as_bytes());
        c.crash(victim);
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let p = client.multi_gets(&refs);
        assert!(!p.is_complete());
        assert_eq!(p.failed.len(), 1, "exactly one node group failed");
        assert_eq!(p.failed[0].0, victim);
        let failed: std::collections::HashSet<usize> =
            p.failed[0].1.iter().copied().collect();
        assert!(!failed.is_empty());
        assert!(failed.len() < keys.len(), "healthy groups must survive");
        for (i, k) in keys.iter().enumerate() {
            if failed.contains(&i) {
                assert_eq!(c.shard_node(k.as_bytes()), victim);
                assert!(p.results[i].is_none(), "unfetched keys stay None");
            } else {
                let (v, _) = p.results[i].clone().expect("healthy group result kept");
                assert_eq!(&*v, format!("v{i}").as_bytes());
            }
        }
    }
}
