//! Chaos harness for the deterministic fault plane: a seeded
//! [`FaultPlan`] storm (cache-node crashes/restarts, commit-link
//! partitions, lossy broker crashes, duplicated sends) runs against a
//! live region while a seeded workload keeps issuing metadata ops, all
//! in virtual time on a single driver thread.
//!
//! Properties checked:
//!
//! * **No acknowledged update is lost.** After the storm clears, the
//!   redelivery windows flush and the queues drain, the faulted region's
//!   backup copy is the program-order reference of the acked ops
//!   (`workloads::history`).
//! * **Degraded reads are never stale.** Every stat issued mid-storm on
//!   a fully committed path succeeds — served from the cache or, in
//!   degraded mode, from the DFS backup — and agrees with the backup.
//! * **The region returns to steady state.** After recovery the
//!   degraded-mode state machine is Healthy again and further reads are
//!   cache-served (the `degraded_reads` counter stops moving).
//!
//! On failure the applied fault trace is written to `target/chaos/` so
//! the run can be replayed from its seed.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileKind, FileSystem, FsResult};
use pacon::{DegradedMode, PaconConfig, PaconRegion};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use simnet::{ClientId, FaultEvent, FaultPlan, LatencyProfile, NodeId, Topology};
use workloads::crash::WalDir;
use workloads::history::{drain, History};
use workloads::FsOp;

/// Rounds a region's commit pipeline gets to settle after a storm or outage.
const DRAIN_ROUNDS: u32 = 500_000;
const NODES: u32 = 3;
/// Virtual ns the driver advances per workload iteration.
const STEP_NS: u64 = 400_000;
/// Storm window in virtual ns (well past the default 8 ms RPC deadline,
/// so mid-storm outages are long enough to force degraded mode).
const STORM_START: u64 = 10_000_000;
const STORM_END: u64 = 250_000_000;
const STORM_ROUNDS: u32 = 6;

/// Stable universe: committed before the storm, stat'd throughout it.
fn sdir(d: usize) -> String {
    format!("/w/s{d}")
}
fn sfile(i: usize) -> String {
    format!("/w/s{}/f{}", (i / 3) % 4, i % 3)
}
/// Transient universe: churned by the mid-storm workload.
fn tdir(d: usize) -> String {
    format!("/w/t{d}")
}
fn tfile(i: usize) -> String {
    format!("/w/t{}/f{}", (i / 3) % 4, i % 3)
}

/// Writes the applied fault trace to `target/chaos/` when the test
/// panics, so a failed storm can be replayed from its artifact.
struct TraceOnPanic<'a> {
    plan: &'a FaultPlan,
    name: String,
}

impl Drop for TraceOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let path = std::path::Path::new(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../target/chaos"
            ))
            .join(&self.name);
            if self.plan.write_trace(&path).is_ok() {
                eprintln!("fault trace written to {}", path.display());
            }
        }
    }
}

/// After the storm has cleared, pull the degraded-mode state machine
/// back to Healthy by issuing reads with the probe interval elapsing
/// between them.
fn recover(
    region: &Arc<PaconRegion>,
    clients: &[pacon::PaconClient],
    cred: &Credentials,
) {
    let core = region.core();
    let mut guard = 0;
    while core.degraded.mode() != DegradedMode::Healthy {
        core.advance(10_000_000); // > RetryPolicy::DEFAULT.deadline_ns: next probe is due
        let p = sfile(guard % 12);
        let st = clients[guard % clients.len()].stat(&p, cred);
        assert!(st.is_ok(), "stable path {p} unreadable during recovery: {st:?}");
        core.pump();
        guard += 1;
        assert!(guard < 64, "region never recovered to Healthy");
    }
}

/// Build and fully commit the stable universe; returns its history.
fn commit_stable_universe(
    region: &PaconRegion,
    clients: &[pacon::PaconClient],
    cred: &Credentials,
) -> FsResult<History> {
    let mut history = History::new("/w");
    for d in 0..4 {
        history.issue(&clients[d % 3], cred, FsOp::Mkdir(sdir(d), 0o755))?;
    }
    for i in 0..12 {
        history.issue(&clients[(i / 3) % 3], cred, FsOp::Create(sfile(i), 0o644))?;
    }
    drain(region, DRAIN_ROUNDS);
    Ok(history)
}

/// Advance the virtual clock one tick and apply the fault events due by
/// then; the ring epoch must not regress through any of them.
fn tick(region: &PaconRegion, plan: &FaultPlan, last_epoch: &mut u64) {
    let core = region.core();
    core.advance(STEP_NS);
    for ev in plan.advance_to(core.sim_ns()) {
        region.apply_fault(ev);
    }
    let epoch = core.cache_cluster.ring_epoch();
    assert!(epoch >= *last_epoch, "ring epoch regressed: {last_epoch} -> {epoch}");
    *last_epoch = epoch;
}

/// Every directory and file slot of both universes.
fn universe() -> Vec<String> {
    let dirs = (0..4).flat_map(|d| [sdir(d), tdir(d)]);
    dirs.chain((0..12).flat_map(|i| [sfile(i), tfile(i)])).collect()
}

/// Scenario A: the full storm (cache crashes included) over a namespace
/// workload, with committed paths stat'd throughout. `pressure` runs it
/// the way the benchmark workloads run — group commit plus an eviction
/// threshold the universe always exceeds — and adds create→write→unlink
/// triples to the workload, so eviction rounds and the coalesced
/// create×unlink cleanup happen while a shard is down. Returns how many
/// duplicated deliveries the commit processes dropped.
fn cache_storm(seed: u64, pressure: bool) -> u64 {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let mut config = PaconConfig::new("/w", Topology::new(NODES, 1), cred);
    if pressure {
        config = config.with_commit_batch(8).with_eviction_threshold(512);
    }
    // Keep duplicate-create spins (the documented degraded-mode
    // admission gap) from burning 10k commit retries before they drop.
    config.max_commit_retries = 200;
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let clients: Vec<_> = (0..NODES).map(|i| region.client(ClientId(i))).collect();
    let core = region.core();

    let mut history = commit_stable_universe(&region, &clients, &cred).unwrap();

    let plan = FaultPlan::storm(seed, NODES, STORM_START, STORM_END, STORM_ROUNDS);
    let _trace = TraceOnPanic { plan: &plan, name: format!("cache-storm-{seed}.trace") };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let backup_copy = dfs.client();

    // Phase 1: the storm. One namespace op and one stable stat per tick.
    let mut last_epoch = core.cache_cluster.ring_epoch();
    // Triple files whose unlink was refused (a degraded window cannot see
    // a creation that is still queued); removed after the heal.
    let mut leftovers: Vec<String> = Vec::new();
    let mut triples = 0usize;
    while core.sim_ns() < STORM_END + STEP_NS {
        tick(&region, &plan, &mut last_epoch);

        match rng.gen_range(0u32..if pressure { 12 } else { 9 }) {
            9.. => {
                // A fresh name per triple, all three ops inside one tick:
                // they meet in the publish buffer.
                let p = format!("/w/s{}/x{triples}", triples % 4);
                let c = &clients[triples % 3];
                triples += 1;
                if history.issue(c, &cred, FsOp::Create(p.clone(), 0o644)).is_ok() {
                    let data = b"short-lived".to_vec();
                    let _ = history.issue(c, &cred, FsOp::Write { path: p.clone(), offset: 0, data });
                    if history.issue(c, &cred, FsOp::Unlink(p.clone())).is_err() {
                        leftovers.push(p);
                    }
                }
            }
            0..=1 => {
                let d = rng.gen_range(0usize..4);
                let _ = history.issue(&clients[d % 3], &cred, FsOp::Mkdir(tdir(d), 0o755));
            }
            2..=5 => {
                let i = rng.gen_range(0usize..12);
                let _ = history.issue(&clients[(i / 3) % 3], &cred, FsOp::Create(tfile(i), 0o644));
            }
            _ => {
                let i = rng.gen_range(0usize..12);
                let _ = history.issue(&clients[(i / 3) % 3], &cred, FsOp::Unlink(tfile(i)));
            }
        }

        // A committed path must stay readable through any fault — from
        // the cache, or degraded from the backup — and must agree with
        // the backup (never staler than the DFS).
        let p = sfile(rng.gen_range(0usize..12));
        let st = clients[rng.gen_range(0usize..3)].stat(&p, &cred);
        assert!(st.is_ok(), "stable path {p} unreadable mid-storm: {st:?}");
        let backup = backup_copy.stat(&p, &cred).expect("stable path on backup");
        assert_eq!(st.unwrap().kind, backup.kind, "degraded read of {p} staler than backup");

        core.pump();
    }
    assert_eq!(plan.remaining(), 0, "storm events all applied");

    // Phase 2: recovery. Heal is already scripted; re-warm the cache,
    // flush the redelivery windows, drain the queues.
    recover(&region, &clients, &cred);
    if pressure {
        // One op per tick never fills a batch: an idle commit process
        // takes each from the publish buffer first. A full batch per node
        // inside one tick crosses the flush threshold and leaves through
        // the window — the traffic a still-armed duplicate follows.
        for (n, c) in clients.iter().enumerate() {
            for i in 0..8 {
                let p = format!("/w/s{n}/burst{i}");
                history.issue(c, &cred, FsOp::Create(p, 0o644)).unwrap();
            }
        }
    }
    region.flush_publishes().unwrap();
    drain(&region, DRAIN_ROUNDS);
    for p in leftovers {
        history.issue(&clients[0], &cred, FsOp::Unlink(p)).unwrap();
    }
    drain(&region, DRAIN_ROUNDS);
    // A commit process acknowledges what it takes: with the queues
    // drained, every window is provably consumed.
    assert_eq!(region.unacked_publishes(), 0, "redelivery window not empty after drain");

    // No acknowledged update lost: the backup copy is the reference's.
    history.assert_backup_matches(&dfs, &cred, &universe());

    // Steady state: reads are cache-served again.
    assert_eq!(core.degraded.mode(), DegradedMode::Healthy);
    let degraded_before = core.counters.get("degraded_reads");
    for i in 0..12 {
        let st = clients[i % 3].stat(&sfile(i), &cred).unwrap();
        assert_eq!(st.kind, FileKind::File);
    }
    assert_eq!(
        core.counters.get("degraded_reads"),
        degraded_before,
        "post-recovery reads still falling through to the backup"
    );

    // The pressure input is not vacuous: eviction rounds ran and triples
    // annihilated in the publish buffer.
    if pressure {
        assert!(core.counters.get("evicted") > 0, "threshold never triggered an eviction");
        assert!(core.counters.get("coalesced_cancel") > 0, "no create×unlink pair coalesced");
    }

    // If the storm crashed a cache node mid-traffic, the fault plane must
    // actually have been exercised: retries burned, degraded reads
    // served, and the window closed by a recovery.
    let crashed = plan.trace().iter().any(|l| l.contains("CrashCacheNode"));
    if crashed {
        assert!(core.counters.get("rpc_retries") > 0, "no RPC retries despite a crash");
        assert!(core.counters.get("degraded_reads") > 0, "no degraded reads despite a crash");
        assert!(
            core.counters.get("degraded_recoveries") > 0,
            "degraded window never closed"
        );
        assert!(core.degraded.window_ns(core.sim_ns()) > 0);
    }
    core.counters.get("duplicate_drops")
}

/// Link-fault-only plan: partitions, lossy broker crashes and duplicated
/// sends — the cache stays up, so inline-write data rides the WAL'd,
/// idempotent commit path through every outage.
fn link_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = (STORM_END - STORM_START) / STORM_ROUNDS as u64;
    let mut events = Vec::new();
    for r in 0..STORM_ROUNDS {
        let slot = STORM_START + r as u64 * span;
        let t_fault = slot + rng.gen_range(0..span / 2);
        let t_clear = slot + span / 2 + rng.gen_range(0..span / 2);
        let node = NodeId(rng.gen_range(0..NODES));
        match rng.gen_range(0u32..3) {
            0 => {
                events.push((t_fault, FaultEvent::PartitionCommitLink(node)));
                events.push((t_clear, FaultEvent::HealCommitLink(node)));
            }
            1 => {
                events.push((t_fault, FaultEvent::CrashBroker(node)));
                events.push((t_clear, FaultEvent::HealCommitLink(node)));
            }
            _ => {
                let count = rng.gen_range(1u32..4);
                events.push((t_fault, FaultEvent::DuplicateCommitSends { node, count }));
            }
        }
    }
    FaultPlan::from_events(events)
}

/// Scenario B: broker loss and duplication under a write-heavy workload
/// on a durable (WAL'd) region, at commit batch size `batch` — 1 as the
/// figures run, 32 as the benchmark workloads do. Acked writes must
/// survive lost broker buffers via publisher-side redelivery, and
/// duplicated deliveries must be absorbed; final file contents must match
/// the reference byte-for-byte.
fn link_storm_with_writes(seed: u64, batch: usize) -> FsResult<()> {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let wal_dir = WalDir::new("chaos-link");
    let config = PaconConfig::new("/w", Topology::new(NODES, 1), cred)
        .with_commit_batch(batch)
        .with_durability(wal_dir.path());
    let region = PaconRegion::launch_paused(config, &dfs)?;
    let clients: Vec<_> = (0..NODES).map(|i| region.client(ClientId(i))).collect();
    let core = region.core();

    let mut history = commit_stable_universe(&region, &clients, &cred)?;

    let plan = link_plan(seed);
    let _trace = TraceOnPanic { plan: &plan, name: format!("link-storm-{seed}.trace") };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5851f42d4c957f2d);

    let mut last_epoch = core.cache_cluster.ring_epoch();
    while core.sim_ns() < STORM_END + STEP_NS {
        tick(&region, &plan, &mut last_epoch);
        let i = rng.gen_range(0usize..12);
        let c = &clients[(i / 3) % 3];
        match rng.gen_range(0u32..8) {
            0..=4 => {
                let b = rng.gen_range(0u32..256) as u8;
                let data = vec![b; (b as usize % 24) + 1];
                let _ = history.issue(c, &cred, FsOp::Write { path: sfile(i), offset: 0, data });
            }
            5 => {
                let _ = history.issue(c, &cred, FsOp::Unlink(sfile(i)));
            }
            _ => {
                let _ = history.issue(c, &cred, FsOp::Create(sfile(i), 0o644));
            }
        }
        core.pump();
    }
    assert_eq!(plan.remaining(), 0, "storm events all applied");

    // Links are healed. No explicit flush: each commit process has its
    // node's window redeliver whenever its queue runs empty.
    drain(&region, DRAIN_ROUNDS);
    assert_eq!(region.unacked_publishes(), 0, "redelivery window not empty after drain");

    history.assert_backup_matches(&dfs, &cred, &universe());

    // The cache never went down, so degraded mode never opened.
    assert_eq!(core.degraded.mode(), DegradedMode::Healthy);
    assert_eq!(core.counters.get("degraded_reads"), 0);

    Ok(())
}

/// Reshard-heavy plan: every round reshapes the ring (leave, then either
/// a crash of the migrating node mid-transfer or a clean re-join), mixed
/// with plain cache crashes so elasticity and the fault plane overlap.
fn reshard_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = (STORM_END - STORM_START) / STORM_ROUNDS as u64;
    let mut events = Vec::new();
    for r in 0..STORM_ROUNDS {
        let slot = STORM_START + r as u64 * span;
        let t_fault = slot + rng.gen_range(0..span / 4);
        let t_mid = slot + span / 4 + rng.gen_range(0..span / 4);
        let t_clear = slot + span / 2 + rng.gen_range(0..span / 2);
        let node = NodeId(rng.gen_range(0..NODES));
        match rng.gen_range(0u32..3) {
            // Clean elasticity cycle: shrink the ring, then grow it back.
            // (If the leave's transfer is still in flight at t_clear the
            // join is a documented no-op; per-tick pumping below makes
            // that rare.)
            0 => {
                events.push((t_fault, FaultEvent::LeaveNode(node)));
                events.push((t_clear, FaultEvent::JoinNode(node)));
            }
            // Crash the migrating node itself mid-transfer: the leave
            // force-completes (or an in-flight join aborts), then the
            // victim restarts cold and rejoins.
            1 => {
                events.push((t_fault, FaultEvent::LeaveNode(node)));
                events.push((t_mid, FaultEvent::CrashDuringMigration));
                events.push((t_clear, FaultEvent::RestartCacheNode(node)));
                events.push(((t_clear + span / 8).min(STORM_END), FaultEvent::JoinNode(node)));
            }
            // Plain crash/restart overlapping whatever migration the
            // neighbouring rounds left running.
            _ => {
                events.push((t_fault, FaultEvent::CrashCacheNode(node)));
                events.push((t_clear, FaultEvent::RestartCacheNode(node)));
            }
        }
    }
    FaultPlan::from_events(events)
}

/// Scenario C: live resharding under the fault plane. The ring shrinks,
/// grows and loses nodes mid-transfer while the metadata workload keeps
/// running; the driver pumps the migration a few keys per tick, exactly
/// like a background transfer thread would. Every acked namespace update
/// must still reach the backup, every mid-storm stat of a committed path
/// must stay readable and agree with the backup, the ring epoch must be
/// monotonic tick over tick, and the region must end Healthy with the
/// reshard counters showing real work.
fn reshard_storm(seed: u64) {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let mut config = PaconConfig::new("/w", Topology::new(NODES, 1), cred);
    config.max_commit_retries = 200;
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let clients: Vec<_> = (0..NODES).map(|i| region.client(ClientId(i))).collect();
    let core = region.core();

    let mut history = commit_stable_universe(&region, &clients, &cred).unwrap();

    let plan = reshard_plan(seed);
    let _trace = TraceOnPanic { plan: &plan, name: format!("reshard-storm-{seed}.trace") };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2545f4914f6cdd1d);
    let backup_copy = dfs.client();

    let mut last_epoch = core.cache_cluster.ring_epoch();
    while core.sim_ns() < STORM_END + STEP_NS {
        tick(&region, &plan, &mut last_epoch);

        // Background transfer: a bounded batch of keys per tick.
        region.pump_reshard(rng.gen_range(1usize..8));

        match rng.gen_range(0u32..9) {
            0..=1 => {
                let d = rng.gen_range(0usize..4);
                let _ = history.issue(&clients[d % 3], &cred, FsOp::Mkdir(tdir(d), 0o755));
            }
            2..=5 => {
                let i = rng.gen_range(0usize..12);
                let _ = history.issue(&clients[(i / 3) % 3], &cred, FsOp::Create(tfile(i), 0o644));
            }
            _ => {
                let i = rng.gen_range(0usize..12);
                let _ = history.issue(&clients[(i / 3) % 3], &cred, FsOp::Unlink(tfile(i)));
            }
        }

        // Committed paths stay readable through any reshard state —
        // migrating keys are double-read (new owner then old), crashed
        // owners fall back to the DFS — and never go staler than the
        // backup.
        let p = sfile(rng.gen_range(0usize..12));
        let st = clients[rng.gen_range(0usize..3)].stat(&p, &cred);
        assert!(st.is_ok(), "stable path {p} unreadable mid-reshard: {st:?}");
        let backup = backup_copy.stat(&p, &cred).expect("stable path on backup");
        assert_eq!(st.unwrap().kind, backup.kind, "reshard read of {p} staler than backup");

        core.pump();
    }
    assert_eq!(plan.remaining(), 0, "storm events all applied");

    // Heal: CrashDuringMigration picks its own victim, so restart
    // whatever is still down rather than scripting it, then run any
    // in-flight transfer to completion.
    for n in 0..NODES {
        if core.cache_cluster.node_status(NodeId(n)) == memkv::NodeStatus::Down {
            region.apply_fault(FaultEvent::RestartCacheNode(NodeId(n)));
        }
    }
    let mut spins = 0;
    while core.cache_cluster.migration_active() {
        region.pump_reshard(16);
        spins += 1;
        assert!(spins < 50_000, "migration never converged after the storm");
    }
    assert!(core.cache_cluster.ring_epoch() >= last_epoch, "teardown regressed the epoch");

    recover(&region, &clients, &cred);
    region.flush_publishes().unwrap();
    drain(&region, DRAIN_ROUNDS);
    assert_eq!(region.unacked_publishes(), 0, "redelivery window not empty after drain");

    history.assert_backup_matches(&dfs, &cred, &universe());
    assert_eq!(core.degraded.mode(), DegradedMode::Healthy);

    // The storm is not vacuous: every plan schedules at least one
    // membership change, and the report surfaces the reshard telemetry.
    let report = region.report();
    assert!(report.reshard_started > 0, "plan scheduled no reshard");
    assert!(report.ring_epoch > 0, "membership churn left the epoch at zero");
    let text = report.to_string();
    assert!(text.contains("ring:"), "report lost the ring line:\n{text}");
}

/// Satellite audit: a mid-batch cache-node crash must not discard the
/// healthy groups of a multi-stat. Paths whose owner is up are answered
/// from the cache; paths on the crashed owner are salvaged through the
/// retry/degraded path (served from the backup), so every slot of the
/// batch still returns Ok.
#[test]
fn multi_stat_survives_mid_batch_cache_crash() {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config = PaconConfig::new("/w", Topology::new(NODES, 1), cred);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let client = region.client(ClientId(0));
    let core = region.core();

    for d in 0..4 {
        client.mkdir(&sdir(d), &cred, 0o755).unwrap();
    }
    let paths: Vec<String> = (0..12).map(sfile).collect();
    for p in &paths {
        client.create(p, &cred, 0o644).unwrap();
    }
    drain(&region, DRAIN_ROUNDS);
    // Warm the cache so the batch is cache-resident, then crash one
    // owner mid-universe.
    for p in &paths {
        client.stat(p, &cred).unwrap();
    }
    region.apply_fault(FaultEvent::CrashCacheNode(NodeId(1)));

    let degraded_before = core.counters.get("degraded_reads");
    let stats = client.stat_many(&paths, &cred);
    assert_eq!(stats.len(), paths.len());
    for (p, st) in paths.iter().zip(&stats) {
        let st = st.as_ref().unwrap_or_else(|e| panic!("{p} lost from the batch: {e:?}"));
        assert_eq!(st.kind, FileKind::File, "{p} came back with the wrong kind");
    }
    // The crashed node's share of the batch went to the backup; the
    // healthy groups did not (the counter moved by less than the batch).
    let fell_through = core.counters.get("degraded_reads") - degraded_before;
    assert!(
        fell_through < paths.len() as u64,
        "every key fell through to the backup — healthy groups were discarded"
    );
}

// ---- the own-write memo can never land a stale write -----------------
//
// A client that wrote a file last remembers the record it stored and
// sends its next write straight to the CAS. Each test below changes the
// world under that remembered copy and checks that the write lands on
// what is there *now* — final cache and DFS content after the drain.

/// A three-node paused region with `/w/f` created, committed, written
/// (`before`) and written back, so client 0's memo holds exactly the
/// record the shard holds: same bytes, same version, same ring epoch.
fn region_with_fresh_memo(
    before: &[u8],
) -> (Arc<DfsCluster>, Arc<PaconRegion>, Vec<pacon::PaconClient>, Credentials) {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let region =
        PaconRegion::launch_paused(PaconConfig::new("/w", Topology::new(NODES, 1), cred), &dfs)
            .unwrap();
    let clients: Vec<_> = (0..NODES).map(|i| region.client(ClientId(i))).collect();
    clients[0].create("/w/f", &cred, 0o644).unwrap();
    drain(&region, DRAIN_ROUNDS);
    clients[0].write("/w/f", &cred, 0, before).unwrap();
    drain(&region, DRAIN_ROUNDS);
    // The memo is live: one more write is a single CAS, no read.
    let stats = region.core().cache_cluster.stats();
    clients[0].write("/w/f", &cred, 0, before).unwrap();
    let after = region.core().cache_cluster.stats();
    assert_eq!((after.gets - stats.gets, after.cas_ok - stats.cas_ok), (0, 1));
    drain(&region, DRAIN_ROUNDS);
    (dfs, region, clients, cred)
}

/// (b) The owning cache node crashes, restarts cold, and a stat reloads
/// the record from the DFS copy. Both membership events moved the ring
/// epoch, so the remembered version is fenced before the shard even
/// compares it.
#[test]
fn own_write_memo_is_fenced_by_a_cache_node_crash_and_restart() {
    for reload in [true, false] {
        let (dfs, region, clients, cred) = region_with_fresh_memo(b"first-payload");
        let core = region.core();
        let owner = core.cache_cluster.shard_node(b"/w/f");
        region.apply_fault(FaultEvent::CrashCacheNode(owner));
        region.apply_fault(FaultEvent::RestartCacheNode(owner));
        if reload {
            assert_eq!(clients[1].stat("/w/f", &cred).unwrap().size, 13);
        }
        let fenced = core.counters.get("wrong_epoch_retries");
        clients[0].write("/w/f", &cred, 0, b"2nd").unwrap();
        assert!(core.counters.get("wrong_epoch_retries") > fenced, "reload={reload}");
        assert_eq!(core.degraded.mode(), DegradedMode::Healthy);
        // The record in the cache is the DFS-loaded one (data on the
        // DFS), not the remembered inline copy.
        assert_eq!(clients[2].stat("/w/f", &cred).unwrap().size, 13);
        drain(&region, DRAIN_ROUNDS);
        assert_eq!(dfs.client().read("/w/f", &cred, 0, 64).unwrap(), b"2ndst-payload");
        assert_eq!(clients[0].read("/w/f", &cred, 0, 64).unwrap(), b"2ndst-payload");
    }
}

/// (b, with traffic during the outage) A write while the owner is down
/// takes the degraded path and drops the memo; after the restart and the
/// recovery the next write starts from a read again.
#[test]
fn own_write_memo_is_dropped_by_a_degraded_window() {
    let (dfs, region, clients, cred) = region_with_fresh_memo(b"first-payload");
    let core = region.core();
    let owner = core.cache_cluster.shard_node(b"/w/f");
    region.apply_fault(FaultEvent::CrashCacheNode(owner));
    clients[0].write("/w/f", &cred, 0, b"dark").unwrap();
    assert_eq!(core.degraded.mode(), DegradedMode::Degraded);
    assert!(core.counters.get("degraded_writes") > 0);
    region.apply_fault(FaultEvent::RestartCacheNode(owner));
    while core.degraded.mode() != DegradedMode::Healthy {
        core.advance(10_000_000); // past the probe interval
        clients[1].stat("/w", &cred).unwrap();
    }
    let before = core.cache_cluster.stats();
    clients[0].write("/w/f", &cred, 0, b"lit").unwrap();
    let after = core.cache_cluster.stats();
    assert!(after.gets > before.gets, "no remembered copy survived the outage");
    drain(&region, DRAIN_ROUNDS);
    assert_eq!(dfs.client().read("/w/f", &cred, 0, 64).unwrap(), b"litkt-payload");
    assert_eq!(clients[0].read("/w/f", &cred, 0, 64).unwrap(), b"litkt-payload");
}

/// (c) A live reshard moves the key between two writes of its owner-
/// writer: once while the migration is in flight, once after it
/// completed. Migration preserves versions, so only the epoch fence
/// stands between the remembered copy and a CAS routed under a view the
/// client never saw — it must trip both times, and both writes must land
/// on the record's current home.
#[test]
fn own_write_memo_is_fenced_by_a_live_reshard() {
    let (dfs, region, clients, cred) = region_with_fresh_memo(b"0000000000");
    let core = region.core();
    let cluster = &core.cache_cluster;
    let old_owner = cluster.shard_node(b"/w/f");
    region.apply_fault(FaultEvent::LeaveNode(old_owner));
    assert!(cluster.migration_active());

    let fenced = core.counters.get("wrong_epoch_retries");
    clients[0].write("/w/f", &cred, 0, b"11").unwrap();
    assert!(core.counters.get("wrong_epoch_retries") > fenced, "mid-migration");

    while cluster.migration_active() {
        region.pump_reshard(4);
    }
    assert_ne!(cluster.shard_node(b"/w/f"), old_owner, "the key moved");
    let fenced = core.counters.get("wrong_epoch_retries");
    clients[0].write("/w/f", &cred, 4, b"22").unwrap();
    assert!(core.counters.get("wrong_epoch_retries") > fenced, "after the flip");

    // ...and with the ring quiet again the memo is back in business.
    let before = cluster.stats();
    clients[0].write("/w/f", &cred, 8, b"33").unwrap();
    let after = cluster.stats();
    assert_eq!((after.gets - before.gets, after.cas_ok - before.cas_ok), (0, 1));

    assert_eq!(clients[1].read("/w/f", &cred, 0, 64).unwrap(), b"1100220033");
    drain(&region, DRAIN_ROUNDS);
    assert_eq!(dfs.client().read("/w/f", &cred, 0, 64).unwrap(), b"1100220033");
    assert_eq!(core.degraded.mode(), DegradedMode::Healthy);
}

/// (e) A bystander node stays down. The writer's memo is filled *after*
/// that crash (so no later membership event fences it), then a second
/// client, refused by the degraded region, unlinks the file against the
/// backup copy. The record survives on its healthy shard — untouched, so
/// version and epoch still match the remembered copy exactly — marked
/// only by a stale tombstone. The memo must not carry a write past that
/// mark: `NotFound`, as before.
#[test]
fn own_write_memo_does_not_bypass_a_stale_tombstone() {
    let (dfs, region, clients, cred) = region_with_fresh_memo(b"live");
    let core = region.core();
    let owner = core.cache_cluster.shard_node(b"/w/f");
    let bystander = (0..NODES).map(NodeId).find(|n| *n != owner).unwrap();
    let (dark_key, lit_key) = (probe_key_on(&region, bystander), probe_key_on(&region, owner));
    // Recover without a restart: probes that land on the healthy shard.
    let recover = || {
        while core.degraded.mode() != DegradedMode::Healthy {
            core.advance(10_000_000); // past the probe interval
            let _ = clients[2].stat(&lit_key, &cred);
        }
    };

    region.apply_fault(FaultEvent::CrashCacheNode(bystander));
    let _ = clients[1].stat(&dark_key, &cred); // burns the retry budget
    assert_eq!(core.degraded.mode(), DegradedMode::Degraded);
    recover();
    let before = core.cache_cluster.stats();
    clients[0].write("/w/f", &cred, 0, b"LIVE").unwrap();
    clients[0].write("/w/f", &cred, 0, b"LIVE").unwrap();
    let after = core.cache_cluster.stats();
    assert_eq!((after.gets - before.gets, after.cas_ok - before.cas_ok), (1, 2), "memo refilled");

    let _ = clients[1].stat(&dark_key, &cred);
    assert_eq!(core.degraded.mode(), DegradedMode::Degraded);
    clients[1].unlink("/w/f", &cred).unwrap();
    recover();

    let before = core.cache_cluster.stats();
    assert_eq!(clients[0].write("/w/f", &cred, 0, b"dead"), Err(fsapi::FsError::NotFound));
    let after = core.cache_cluster.stats();
    assert_eq!(after.cas_ok, before.cas_ok, "nothing was stored on the dead incarnation");
    drain(&region, DRAIN_ROUNDS);
    assert_eq!(dfs.client().stat("/w/f", &cred), Err(fsapi::FsError::NotFound));
    assert_eq!(clients[2].stat("/w/f", &cred), Err(fsapi::FsError::NotFound));
}

/// A path (never created) whose record would live on `node`.
fn probe_key_on(region: &PaconRegion, node: NodeId) -> String {
    (0..)
        .map(|i| format!("/w/probe{i}"))
        .find(|k| region.core().cache_cluster.shard_node(k.as_bytes()) == node)
        .unwrap()
}

/// Regression (acknowledged unlink undone in the read path): the stale
/// tombstone of (e), read by a batch that names the path twice. The stale
/// check ran per position — the first copy deleted the record and cleared
/// the mark, and the second copy handed back the dead file it had already
/// fetched. A batch checks each distinct path once.
#[test]
fn a_repeated_path_in_a_batch_does_not_resurrect_a_stale_record() {
    let (_dfs, region, clients, cred) = region_with_fresh_memo(b"live");
    let core = region.core();
    let owner = core.cache_cluster.shard_node(b"/w/f");
    let bystander = (0..NODES).map(NodeId).find(|n| *n != owner).unwrap();
    let (dark_key, lit_key) = (probe_key_on(&region, bystander), probe_key_on(&region, owner));
    region.apply_fault(FaultEvent::CrashCacheNode(bystander));
    let _ = clients[1].stat(&dark_key, &cred); // burns the retry budget
    assert_eq!(core.degraded.mode(), DegradedMode::Degraded);
    clients[1].unlink("/w/f", &cred).unwrap();
    while core.degraded.mode() != DegradedMode::Healthy {
        core.advance(10_000_000); // past the probe interval
        let _ = clients[2].stat(&lit_key, &cred);
    }

    let twice = ["/w/f".to_string(), "/w/f".to_string()];
    let gone = Err(fsapi::FsError::NotFound);
    assert_eq!(clients[2].stat_many(&twice, &cred), [gone.clone(), gone.clone()]);
    assert_eq!(clients[2].stat("/w/f", &cred), gone);
}

/// Regression (acknowledged unlink undone in the read path): a batch read
/// while the owner is down skipped the queued-unlink check a single stat
/// makes, and the backup copy — which still holds the file — answered it.
#[test]
fn a_degraded_batch_read_does_not_resurrect_a_queued_unlink() {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let region =
        PaconRegion::launch_paused(PaconConfig::new("/w", Topology::new(NODES, 1), cred), &dfs)
            .unwrap();
    let c = region.client(ClientId(0));
    let core = region.core();
    c.create("/w/f", &cred, 0o644).unwrap();
    drain(&region, DRAIN_ROUNDS);
    c.unlink("/w/f", &cred).unwrap();
    region.apply_fault(FaultEvent::CrashCacheNode(core.cache_cluster.shard_node(b"/w/f")));

    let gone = Err(fsapi::FsError::NotFound);
    assert_eq!(c.stat("/w/f", &cred), gone);
    let degraded_before = core.counters.get("degraded_reads");
    assert_eq!(c.stat_many(&["/w/f".to_string()], &cred), [gone]);
    assert_eq!(core.counters.get("degraded_reads"), degraded_before, "the backup was read");
    assert_eq!(dfs.client().stat("/w/f", &cred).map(|s| s.kind), Ok(FileKind::File));
}

/// Regression (acknowledged bytes landing in an unrelated file): a write,
/// while its path's shard is down, to a path that never existed. Nothing
/// this side of the outage tells that path from one whose creation is
/// still queued, and staging the bytes for it acknowledged them — then
/// flushed them into the next file created under that name, whose primary
/// copy reads empty. Refused like a degraded unlink of such a path.
#[test]
fn a_degraded_write_to_a_path_that_never_existed_fails_not_found() {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let region =
        PaconRegion::launch_paused(PaconConfig::new("/w", Topology::new(NODES, 1), cred), &dfs)
            .unwrap();
    let c = region.client(ClientId(0));
    let core = region.core();
    let owner = core.cache_cluster.shard_node(b"/w/ghost");
    region.apply_fault(FaultEvent::CrashCacheNode(owner));
    assert_eq!(c.write("/w/ghost", &cred, 0, b"phantom"), Err(fsapi::FsError::NotFound));
    assert_eq!(region.report().staged_files, 0);

    region.apply_fault(FaultEvent::RestartCacheNode(owner));
    while core.degraded.mode() != DegradedMode::Healthy {
        core.advance(10_000_000); // past the probe interval
        let _ = c.stat("/w", &cred);
    }
    c.create("/w/ghost", &cred, 0o644).unwrap();
    drain(&region, DRAIN_ROUNDS);
    assert_eq!(dfs.client().read("/w/ghost", &cred, 0, 64).unwrap(), b"");
    assert_eq!(c.read("/w/ghost", &cred, 0, 64).unwrap(), b"");
}

// ---- fixed seeds: the CI chaos job runs exactly these three ----------

#[test]
fn cache_storm_seed_1() {
    cache_storm(0xC1A050001, false);
}

#[test]
fn cache_storm_seed_2() {
    cache_storm(0xC1A050002, false);
}

#[test]
fn cache_storm_seed_3() {
    cache_storm(0xC1A050003, false);
}

/// This seed's plan arms three duplicated sends on node 1 twenty virtual
/// ms before the storm ends; the batches that close the storm leave
/// through the node's window: scripted duplication reaches batched
/// messages too, and the commit process drops the copies.
#[test]
fn cache_storm_under_group_commit_and_eviction_seed_1() {
    assert!(cache_storm(0xC1A050001, true) > 0, "the armed duplicates never fired");
}

#[test]
fn link_storm_seed_1() {
    for batch in [1, 32] {
        link_storm_with_writes(0x11A7_0001, batch).unwrap();
    }
}

#[test]
fn reshard_storm_seed_1() {
    reshard_storm(0x4E5A_0001);
}

#[test]
fn reshard_storm_seed_2() {
    reshard_storm(0x4E5A_0002);
}

#[test]
fn reshard_storm_seed_3() {
    reshard_storm(0x4E5A_0003);
}

/// The two regression seeds below each reproduced a distinct ordering
/// bug in the commit pipeline before the `pending_removals` /
/// `stale_tombstones` machinery existed; they stay pinned.
#[test]
fn cache_storm_regression_stale_survivor() {
    cache_storm(4830043364150732443, false);
}

#[test]
fn link_storm_regression_unlink_resurrection() {
    for batch in [1, 32] {
        link_storm_with_writes(6132581159815284870, batch).unwrap();
    }
}

// ---- randomized storms ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded storm preserves the chaos invariants.
    #[test]
    fn any_cache_storm_preserves_acked_updates(seed in any::<u64>(), pressure in any::<bool>()) {
        cache_storm(seed, pressure);
    }

    #[test]
    fn any_link_storm_preserves_acked_writes(
        seed in any::<u64>(),
        batch in prop_oneof![Just(1usize), Just(32)],
    ) {
        link_storm_with_writes(seed, batch).unwrap();
    }

    #[test]
    fn any_reshard_storm_preserves_acked_updates(seed in any::<u64>()) {
        reshard_storm(seed);
    }
}
