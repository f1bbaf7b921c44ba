//! Failure injection: transient MDS outages must not lose committed-
//! queue operations — the independent-commit resubmission absorbs them
//! (Section III.E-1's "resubmit the operation until it succeeds").
//!
//! Group commit adds two hazards covered here: an outage striking *inside*
//! a batched message must disaggregate the failed ops into single-op
//! retries without losing or duplicating anything, and a lost reply must
//! not make the replayed creation burn its retry budget against its own
//! already-applied DFS entry.

//! Crash-kill layer: a deterministic [`CrashSwitch`], armed at launch,
//! kills the node at one of four pipeline stages — before the WAL append,
//! after the append but before the queue send, after the DFS applied a
//! message but before it settled, and after everything applied but before
//! the log truncated. The property test relaunches the region from its
//! log and checks it as `workloads::crash` checks each enumerated crash
//! point (the vendored proptest runner prints the failing seed and inputs
//! on any failure or panic, so every counterexample is replayable).

use std::sync::Arc;

use fsapi::{Credentials, FileSystem, FsError};
use pacon::commit::wal::{CrashPoint, CrashSwitch};
use pacon::commit::worker::WorkerStep;
use pacon::{PaconConfig, PaconRegion};
use proptest::prelude::*;
use simnet::{ClientId, FaultEvent, LatencyProfile, NodeId, Topology};
use workloads::crash::{check_relaunch, issue_until_crash, WalDir};
use workloads::history::{drain, History};
use workloads::FsOp;

/// Rounds a small faulted pipeline gets to settle (crash-kill schedules: 50 000).
const DRAIN_ROUNDS: u32 = 10_000;

#[test]
fn transient_mds_outage_is_absorbed_by_resubmission() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new("/job", Topology::new(1, 2), cred),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));

    // Arm 25 transient failures, then push 40 creates through.
    dfs.inject_mds_failures(0, 25);
    for i in 0..40 {
        c.create(&format!("/job/f{i:02}"), &cred, 0o644).unwrap();
    }
    region.quiesce();
    assert_eq!(dfs.mds_counter("injected_failures"), 25, "all faults fired");
    // Every create survived the outage.
    assert_eq!(dfs.client().readdir("/job", &cred).unwrap().len(), 40);
    let report = region.report();
    assert_eq!(report.committed, 40);
    assert!(report.resubmitted >= 25, "each fault forces at least one resubmission");
    region.shutdown().unwrap();
}

#[test]
fn client_side_sync_paths_surface_transient_errors() {
    // Synchronous paths (redirection, getattr misses) see the raw error —
    // Pacon does not mask DFS failures outside the commit pipeline.
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    dfs.client().create("/outside", &cred, 0o644).unwrap();
    let region = PaconRegion::launch(
        PaconConfig::new("/job", Topology::new(1, 1), cred),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    dfs.inject_mds_failures(0, 1);
    assert!(matches!(c.stat("/outside", &cred), Err(FsError::Backend(_))));
    // Next attempt succeeds (fault consumed).
    assert!(c.stat("/outside", &cred).unwrap().is_file());
    region.shutdown().unwrap();
}

#[test]
fn persistent_outage_exhausts_the_retry_budget() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let mut config = PaconConfig::new("/job", Topology::new(1, 1), cred);
    config.max_commit_retries = 10;
    let region = PaconRegion::launch(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    // Far more failures than the budget allows.
    dfs.inject_mds_failures(0, 1_000);
    c.create("/job/doomed", &cred, 0o644).unwrap();
    region.quiesce();
    let report = region.report();
    assert_eq!(report.committed, 0);
    assert_eq!(report.discarded, 1, "retry budget must bound the outage");
    // Primary copy still serves the application.
    assert!(c.stat("/job/doomed", &cred).unwrap().is_file());
    region.shutdown().unwrap();
}

/// Step node 0's commit process once, in its slot.
fn step(region: &PaconRegion) -> WorkerStep {
    region.core().step_worker(0).expect("the commit process is in its slot").0
}

/// MDS outage striking mid-batch: the failed ops disaggregate into the
/// single-op retry backlog, the rest of the batch commits, and nothing is
/// lost or duplicated. Every counter reconciles with the op count.
#[test]
fn mid_batch_outage_disaggregates_into_single_op_retries() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/job", Topology::new(1, 1), cred).with_commit_batch(8),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));

    // Exactly one full batch: the 8th create flushes the buffer.
    for i in 0..8 {
        c.create(&format!("/job/f{i}"), &cred, 0o644).unwrap();
    }
    // The outage starts before the commit process dequeues the batch and
    // fails its first 3 ops (per-request fault consumption).
    dfs.inject_mds_failures(0, 3);

    let (first, backlog_empty) = region.core().step_worker(0).unwrap();
    assert_eq!(
        first,
        WorkerStep::Batch { committed: 5, retried: 3, discarded: 0 },
        "partial batch failure must settle per-op"
    );
    assert!(!backlog_empty, "failed ops sit in the single-op retry backlog");

    // Drain: the disaggregated retries go through the plain single-op path.
    assert!(drain(&region, DRAIN_ROUNDS));

    // No lost ops, no duplicates.
    let mut names = dfs.client().readdir("/job", &cred).unwrap();
    names.sort();
    assert_eq!(names, (0..8).map(|i| format!("f{i}")).collect::<Vec<_>>());

    // Counters reconcile with the op count.
    let report = region.report();
    let counters = &region.core().counters;
    assert_eq!(report.committed, 8);
    assert_eq!(report.resubmitted, 3);
    assert_eq!(report.discarded, 0);
    assert_eq!(counters.get("commit_errors"), 0);
    assert_eq!(report.batches_flushed, 1);
    assert_eq!(report.batched_ops, 8);
    assert_eq!(report.ops_enqueued, 8);
    assert_eq!(report.ops_completed, 8);
    assert_eq!(
        report.committed + report.discarded + counters.get("commit_errors")
            + report.coalesced_cancel + report.coalesced_collapse,
        report.ops_enqueued,
        "every enqueued op must be accounted for exactly once"
    );
    // One batched RPC for the flush; the MDS saw all 8 ops inside it.
    assert_eq!(dfs.mds_counter("batch"), 1);
    assert_eq!(dfs.mds_counter("batch_ops"), 8);
    assert_eq!(dfs.mds_counter("injected_failures"), 3);
}

/// Regression: a creation whose first attempt hit a transient backend
/// fault *after* the MDS applied it (reply lost) must treat the replay's
/// `AlreadyExists` as idempotent success — not burn retry budget against
/// its own entry and miscount it as dropped.
#[test]
fn replayed_create_after_lost_reply_is_idempotent_success() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let mut config = PaconConfig::new("/job", Topology::new(1, 1), cred);
    // A tight budget makes the pre-fix failure mode (retrying
    // AlreadyExists until the budget drops the op) unmissable.
    config.max_commit_retries = 4;
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let c = region.client(ClientId(0));

    c.create("/job/once", &cred, 0o644).unwrap();
    // The create applies on the MDS but its reply is lost.
    dfs.inject_mds_reply_loss(0, 1);

    assert_eq!(step(&region), WorkerStep::Retried, "lost reply surfaces as a backend fault");
    assert!(dfs.client().stat("/job/once", &cred).unwrap().is_file(), "op applied server-side");
    assert_eq!(
        step(&region),
        WorkerStep::Committed,
        "replay must recognize its own entry instead of retrying"
    );

    let report = region.report();
    assert_eq!(report.committed, 1);
    assert_eq!(report.idempotent_replays, 1);
    assert_eq!(report.resubmitted, 1);
    assert_eq!(report.discarded, 0, "no budget burned on the replay");
    assert!(region.core().drained());
    assert!(c.stat("/job/once", &cred).unwrap().is_file());
}

/// The same lost-reply hazard inside a batch: the faulted op disaggregates
/// carrying its backend-fault history, so its single-op replay is still
/// recognized as idempotent.
#[test]
fn lost_reply_mid_batch_replays_idempotently() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let mut config =
        PaconConfig::new("/job", Topology::new(1, 1), cred).with_commit_batch(4);
    config.max_commit_retries = 4;
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let c = region.client(ClientId(0));

    for i in 0..4 {
        c.create(&format!("/job/g{i}"), &cred, 0o644).unwrap();
    }
    // First op of the batch applies but its reply is lost.
    dfs.inject_mds_reply_loss(0, 1);

    assert_eq!(step(&region), WorkerStep::Batch { committed: 3, retried: 1, discarded: 0 });
    assert_eq!(step(&region), WorkerStep::Committed, "disaggregated replay is idempotent");

    let report = region.report();
    assert_eq!(report.committed, 4);
    assert_eq!(report.idempotent_replays, 1);
    assert_eq!(report.discarded, 0);
    assert!(region.core().drained());
    let mut names = dfs.client().readdir("/job", &cred).unwrap();
    names.sort();
    assert_eq!(names, (0..4).map(|i| format!("g{i}")).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------------
// Barriers whose marker cannot be posted (partitioned commit link)
// ---------------------------------------------------------------------------

/// `checkpoint` returns `FsResult`: while a commit link refuses the
/// barrier marker it fails like the client-side barrier does, and it
/// works again once the link heals.
#[test]
fn checkpoint_fails_cleanly_while_a_commit_link_is_partitioned() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region =
        PaconRegion::launch(PaconConfig::new("/job", Topology::new(1, 1), cred), &dfs).unwrap();
    let c = region.client(ClientId(0));
    c.create("/job/f", &cred, 0o644).unwrap();
    region.quiesce();

    region.apply_fault(FaultEvent::PartitionCommitLink(NodeId(0)));
    assert!(matches!(region.checkpoint("v1"), Err(FsError::Backend(_))));
    assert_eq!(region.list_checkpoints().unwrap(), Vec::<String>::new());

    region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));
    assert_eq!(region.checkpoint("v1").unwrap().files, 1);
    region.shutdown().unwrap();
}

/// A barrier that posts node 0's marker and is refused at node 1 is
/// abandoned by its client. The marker already in node 0's queue is an
/// orphan: its commit process must skip it — not report to a barrier that
/// is over — and the region must run its next barrier normally.
#[test]
fn a_half_posted_barrier_leaves_a_stale_marker_not_a_dead_commit_process() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region =
        PaconRegion::launch_paused(PaconConfig::new("/job", Topology::new(2, 1), cred), &dfs)
            .unwrap();
    let c = region.client(ClientId(0));
    c.create("/job/f", &cred, 0o644).unwrap();

    region.apply_fault(FaultEvent::PartitionCommitLink(NodeId(1)));
    assert!(matches!(c.readdir("/job", &cred), Err(FsError::Backend(_))));
    region.apply_fault(FaultEvent::HealCommitLink(NodeId(1)));

    // Each commit process works off its queue — node 0's holds the create
    // and the orphan — and goes idle without answering the dead barrier.
    let mut workers = [region.take_worker(0), region.take_worker(1)];
    for w in &mut workers {
        let steps: Vec<WorkerStep> = (0..6).map(|_| w.step()).collect();
        assert_eq!(steps.last(), Some(&WorkerStep::Idle), "{steps:?}");
        assert!(!steps.contains(&WorkerStep::BarrierReported), "{steps:?}");
    }
    assert_eq!(region.core().counters.get("stale_barrier_markers"), 1);
    assert!(region.core().drained());
    assert!(dfs.client().stat("/job/f", &cred).unwrap().is_file());

    // The next barrier op runs to completion on both commit processes.
    let names = std::thread::scope(|s| {
        let listing = s.spawn(|| c.readdir("/job", &cred));
        while !listing.is_finished() {
            for w in &mut workers {
                w.step();
            }
            std::thread::yield_now();
        }
        listing.join().expect("readdir thread")
    });
    assert_eq!(names.unwrap(), vec!["f".to_string()]);
    assert_eq!(region.core().counters.get("stale_barrier_markers"), 1);
}

// ---------------------------------------------------------------------------
// One way out of a node: the same answers at every batch size
// ---------------------------------------------------------------------------

/// Run `probe` on a fresh one-node, two-client region in every shape the
/// commit path ships in: batch 1 (fig01–fig12) and 32 (the benchmark
/// workloads), volatile and durable. The region is paused: the probe
/// steps the commit process, or a barrier op drives it.
fn for_each_commit_shape(
    tag: &str,
    probe: impl Fn(&Arc<PaconRegion>, &Arc<dfs::DfsCluster>, &Credentials, &str),
) {
    for batch in [1, 32] {
        for durable in [false, true] {
            let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
            let cred = Credentials::new(1, 1);
            let mut config =
                PaconConfig::new("/job", Topology::new(1, 2), cred).with_commit_batch(batch);
            let wal_dir = durable.then(|| WalDir::new(tag));
            if let Some(dir) = &wal_dir {
                config = config.with_durability(dir.path());
            }
            let region = PaconRegion::launch_paused(config, &dfs).unwrap();
            let shape = format!("batch {batch}, durable {durable}");
            probe(&region, &dfs, &cred, &shape);
            assert_quiescent(&region, &shape);
        }
    }
}

/// A drained region owes nothing per path: every writeback slot released,
/// every pending-unlink stamp retired, every staged byte flushed or
/// dropped. (Generations and stale marks outlive their ops.)
fn assert_quiescent(region: &PaconRegion, shape: &str) {
    if region.core().drained() {
        let c = region.core().in_flight().counts();
        assert_eq!((c.writebacks, c.unlinks, c.staged), (0, 0, 0), "{shape}: {c:?}");
    }
}

/// One create per index, alternating between the node's two clients.
fn create_files(region: &Arc<PaconRegion>, cred: &Credentials, files: std::ops::Range<usize>) {
    let clients = [region.client(ClientId(0)), region.client(ClientId(1))];
    for i in files {
        clients[i % 2].create(&format!("/job/f{i:03}"), cred, 0o644).unwrap();
    }
}

/// A broker that crashes with four full batches inside it loses none of
/// them: the node's window still holds every message and sends it again
/// once the link is back — on the commit process's own empty-queue step,
/// nobody calls `flush_publishes`.
#[test]
fn broker_crash_keeps_every_acked_create_at_every_batch_size() {
    for_each_commit_shape("brokercrash", |region, dfs, cred, shape| {
        create_files(region, cred, 0..128);
        region.apply_fault(FaultEvent::CrashBroker(NodeId(0)));
        let lost = region.core().counters.get("broker_lost_msgs");
        assert!(lost == 4 || lost == 128, "{shape}: everything published was in the broker");
        region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));
        assert!(drain(region, DRAIN_ROUNDS), "{shape}");
        assert_eq!(dfs.client().readdir("/job", cred).unwrap().len(), 128, "{shape}");
        assert_eq!(region.report().committed, 128, "{shape}: each exactly once");
        assert_eq!(region.unacked_publishes(), 0, "{shape}");
    });
}

/// A barrier op sees every commit acknowledged before it (Table I), also
/// one that waited out a partition: the marker may not overtake it.
#[test]
fn a_barrier_after_a_heal_sees_the_acked_create_at_every_batch_size() {
    for_each_commit_shape("healbarrier", |region, _dfs, cred, shape| {
        let c = region.client(ClientId(0));
        region.apply_fault(FaultEvent::PartitionCommitLink(NodeId(0)));
        c.create("/job/acked", cred, 0o644).unwrap();
        assert!(matches!(c.readdir("/job", cred), Err(FsError::Backend(_))), "{shape}");
        region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));
        assert_eq!(c.readdir("/job", cred).unwrap(), ["acked"], "{shape}");
        region.shutdown().unwrap();
    });
}

/// What a partition held back drains once the link heals, with no barrier
/// and no explicit flush to push it.
#[test]
fn the_region_drains_after_a_heal_without_a_flush_at_every_batch_size() {
    for_each_commit_shape("healdrain", |region, dfs, cred, shape| {
        region.apply_fault(FaultEvent::PartitionCommitLink(NodeId(0)));
        // Below the threshold first (at batch 32 the window is still
        // empty and all eight wait in the buffer), then past it.
        for files in [0..8, 8..40] {
            create_files(region, cred, files);
            for _ in 0..4 {
                assert_eq!(step(region), WorkerStep::Idle, "{shape}: nothing crosses a partitioned link");
            }
        }
        assert_eq!(region.report().ops_completed, 0, "{shape}");
        region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));
        assert!(drain(region, DRAIN_ROUNDS), "{shape}");
        assert_eq!(dfs.client().readdir("/job", cred).unwrap().len(), 40, "{shape}");
    });
}

/// Rollback drops what never reached the queue wherever it waits — the
/// publish buffer or, refused by a partitioned link, the window — and
/// counts it: the rolled-back create must not reach the DFS after the heal.
#[test]
fn rollback_under_a_partition_drops_the_create_at_every_batch_size() {
    for_each_commit_shape("healrollback", |region, dfs, cred, shape| {
        region.checkpoint("empty").unwrap();
        region.apply_fault(FaultEvent::PartitionCommitLink(NodeId(0)));
        region.client(ClientId(0)).create("/job/undone", cred, 0o644).unwrap();
        region.rollback("empty").unwrap();
        assert_eq!(region.report().rollback_dropped_ops, 1, "{shape}");
        assert!(region.core().drained(), "{shape}: the dropped op is accounted for");
        region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));
        region.shutdown().unwrap();
        assert_eq!(dfs.client().stat("/job/undone", cred), Err(FsError::NotFound), "{shape}");
    });
}

/// Scripted duplication follows the messages: two armed duplicates are
/// sent twice and dropped by the commit process, whether a message is one
/// op or a batch.
#[test]
fn armed_duplicates_are_dropped_by_the_worker_at_every_batch_size() {
    for_each_commit_shape("duplicates", |region, dfs, cred, shape| {
        region.apply_fault(FaultEvent::DuplicateCommitSends { node: NodeId(0), count: 2 });
        create_files(region, cred, 0..64);
        assert!(drain(region, DRAIN_ROUNDS), "{shape}");
        while step(region) != WorkerStep::Idle {}
        assert_eq!(region.core().counters.get("duplicate_drops"), 2, "{shape}");
        assert_eq!(region.report().committed, 64, "{shape}: each exactly once");
        assert_eq!(dfs.client().readdir("/job", cred).unwrap().len(), 64, "{shape}");
    });
}

/// A barrier marker takes the node's window like every other message: one
/// that dies with a crashing broker is sent again once the link is back —
/// by the commit process's own empty-queue step — and the barrier op that
/// posted it returns. Sent around the window it was lost for good, and the
/// `readdir` with it.
#[test]
fn a_barrier_marker_lost_with_the_broker_is_sent_again_at_every_batch_size() {
    use std::time::{Duration, Instant};
    for_each_commit_shape("markerloss", |region, _dfs, cred, shape| {
        region.client(ClientId(0)).create("/job/f", cred, 0o644).unwrap();
        // Taken before the barrier starts: a barrier drives the workers the
        // region holds, and would drain the broker before the crash.
        let mut w = region.take_worker(0);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (listing, cred2) = (Arc::clone(region), *cred);
        std::thread::spawn(move || {
            let _ = done_tx.send(listing.client(ClientId(1)).readdir("/job", &cred2));
        });
        // The barrier has posted once the window holds the create and the
        // marker behind it; nobody consumes, so both sit in the broker.
        let deadline = Instant::now() + Duration::from_secs(10);
        while region.unacked_publishes() < 2 {
            assert!(Instant::now() < deadline, "{shape}: the marker never entered the window");
            std::thread::yield_now();
        }
        region.apply_fault(FaultEvent::CrashBroker(NodeId(0)));
        assert_eq!(region.core().counters.get("broker_lost_msgs"), 2, "{shape}");
        region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));

        // Resend on the empty queue, commit the create, take the marker,
        // report: three steps, then the worker is blocked on the epoch.
        let steps: Vec<WorkerStep> = (0..8).map(|_| w.step()).collect();
        assert!(steps.contains(&WorkerStep::BarrierReported), "{shape}: {steps:?}");
        let names = done_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{shape}: the barrier lost its marker and never returned"));
        assert_eq!(names.unwrap(), ["f"], "{shape}");
        assert_eq!(region.core().counters.get("stale_barrier_markers"), 0, "{shape}");
        let mut spins = 0;
        while !region.core().drained() {
            assert_ne!(w.step(), WorkerStep::Crashed, "{shape}");
            spins += 1;
            assert!(spins < 10_000, "{shape}: commit never converged");
        }
        assert_eq!(region.report().committed, 1, "{shape}: the resent create applied once");
    });
}

/// Backpressure meets redelivery. A partition leaves more messages in the
/// node's window than its commit queue holds; the first publish after the
/// heal delivers them, and keeps the node's outbox — publish buffer and
/// window, one lock — while it waits for room in the full queue. The
/// commit process acknowledges every message it takes through that outbox
/// and looks into it when its queue runs empty: it must never wait for it,
/// or the publisher waits for the commit process and the commit process
/// for the publisher.
#[test]
fn a_healed_backlog_longer_than_the_commit_queue_drains_under_backpressure() {
    // `COMMIT_QUEUE_CAPACITY` (crates/pacon/src/region.rs) and then some.
    const BACKLOG: usize = (1 << 16) + 64;
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let config = PaconConfig::new("/job", Topology::new(1, 2), cred).with_commit_batch(1);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let client = region.client(ClientId(0));
    region.apply_fault(FaultEvent::PartitionCommitLink(NodeId(0)));
    for i in 0..BACKLOG {
        client.create(&format!("/job/f{i}"), &cred, 0o644).unwrap();
    }
    assert_eq!(region.unacked_publishes(), BACKLOG);
    region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let publisher = std::thread::spawn(move || client.create("/job/last", &cred, 0o644));
    // Give the publish time to fill the queue and park, the outbox lock
    // held: the schedule that hangs a commit process that waits for it.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let stepped = Arc::clone(&region);
    std::thread::spawn(move || {
        let mut w = stepped.take_worker(0);
        // Not until drained only: the publisher has to get through first.
        while stepped.report().committed < BACKLOG as u64 + 1 {
            assert_ne!(w.step(), WorkerStep::Crashed);
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the commit process and a publisher wait for each other");
    publisher.join().unwrap().unwrap();
    assert!(region.core().drained());
    region.flush_publishes().unwrap();
    assert_eq!(region.unacked_publishes(), 0, "the next settle makes up a skipped acknowledgement");
    assert_eq!(dfs.client().readdir("/job", &cred).unwrap().len(), BACKLOG + 1);
}

// ---------------------------------------------------------------------------
// Crash-kill recovery harness (durable commit queue)
// ---------------------------------------------------------------------------

fn dir_path(d: usize) -> String {
    format!("/w/d{}", d % 4)
}
fn file_path(i: usize) -> String {
    format!("/w/d{}/f{}", (i / 3) % 4, i % 3)
}

/// Ops over the 4-dir × 3-file universe of `commit_equivalence`, plus
/// deterministic-payload writes.
fn kill_op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        2 => (0usize..4).prop_map(|d| FsOp::Mkdir(dir_path(d), 0o755)),
        4 => (0usize..12).prop_map(|i| FsOp::Create(file_path(i), 0o644)),
        2 => (0usize..12).prop_map(|i| FsOp::Unlink(file_path(i))),
        3 => ((0usize..12), any::<u8>()).prop_map(|(i, b)| FsOp::Write {
            path: file_path(i),
            offset: 0,
            data: vec![b; (b as usize % 24) + 1],
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// For every workload, every kill stage and every arming depth, the
    /// region recovered from its log passes the row check of
    /// `workloads::crash` — a recovery killed at its first run included,
    /// so the log replays twice.
    #[test]
    fn crash_kill_recovery_converges_to_oracle(
        steps in proptest::collection::vec(kill_op_strategy(), 4..24),
        nth in 1u32..4,
        use_batching in any::<bool>(),
    ) {
        let points = [
            CrashPoint::PreAppend,
            CrashPoint::PostAppend,
            CrashPoint::MidBatch,
            CrashPoint::PreTruncate,
        ];
        let universe: Vec<String> = (0..4).map(dir_path).chain((0..12).map(file_path)).collect();
        for point in points {
            let cred = Credentials::new(1, 1);
            let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
            let wal_dir = WalDir::new("crashkill-prop");
            let config = PaconConfig::new("/w", Topology::new(1, 1), cred)
                .with_commit_batch(if use_batching { 4 } else { 1 })
                .with_durability(wal_dir.path());
            let switch = CrashSwitch::armed(point, nth);
            let region = PaconRegion::launch_armed(config.clone(), &dfs, switch).unwrap();
            let mut history = History::new("/w");
            let ops = steps.iter().map(|op| (0, op.clone()));
            issue_until_crash(&mut history, &[region.client(ClientId(0))], &cred, ops);
            // Step the commit process until it drains or the node dies.
            drain(&region, 50_000);
            region.abort();
            drop(region);
            let (row, relaunch) = (format!("{point:?} #{nth}"), Some((CrashPoint::MidBatch, 1)));
            check_relaunch(&config, &dfs, &history, &universe, relaunch, 0, &row);
        }
    }
}

// ---------------------------------------------------------------------------
// Data-plane group commit: faults inside a writeback group
// ---------------------------------------------------------------------------

fn group_payload(i: usize) -> Vec<u8> {
    vec![b'a' + i as u8; 16 + i]
}

/// An MDS outage landing inside a group's size request fails exactly the
/// items it strikes; they disaggregate into the single-op retry backlog
/// and commit there, the rest of the group commits at once.
#[test]
fn outage_inside_a_size_group_retries_only_the_struck_writebacks() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/job", Topology::new(1, 1), cred).with_commit_batch(6),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    for i in 0..6 {
        c.create(&format!("/job/f{i}"), &cred, 0o644).unwrap();
    }
    // One writeback alone first: it walks `/job` into the commit process's
    // dentry cache, so the group below resolves without an MDS round.
    c.write("/job/f0", &cred, 0, b"warm").unwrap();
    assert!(drain(&region, DRAIN_ROUNDS));
    // Six writebacks, one full batch. The size request is the group's only
    // MDS round and the outage strikes its first two items.
    for i in 0..6 {
        c.write(&format!("/job/f{i}"), &cred, 0, &group_payload(i)).unwrap();
    }
    dfs.inject_mds_failures(0, 2);
    let (group, backlog_empty) = region.core().step_worker(0).unwrap();
    assert_eq!(group, WorkerStep::Batch { committed: 4, retried: 2, discarded: 0 });
    assert_eq!(dfs.mds_counter("size_batch"), 1);
    assert_eq!(dfs.mds_counter("size_batch_ops"), 6);
    assert_eq!(dfs.mds_counter("injected_failures"), 2);
    assert!(!backlog_empty);
    let sizes = |dfs: &dfs::DfsCluster| -> Vec<u64> {
        let mut files: Vec<_> =
            dfs.snapshot().into_iter().filter(|(p, _, _)| p.starts_with("/job/f")).collect();
        files.sort();
        files.into_iter().map(|(_, _, size)| size).collect()
    };
    assert_eq!(sizes(&dfs), [4, 0, 18, 19, 20, 21], "the struck items did not grow");

    assert!(drain(&region, DRAIN_ROUNDS));
    let report = region.report();
    assert_eq!(report.committed, 13);
    assert_eq!(report.resubmitted, 2);
    assert_eq!(report.discarded, 0);
    assert_eq!(dfs.mds_counter("size_batch"), 1, "retries take the single-op path");
    assert_eq!(dfs.mds_counter("set_size"), 3, "the warm-up and the two retries");
    let fs = dfs.client();
    for i in 0..6 {
        assert_eq!(fs.read(&format!("/job/f{i}"), &cred, 0, 64).unwrap(), group_payload(i));
    }
    assert_eq!(region.core().in_flight().counts().writebacks, 0, "every slot released");
}

/// A cache node that is down while a group is claimed: its records are
/// unreachable, not gone. Their writebacks must go to the retry backlog
/// (`resubmitted`), never settle as "record vanished" — the batched cache
/// read reports both as a miss. Once the node is back (cold: a crash
/// wipes it) they find no record and settle as skipped; every file whose
/// record survived has its full payload on the DFS.
#[test]
fn cache_node_down_during_the_group_claim_retries_instead_of_skipping() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/job", Topology::new(2, 1), cred).with_commit_batch(8),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    let paths: Vec<String> = (0..8).map(|i| format!("/job/f{i}")).collect();
    for p in &paths {
        c.create(p, &cred, 0o644).unwrap();
    }
    assert!(drain(&region, DRAIN_ROUNDS));
    for (i, p) in paths.iter().enumerate() {
        c.write(p, &cred, 0, &group_payload(i)).unwrap();
    }
    let victim = simnet::NodeId(1);
    let on_victim: Vec<bool> = paths
        .iter()
        .map(|p| region.core().cache_cluster.shard_node(p.as_bytes()) == victim)
        .collect();
    let down = on_victim.iter().filter(|v| **v).count() as u32;
    assert!(down > 0 && down < 8, "the eight names must spread over both shards");

    region.apply_fault(simnet::FaultEvent::CrashCacheNode(victim));
    assert_eq!(step(&region), WorkerStep::Batch { committed: 8 - down, retried: down, discarded: 0 });
    let counters = &region.core().counters;
    assert_eq!(region.report().resubmitted, down as u64);
    assert_eq!(counters.get("writeback_skipped"), 0, "unreachable is not absent");
    // Still unreachable: the single-op retries keep failing the same way.
    step(&region);
    assert_eq!(counters.get("writeback_skipped"), 0);
    assert!(region.report().resubmitted > down as u64);

    region.apply_fault(simnet::FaultEvent::RestartCacheNode(victim));
    assert!(drain(&region, DRAIN_ROUNDS));
    assert_eq!(counters.get("writeback_skipped"), down as u64, "wiped records are gone");
    assert_eq!(region.report().committed, 16);
    assert_eq!(region.report().discarded, 0);
    let fs = dfs.client();
    for (i, p) in paths.iter().enumerate() {
        let want = if on_victim[i] { Vec::new() } else { group_payload(i) };
        assert_eq!(fs.read(p, &cred, 0, 64).unwrap(), want, "{p}");
    }
    assert_eq!(region.core().in_flight().counts().writebacks, 0);
}

