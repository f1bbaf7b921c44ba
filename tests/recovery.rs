//! Failure-recovery integration (Section III.G): checkpoints are subtree
//! copies on the DFS; rollback restores them and rebuilds the cache;
//! region isolation keeps failures from leaking across applications.
//!
//! Durable-mode additions: the WAL-backed commit queue must recover to the
//! program-order reference from every crash point of its log, the ones
//! during recovery included (`crash_points`, rows of
//! `workloads::crash`), find the outcomes the DFS already holds in place,
//! and not resurrect mutations that a checkpoint rollback discarded.

use std::sync::Arc;

use fsapi::{Credentials, FileSystem, FsError};
use pacon::commit::CrashSwitch;
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, FaultEvent, LatencyProfile, Topology};
use workloads::crash::WalDir;

fn dfs() -> Arc<dfs::DfsCluster> {
    dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()))
}

#[test]
fn checkpoint_copies_data_and_rollback_restores_it() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new("/job", Topology::new(2, 2), cred),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    c.mkdir("/job/data", &cred, 0o755).unwrap();
    for i in 0..8 {
        let p = format!("/job/data/f{i}");
        c.create(&p, &cred, 0o644).unwrap();
        c.write(&p, &cred, 0, format!("payload-{i}").as_bytes()).unwrap();
    }
    let stats = region.checkpoint("v1").unwrap();
    assert_eq!(stats.files, 8);
    assert!(stats.dirs >= 2);
    assert!(stats.bytes > 0);

    // Mutate after the checkpoint.
    c.unlink("/job/data/f0", &cred).unwrap();
    c.create("/job/data/extra", &cred, 0o644).unwrap();
    c.write("/job/data/f1", &cred, 0, b"OVERWRITTEN").unwrap();
    region.quiesce();

    // Roll back: exact checkpoint state, including file contents.
    region.rollback("v1").unwrap();
    let c = region.client(ClientId(1));
    for i in 0..8 {
        let p = format!("/job/data/f{i}");
        assert_eq!(c.read(&p, &cred, 0, 64).unwrap(), format!("payload-{i}").as_bytes());
    }
    assert_eq!(c.stat("/job/data/extra", &cred), Err(FsError::NotFound));
    region.shutdown().unwrap();
}

/// Regression: a client that outlives a rollback must read the restored
/// tree. Its reads load through its node's DFS mount, whose dentries for
/// `/job` and `/job/data` name the inodes the second rollback deleted —
/// unless the rollback makes every mount forget them.
#[test]
fn a_client_from_before_a_rollback_reads_the_restored_files() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let region =
        PaconRegion::launch(PaconConfig::new("/job", Topology::new(1, 1), cred), &dfs).unwrap();
    let c = region.client(ClientId(0));
    c.mkdir("/job/data", &cred, 0o755).unwrap();
    c.create("/job/data/f1", &cred, 0o644).unwrap();
    c.write("/job/data/f1", &cred, 0, b"payload-1").unwrap();
    region.checkpoint("v1").unwrap();
    region.rollback("v1").unwrap();
    // A miss: loaded from the DFS, walking `/job/data` into the mount.
    assert_eq!(c.read("/job/data/f1", &cred, 0, 64).unwrap(), b"payload-1");
    c.write("/job/data/f1", &cred, 0, b"OVERWRITE").unwrap();
    region.quiesce();
    region.rollback("v1").unwrap();
    assert_eq!(c.read("/job/data/f1", &cred, 0, 64).unwrap(), b"payload-1");
    region.shutdown().unwrap();
}

#[test]
fn rollback_to_missing_checkpoint_is_safe() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new("/job", Topology::new(1, 1), cred),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    c.create("/job/precious", &cred, 0o644).unwrap();
    // No checkpoint named "nope": rollback must refuse and leave state
    // untouched.
    assert!(region.rollback("nope").is_err());
    assert!(c.stat("/job/precious", &cred).unwrap().is_file());
    region.shutdown().unwrap();
}

#[test]
fn crash_loses_only_uncommitted_work() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new("/job", Topology::new(1, 2), cred),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    c.create("/job/committed", &cred, 0o644).unwrap();
    region.quiesce(); // this one reaches the DFS
    c.create("/job/maybe-lost", &cred, 0o644).unwrap();
    region.abort();
    drop(c);
    drop(region);

    // After restart, the committed file is there; the other may or may
    // not be (crash raced the commit) — but stat must never error oddly.
    let region = PaconRegion::launch(
        PaconConfig::new("/job", Topology::new(1, 2), cred),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    assert!(c.stat("/job/committed", &cred).unwrap().is_file());
    match c.stat("/job/maybe-lost", &cred) {
        Ok(st) => assert!(st.is_file()),
        Err(FsError::NotFound) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
    region.shutdown().unwrap();
}

/// Regression (review, dfs layer): `write_idempotent` must not skip a
/// generation-0 writeback just because the path already has a recorded
/// generation. Generation 0 means the writer could not learn the file's
/// creation generation (it predates the writer's launch) — that is
/// "unknown", not "older than everything", and the write is an
/// acknowledged one: skipping it drops durable data.
#[test]
fn generation_zero_writeback_applies_over_recorded_generations() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let fs = dfs.client();
    // Incarnation 1 creates the file durably: its generation is recorded
    // in the cluster seen-cache.
    let create_id = dfs::OpId::pack_write_id(1, 1);
    fs.apply_batch_idempotent(
        &[dfs::BatchOp::Create { path: "/f".into(), mode: 0o644 }],
        &[dfs::OpId { write_id: create_id, generation: create_id }],
        &cred,
    )
    .pop()
    .unwrap()
    .unwrap();
    // A later incarnation replays an acknowledged write that could not
    // learn the creation generation: it must apply.
    let wid = dfs::OpId { write_id: dfs::OpId::pack_write_id(2, 1), generation: 0 };
    fs.write_idempotent("/f", &cred, b"acknowledged", wid).unwrap();
    assert_eq!(
        fs.read("/f", &cred, 0, 64).unwrap(),
        b"acknowledged",
        "generation-0 writeback was skipped as stale"
    );
    assert_eq!(fs.counters.get("replay_skipped_write"), 0);
    // The exact same write replayed again (crash during recovery) still
    // no-ops by write_id identity.
    fs.write_idempotent("/f", &cred, b"acknowledged", wid).unwrap();
    assert_eq!(fs.counters.get("replay_skipped_write"), 1);
}

/// Regression (review): an acknowledged overwrite of a file created by
/// an *earlier* incarnation must survive a crash. (With the current
/// client the overwrite routes through the direct data plane — files
/// loaded from the DFS are large/committed — but the guarantee must
/// hold whichever way the client routes it; the journaled-writeback
/// variant of the same guarantee is pinned at the dfs layer above.)
#[test]
fn writeback_to_preexisting_file_recovers_across_incarnations() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = WalDir::new("recovery-preexisting");
    let config = PaconConfig::new("/job", Topology::new(1, 1), cred)
        .with_commit_batch(16)
        .with_durability(wal_dir.path());

    // Incarnation 1: create the file and commit it all the way through.
    let region = PaconRegion::launch(config.clone(), &dfs).unwrap();
    let c = region.client(ClientId(0));
    c.create("/job/f", &cred, 0o644).unwrap();
    c.write("/job/f", &cred, 0, b"old").unwrap();
    region.shutdown().unwrap();
    drop(c);
    drop(region);
    assert_eq!(dfs.client().read("/job/f", &cred, 0, 64).unwrap(), b"old");

    // Incarnation 2: overwrite — acknowledged and journaled, but the
    // node dies before the commit queue publishes it.
    let region = PaconRegion::launch_paused(config.clone(), &dfs).unwrap();
    let c = region.client(ClientId(0));
    c.write("/job/f", &cred, 0, b"new-payload").unwrap();
    region.abort();
    drop(c);
    drop(region);

    // Incarnation 3: recovery must apply the acknowledged overwrite
    // instead of skipping it as "stale".
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    assert_eq!(
        dfs.client().read("/job/f", &cred, 0, 64).unwrap(),
        b"new-payload",
        "acknowledged write to a pre-incarnation file was dropped on recovery"
    );
    assert_eq!(region.report().recovery_skipped, 0);
    drop(region);
}

/// Launch paused on `config`, publish what `log` does, and die with all
/// of it still in the commit logs; returns the relaunched region.
fn crash_and_relaunch(
    config: &PaconConfig,
    dfs: &Arc<dfs::DfsCluster>,
    log: impl FnOnce(&Arc<PaconRegion>),
) -> Arc<PaconRegion> {
    let region = PaconRegion::launch_paused(config.clone(), dfs).unwrap();
    log(&region);
    region.abort();
    drop(region);
    PaconRegion::launch_paused(config.clone(), dfs).unwrap()
}

/// The two outcome rules of recovery: a logged create whose path was
/// since created directly on the DFS, and a logged unlink whose file was
/// since removed directly, each find their intent in place. Neither is
/// skipped.
#[test]
fn recovered_ops_whose_outcome_is_in_place_are_not_skipped() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = WalDir::new("recovery-in-place");
    let config = PaconConfig::new("/job", Topology::new(1, 1), cred)
        .with_commit_batch(16)
        .with_durability(wal_dir.path());

    // Incarnation 1 commits the file the logged unlink will name.
    let region = PaconRegion::launch(config.clone(), &dfs).unwrap();
    region.client(ClientId(0)).create("/job/old", &cred, 0o644).unwrap();
    region.shutdown().unwrap();
    drop(region);

    // Incarnation 2 logs a create and the unlink; behind the log's back,
    // both outcomes land directly on the DFS.
    let region = crash_and_relaunch(&config, &dfs, |region| {
        let c = region.client(ClientId(0));
        c.create("/job/new", &cred, 0o644).unwrap();
        c.unlink("/job/old", &cred).unwrap();
        let fs = dfs.client();
        fs.create("/job/new", &cred, 0o644).unwrap();
        fs.unlink("/job/old", &cred).unwrap();
    });
    let r = region.report();
    assert_eq!(r.wal_replayed, 2);
    assert_eq!(r.recovery_applied, 2);
    assert_eq!(r.recovery_skipped, 0);
    let counters = &region.core().counters;
    assert_eq!(counters.get("recovery_exists"), 1, "the logged create found its file");
    assert_eq!(counters.get("recovery_gone"), 1, "the logged unlink found its file gone");
    assert!(dfs.client().stat("/job/new", &cred).unwrap().is_file());
    assert!(matches!(dfs.client().stat("/job/old", &cred), Err(FsError::NotFound)));
    drop(region);
}

/// Group fsync counts per node, and one sync covers every node: four
/// nodes each publishing their 4th create round-robin at batch 4 sync the
/// log once, at the first node to reach its 4th.
#[test]
fn one_group_fsync_makes_every_nodes_appends_durable() {
    const NODES: u32 = 4;
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = WalDir::new("recovery-shared-fsync");
    let config = PaconConfig::new("/job", Topology::new(NODES, 1), cred)
        .with_wal_fsync_batch(4)
        .with_durability(wal_dir.path());
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    for i in 0..4 {
        for n in 0..NODES {
            region.client(ClientId(n)).create(&format!("/job/f{n}-{i}"), &cred, 0o644).unwrap();
        }
    }
    let r = region.report();
    assert_eq!((r.wal_appended, r.wal_fsyncs), (16, 1));
    drop(region);
}

/// A logged create whose path then appeared outside the log, and the
/// logged unlink of that path behind it: the file must be gone after
/// recovery. The create has its intent in place at once; it must not
/// wait and land after the unlink. Also with the create admitted while
/// its cache shard was down (a degraded admission, logged as such).
#[test]
fn a_logged_unlink_removes_a_file_its_logged_create_found_in_place() {
    let cred = Credentials::new(1, 1);
    for degraded in [false, true] {
        let dfs = dfs();
        let wal_dir = WalDir::new("recovery-found-in-place");
        let config =
            PaconConfig::new("/job", Topology::new(2, 1), cred).with_durability(wal_dir.path());
        let region = crash_and_relaunch(&config, &dfs, |region| {
            if degraded {
                let owner = region.core().cache_cluster.shard_node(b"/job/f");
                region.apply_fault(FaultEvent::CrashCacheNode(owner));
            }
            let c = region.client(ClientId(0));
            c.create("/job/f", &cred, 0o644).unwrap();
            assert_eq!(region.core().counters.get("degraded_writes") > 0, degraded);
            dfs.client().create("/job/f", &cred, 0o644).unwrap();
            c.unlink("/job/f", &cred).unwrap();
        });
        let counters = &region.core().counters;
        let r = region.report();
        assert_eq!((r.wal_replayed, r.recovery_applied), (2, 2), "degraded {degraded}");
        assert_eq!(counters.get("recovery_exists"), 1, "degraded {degraded}");
        let got = dfs.client().stat("/job/f", &cred);
        assert!(matches!(got, Err(FsError::NotFound)), "degraded {degraded}: {got:?}");
        drop(region);
    }
}

/// A DFS error during recovery fails the launch and loses nothing: the
/// logs stay as they were, and the next launch replays them. Here the
/// first recovered create applies but its reply is lost.
#[test]
fn a_dfs_error_during_recovery_fails_the_launch_and_keeps_the_logs() {
    const FILES: u64 = 4;
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = WalDir::new("recovery-dfs-error");
    let config = PaconConfig::new("/job", Topology::new(2, 1), cred)
        .with_commit_batch(16)
        .with_durability(wal_dir.path());
    let region = PaconRegion::launch_paused(config.clone(), &dfs).unwrap();
    for i in 0..FILES {
        region.client(ClientId(i as u32 % 2)).create(&format!("/job/f{i}"), &cred, 0o644).unwrap();
    }
    region.abort();
    drop(region);

    dfs.inject_mds_reply_loss(0, 1);
    let err = match PaconRegion::launch_paused(config.clone(), &dfs) {
        Ok(_) => panic!("a recovery that met a DFS error must fail the launch"),
        Err(e) => e,
    };
    assert!(matches!(err, FsError::Backend(_)), "unexpected launch error: {err:?}");
    assert!(!CrashSwitch::is_crash_error(&err));
    assert_eq!(dfs.mds_counter("injected_reply_losses"), 1);

    let noops = dfs.mds_counter("replay_noop");
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let r = region.report();
    assert_eq!(r.wal_replayed, FILES, "the failed launch truncated no log");
    assert_eq!((r.recovery_applied, r.recovery_skipped), (FILES, 0));
    assert!(dfs.mds_counter("replay_noop") > noops, "the op that applied replays as a no-op");
    assert_eq!(dfs.client().readdir("/job", &cred).unwrap().len(), FILES as usize);
    drop(region);
}

/// Checkpoint rollback with ops buffered but never published: the
/// rollback drops them from the publish buffers *and* resets the WALs, so
/// the next launch cannot resurrect rolled-back mutations from the log.
#[test]
fn rollback_does_not_resurrect_walled_ops() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = WalDir::new("recovery-rollback");
    let config = PaconConfig::new("/job", Topology::new(1, 1), cred)
        .with_commit_batch(16)
        .with_durability(wal_dir.path());

    let region = PaconRegion::launch(config.clone(), &dfs).unwrap();
    let c = region.client(ClientId(0));
    c.create("/job/keep", &cred, 0o644).unwrap();
    c.write("/job/keep", &cred, 0, b"keep-data").unwrap();
    region.quiesce();
    region.checkpoint("v1").unwrap();

    // The node's worker dies; the app buffers three more creates that
    // never publish — but they are journaled.
    region.abort();
    for i in 0..3 {
        c.create(&format!("/job/ghost{i}"), &cred, 0o644).unwrap();
    }

    region.rollback("v1").unwrap();
    assert_eq!(region.report().rollback_dropped_ops, 3);
    drop(c);
    drop(region);

    // Relaunch on the same log directory: nothing replays, the ghosts
    // stay dead, the checkpointed file survives with its content.
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    assert_eq!(region.report().wal_replayed, 0);
    for i in 0..3 {
        assert_eq!(
            dfs.client().stat(&format!("/job/ghost{i}"), &cred),
            Err(FsError::NotFound),
            "rolled-back mutation resurrected from the WAL"
        );
    }
    assert_eq!(dfs.client().read("/job/keep", &cred, 0, 64).unwrap(), b"keep-data");
}

/// Rollback leaves the region as a fresh launch over the restored tree
/// would find it: the marks of the ops it dropped go with them. Here the
/// dropped op is an acknowledged unlink — its pending-removal mark used
/// to survive, so the read path refused to load the restored file from
/// the DFS ("a removal is still queued") for good.
#[test]
fn rollback_retires_the_marks_of_the_ops_it_drops() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new("/job", Topology::new(1, 2), cred).with_commit_batch(16),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    c.create("/job/keep", &cred, 0o644).unwrap();
    c.write("/job/keep", &cred, 0, b"keep-data").unwrap();
    region.quiesce();
    region.checkpoint("v1").unwrap();

    // The worker dies; the unlink is acknowledged and stays buffered.
    region.abort();
    c.unlink("/job/keep", &cred).unwrap();
    assert_eq!(c.stat("/job/keep", &cred), Err(FsError::NotFound));

    region.rollback("v1").unwrap();
    assert_eq!(region.report().rollback_dropped_ops, 1);
    assert_eq!(dfs.client().read("/job/keep", &cred, 0, 64).unwrap(), b"keep-data");
    for client in [c, region.client(ClientId(1))] {
        assert_eq!(client.stat("/job/keep", &cred).map(|st| st.size), Ok(9));
        assert_eq!(client.read("/job/keep", &cred, 0, 64).unwrap(), b"keep-data");
    }
}

#[test]
fn region_failure_is_isolated_from_other_regions() {
    let dfs = dfs();
    let cred_a = Credentials::new(1, 1);
    let cred_b = Credentials::new(2, 2);
    let region_a = PaconRegion::launch(
        PaconConfig::new("/appA", Topology::new(1, 1), cred_a),
        &dfs,
    )
    .unwrap();
    let region_b = PaconRegion::launch(
        PaconConfig::new("/appB", Topology::new(1, 1), cred_b),
        &dfs,
    )
    .unwrap();
    let a = region_a.client(ClientId(0));
    let b = region_b.client(ClientId(0));
    a.create("/appA/x", &cred_a, 0o644).unwrap();
    b.create("/appB/y", &cred_b, 0o644).unwrap();
    region_b.quiesce();

    // Region A crashes; region B is completely unaffected.
    region_a.abort();
    drop(a);
    drop(region_a);
    assert!(b.stat("/appB/y", &cred_b).unwrap().is_file());
    b.create("/appB/z", &cred_b, 0o644).unwrap();
    region_b.shutdown().unwrap();
    assert!(dfs.client().stat("/appB/z", &cred_b).unwrap().is_file());
}

/// Every crash point of the commit log, at commit batch 1 and 4 × fsync
/// batch 1 and 4, checked against the program-order reference: one test
/// per family of `workloads::crash`.
mod crash_points {
    use workloads::crash;

    fn at_every_setting(family: fn(usize, usize) -> usize) {
        for batch in [1, 4] {
            for fsync in [1, 4] {
                assert!(family(batch, fsync) > 1, "batch {batch}, fsync {fsync}: no rows");
            }
        }
    }

    #[test]
    fn every_cut_of_the_log() {
        at_every_setting(crash::log_cuts);
    }

    #[test]
    fn every_hit_of_the_first_incarnation() {
        at_every_setting(crash::first_incarnation_hits);
    }

    #[test]
    fn every_hit_of_recovery() {
        at_every_setting(crash::recovery_hits);
    }

    /// No crash: the whole script issued on a paused region, then one
    /// drain. An op waiting for a prerequisite holds the later ops of its
    /// path on its node, so the backup copy ends as program order says,
    /// volatile or durable.
    #[test]
    fn the_whole_script_then_one_drain() {
        use super::*;
        use workloads::history::{drain, History};
        let cred = Credentials::new(1, 1);
        for batch in [1, 4] {
            for durable in [false, true] {
                let (dir, dfs) = (WalDir::new("wholescript"), dfs());
                let config =
                    PaconConfig::new("/w", Topology::new(2, 1), cred).with_commit_batch(batch);
                let config = if durable { config.with_durability(dir.path()) } else { config };
                let region = PaconRegion::launch_paused(config, &dfs).unwrap();
                let clients = [region.client(ClientId(0)), region.client(ClientId(1))];
                let row = format!("batch {batch}, durable {durable}");
                let mut history = History::new("/w").labelled(row);
                for (client, op) in crash::script() {
                    history.issue(&clients[client], &cred, op).unwrap();
                }
                assert!(drain(&region, 10_000));
                history.assert_backup_matches(&dfs, &cred, &crash::universe());
            }
        }
    }
}
