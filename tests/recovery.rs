//! Failure-recovery integration (Section III.G): checkpoints are subtree
//! copies on the DFS; rollback restores them and rebuilds the cache;
//! region isolation keeps failures from leaking across applications.
//!
//! Durable-mode additions: the WAL-backed commit queue must replay
//! buffered-but-unpublished ops after a crash, survive a crash *during*
//! recovery (double replay), and must not resurrect mutations that a
//! checkpoint rollback discarded.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use fsapi::{Credentials, FileSystem, FsError};
use pacon::commit::CrashSwitch;
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, FaultEvent, LatencyProfile, Topology};

fn dfs() -> Arc<dfs::DfsCluster> {
    dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()))
}

/// A unique, empty WAL directory per test invocation.
fn fresh_wal_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pacon-recovery-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Durable mode closes the window `crash_loses_only_uncommitted_work`
/// documents: ops acknowledged locally but still sitting in the publish
/// buffer when the node dies are journaled, and the next launch replays
/// them into the DFS before serving clients.
#[test]
fn durable_region_recovers_buffered_ops_after_crash() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = fresh_wal_dir("buffered");
    let config = PaconConfig::new("/job", Topology::new(1, 1), cred)
        .with_commit_batch(16)
        .with_durability(&wal_dir);

    let region = PaconRegion::launch_paused(config.clone(), &dfs).unwrap();
    let c = region.client(ClientId(0));
    for i in 0..5 {
        let p = format!("/job/f{i}");
        c.create(&p, &cred, 0o644).unwrap();
        c.write(&p, &cred, 0, format!("payload-{i}").as_bytes()).unwrap();
    }
    // Everything is below the flush threshold: nothing reached the DFS.
    assert!(dfs.client().readdir("/job", &cred).unwrap().is_empty());
    region.abort();
    drop(c);
    drop(region);

    // Relaunch against the same log directory: recovery replays the five
    // creates and their inline snapshots before the region opens.
    let region = PaconRegion::launch_paused(config.clone(), &dfs).unwrap();
    assert_eq!(region.core().incarnation, 2);
    let r = region.report();
    assert_eq!(r.wal_replayed, 10, "5 creates + 5 writeback snapshots");
    assert_eq!(r.recovery_applied, 10);
    assert_eq!(r.recovery_skipped, 0);
    for i in 0..5 {
        let p = format!("/job/f{i}");
        assert_eq!(
            dfs.client().read(&p, &cred, 0, 64).unwrap(),
            format!("payload-{i}").as_bytes(),
            "recovered content must match the last acknowledged write"
        );
    }
    // The log was reset after replay, so every replay identity from
    // incarnation 1 is confirmed-and-gone: the launch pruned them.
    assert_eq!(dfs.seen_len(), 0, "seen-cache must not leak across recoveries");
    assert!(region.report().replay_pruned > 0);
    drop(region);

    // Recovery truncated the log: a third launch has nothing to replay.
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    assert_eq!(region.report().wal_replayed, 0);
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
    let wal_dir = fresh_wal_dir("preexisting");
    let config = PaconConfig::new("/job", Topology::new(1, 1), cred)
        .with_commit_batch(16)
        .with_durability(&wal_dir);

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

/// Crash *during* recovery: the half-replayed log replays again on the
/// next launch, and the seen-cache turns the already-applied prefix into
/// no-ops instead of double-applying it.
#[test]
fn crash_during_recovery_replays_idempotently() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = fresh_wal_dir("double-replay");
    let config = PaconConfig::new("/job", Topology::new(1, 1), cred)
        .with_commit_batch(16)
        .with_durability(&wal_dir);

    let region = PaconRegion::launch_paused(config.clone(), &dfs).unwrap();
    let c = region.client(ClientId(0));
    for i in 0..6 {
        c.create(&format!("/job/f{i}"), &cred, 0o644).unwrap();
    }
    region.abort();
    drop(c);
    drop(region);

    // First recovery attempt dies after three replayed ops, before any
    // truncation.
    let mut interrupted = config.clone();
    interrupted.recovery_crash_after = Some(3);
    let err = match PaconRegion::launch_paused(interrupted, &dfs) {
        Ok(_) => panic!("interrupted recovery must fail the launch"),
        Err(e) => e,
    };
    assert!(CrashSwitch::is_crash_error(&err), "unexpected launch error: {err}");
    assert_eq!(dfs.client().readdir("/job", &cred).unwrap().len(), 3);

    // Second attempt replays the whole log; the first three ops no-op.
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let r = region.report();
    assert_eq!(r.wal_replayed, 6);
    assert_eq!(r.recovery_applied, 6);
    assert_eq!(r.recovery_skipped, 0);
    assert!(
        dfs.mds_counter("replay_noop") >= 3,
        "the replayed prefix must be recognized, not re-applied"
    );
    let mut names = dfs.client().readdir("/job", &cred).unwrap();
    names.sort();
    assert_eq!(names, (0..6).map(|i| format!("f{i}")).collect::<Vec<_>>());
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
    let wal_dir = fresh_wal_dir("in-place");
    let config = PaconConfig::new("/job", Topology::new(1, 1), cred)
        .with_commit_batch(16)
        .with_durability(&wal_dir);

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
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Recovery truncates the log once, after the last recovered op. A crash
/// right after that op (`recovery_crash_after` = the log's length) leaves
/// the log as it was, and the next launch replays it whole.
#[test]
fn recovery_truncates_each_log_once_and_only_at_its_end() {
    const NODES: u32 = 2;
    const PER_NODE: usize = 3;
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = fresh_wal_dir("one-truncation");
    let config =
        PaconConfig::new("/job", Topology::new(NODES, 1), cred).with_durability(&wal_dir);
    let log_creates = |config: &PaconConfig, tag: &str| {
        let region = PaconRegion::launch_paused(config.clone(), &dfs).unwrap();
        for n in 0..NODES {
            let c = region.client(ClientId(n));
            for i in 0..PER_NODE {
                c.create(&format!("/job/{tag}-{n}-{i}"), &cred, 0o644).unwrap();
            }
        }
        region.abort();
    };
    let total = NODES as u64 * PER_NODE as u64;

    log_creates(&config, "a");
    let region = PaconRegion::launch_paused(config.clone(), &dfs).unwrap();
    let r = region.report();
    assert_eq!((r.wal_replayed, r.recovery_applied), (total, total));
    assert_eq!(r.wal_truncations, 1, "one truncation of the one log");
    drop(region);

    log_creates(&config, "b");
    let mut interrupted = config.clone();
    interrupted.recovery_crash_after = Some(total);
    let err = match PaconRegion::launch_paused(interrupted, &dfs) {
        Ok(_) => panic!("interrupted recovery must fail the launch"),
        Err(e) => e,
    };
    assert!(CrashSwitch::is_crash_error(&err), "unexpected launch error: {err}");
    assert_eq!(dfs.client().readdir("/job", &cred).unwrap().len(), 2 * total as usize);
    let noops = dfs.mds_counter("replay_noop");

    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let r = region.report();
    assert_eq!(r.wal_replayed, total, "the interrupted recovery truncated no log");
    assert_eq!(r.recovery_applied, total);
    assert!(dfs.mds_counter("replay_noop") - noops >= total, "the whole log replays as no-ops");
    assert_eq!(r.wal_truncations, 1);
    drop(region);
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// The log keeps publish order across nodes: a mkdir on node 1, then a
/// create in it and the unlink of that file on node 0. The unlink must not
/// count as done while the file is not there yet, or the create lands
/// after it and resurrects the file.
#[test]
fn an_unlink_behind_a_waiting_create_still_removes_the_file() {
    let cred = Credentials::new(1, 1);
    for batch in [1, 16] {
        let dfs = dfs();
        let wal_dir = fresh_wal_dir("waiting-create");
        let config = PaconConfig::new("/job", Topology::new(2, 1), cred)
            .with_commit_batch(batch)
            .with_durability(&wal_dir);
        let region = crash_and_relaunch(&config, &dfs, |region| {
            region.client(ClientId(1)).mkdir("/job/d", &cred, 0o755).unwrap();
            let c = region.client(ClientId(0));
            c.create("/job/d/f", &cred, 0o644).unwrap();
            c.unlink("/job/d/f", &cred).unwrap();
        });
        let r = region.report();
        assert_eq!((r.wal_replayed, r.recovery_applied), (3, 3), "batch {batch}");
        assert_eq!(region.core().counters.get("recovery_gone"), 0, "batch {batch}");
        let got = dfs.client().stat("/job/d/f", &cred);
        assert!(matches!(got, Err(FsError::NotFound)), "batch {batch}: {got:?}");
        drop(region);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}

/// One log orders the nodes' ops as they were published: a file created
/// on node 1 and then unlinked on node 0 replays as that create, then that
/// unlink, and stays gone.
#[test]
fn a_file_created_on_one_node_and_unlinked_on_another_stays_gone() {
    let cred = Credentials::new(1, 1);
    for batch in [1, 16] {
        let dfs = dfs();
        let wal_dir = fresh_wal_dir("cross-node");
        let config = PaconConfig::new("/job", Topology::new(2, 1), cred)
            .with_commit_batch(batch)
            .with_durability(&wal_dir);
        let region = crash_and_relaunch(&config, &dfs, |region| {
            region.client(ClientId(1)).create("/job/f", &cred, 0o644).unwrap();
            region.client(ClientId(0)).unlink("/job/f", &cred).unwrap();
        });
        let r = region.report();
        assert_eq!((r.wal_replayed, r.recovery_applied), (2, 2), "batch {batch}");
        assert_eq!(region.core().counters.get("recovery_gone"), 0, "batch {batch}");
        let got = dfs.client().stat("/job/f", &cred);
        assert!(matches!(got, Err(FsError::NotFound)), "batch {batch}: {got:?}");
        drop(region);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}

/// Group fsync counts per node, and one sync covers every node: four
/// nodes each publishing their 4th create round-robin at batch 4 sync the
/// log once, at the first node to reach its 4th.
#[test]
fn one_group_fsync_makes_every_nodes_appends_durable() {
    const NODES: u32 = 4;
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = fresh_wal_dir("shared-fsync");
    let config = PaconConfig::new("/job", Topology::new(NODES, 1), cred)
        .with_wal_fsync_batch(4)
        .with_durability(&wal_dir);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    for i in 0..4 {
        for n in 0..NODES {
            region.client(ClientId(n)).create(&format!("/job/f{n}-{i}"), &cred, 0o644).unwrap();
        }
    }
    let r = region.report();
    assert_eq!((r.wal_appended, r.wal_fsyncs), (16, 1));
    drop(region);
    let _ = std::fs::remove_dir_all(&wal_dir);
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
        let wal_dir = fresh_wal_dir("found-in-place");
        let config =
            PaconConfig::new("/job", Topology::new(2, 1), cred).with_durability(&wal_dir);
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
        let _ = std::fs::remove_dir_all(&wal_dir);
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
    let wal_dir = fresh_wal_dir("dfs-error");
    let config = PaconConfig::new("/job", Topology::new(2, 1), cred)
        .with_commit_batch(16)
        .with_durability(&wal_dir);
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
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Checkpoint rollback with ops buffered but never published: the
/// rollback drops them from the publish buffers *and* resets the WALs, so
/// the next launch cannot resurrect rolled-back mutations from the log.
#[test]
fn rollback_does_not_resurrect_walled_ops() {
    let dfs = dfs();
    let cred = Credentials::new(1, 1);
    let wal_dir = fresh_wal_dir("rollback");
    let config = PaconConfig::new("/job", Topology::new(1, 1), cred)
        .with_commit_batch(16)
        .with_durability(&wal_dir);

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
