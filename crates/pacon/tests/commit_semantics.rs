//! Deterministic commit-module semantics, driving the commit workers by
//! hand (no threads, but for one bound checked on a threaded region):
//! out-of-order independent commit with resubmission, the barrier
//! protocol, and discarding of creations under removed directories.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsError};
use pacon::commit::worker::{CommitWorker, WorkerStep};
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, Topology};

fn setup(nodes: u32) -> (Arc<DfsCluster>, Arc<PaconRegion>, Credentials) {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let config = PaconConfig::new("/w", Topology::new(nodes, 1), cred);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    (dfs, region, cred)
}

/// Step a worker until it stops making progress (no commit/discard for a
/// window of steps). A worker whose retry backlog depends on another
/// queue legitimately alternates Retried/Idle forever.
fn drain(worker: &mut CommitWorker) -> Vec<WorkerStep> {
    let mut log = Vec::new();
    let mut no_progress = 0;
    while no_progress < 20 {
        let s = worker.step();
        match s {
            WorkerStep::Committed | WorkerStep::Discarded | WorkerStep::BarrierReported => {
                no_progress = 0
            }
            _ => no_progress += 1,
        }
        log.push(s);
        if log.len() > 100_000 {
            panic!("worker did not drain (len {})", log.len());
        }
    }
    log
}

#[test]
fn child_before_parent_resubmits_until_success() {
    let (dfs, region, cred) = setup(2);
    // Parent mkdir goes to node 1's queue, child create to node 0's.
    let c0 = region.client(ClientId(0));
    let c1 = region.client(ClientId(1));
    c1.mkdir("/w/dir", &cred, 0o755).unwrap();
    c0.create("/w/dir/child", &cred, 0o644).unwrap();

    let mut w0 = region.take_worker(0);
    let mut w1 = region.take_worker(1);

    // Worker 0 tries the child first: parent missing on the DFS → retry.
    let log = drain(&mut w0);
    assert!(log.contains(&WorkerStep::Retried), "child commit must be resubmitted");
    assert_eq!(dfs.client().stat("/w/dir/child", &cred), Err(FsError::NotFound));

    // Worker 1 commits the parent.
    let log = drain(&mut w1);
    assert!(log.contains(&WorkerStep::Committed));
    assert!(dfs.client().stat("/w/dir", &cred).unwrap().is_dir());

    // Worker 0's retry now succeeds.
    let log = drain(&mut w0);
    assert!(log.contains(&WorkerStep::Committed));
    assert!(dfs.client().stat("/w/dir/child", &cred).unwrap().is_file());
    assert!(region.core().drained());
    assert!(region.core().counters.get("resubmitted") >= 1);
}

#[test]
fn unlink_before_create_converges() {
    let (dfs, region, cred) = setup(2);
    let c0 = region.client(ClientId(0));
    let c1 = region.client(ClientId(1));
    // create lands on node 0's queue; the unlink (issued later by node 1's
    // client) lands on node 1's queue. Drive the unlink first.
    c0.create("/w/tmp", &cred, 0o644).unwrap();
    c1.unlink("/w/tmp", &cred).unwrap();

    let mut w0 = region.take_worker(0);
    let mut w1 = region.take_worker(1);

    // Unlink first: file not on the DFS yet → resubmitted.
    let log = drain(&mut w1);
    assert!(log.contains(&WorkerStep::Retried));
    // Create commits.
    drain(&mut w0);
    assert!(dfs.client().stat("/w/tmp", &cred).unwrap().is_file());
    // Unlink retry now applies; final state: gone.
    drain(&mut w1);
    assert_eq!(dfs.client().stat("/w/tmp", &cred), Err(FsError::NotFound));
    assert!(region.core().drained());
}

#[test]
fn barrier_stalls_worker_until_released() {
    let (dfs, region, cred) = setup(1);
    let c = region.client(ClientId(0));
    c.create("/w/before", &cred, 0o644).unwrap();

    let mut w = region.take_worker(0);
    // Client triggers a barrier from another thread (it blocks until the
    // worker reaches the marker and the dependent op completes).
    let region2 = Arc::clone(&region);
    let t = std::thread::spawn(move || {
        region2.sync_barrier().unwrap();
    });

    // Worker: commit /w/before, consume marker, report, stall. Yield on
    // Idle — the marker is published from the other thread.
    let mut reported = false;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        match w.step() {
            WorkerStep::BarrierReported => {
                reported = true;
                break;
            }
            WorkerStep::Blocked(_) => panic!("blocked before reporting"),
            WorkerStep::Idle => std::thread::yield_now(),
            _ => {}
        }
    }
    assert!(reported, "worker must reach the barrier");
    // Everything before the marker is committed.
    assert!(dfs.client().stat("/w/before", &cred).unwrap().is_file());
    // sync_barrier's guard completes once workers reached; wait for the
    // client thread, then the worker resumes.
    t.join().unwrap();
    assert!(matches!(w.step(), WorkerStep::Idle | WorkerStep::Committed));
}

#[test]
fn creations_under_removed_dir_are_discarded() {
    let (dfs, region, cred) = setup(1);
    let c = region.client(ClientId(0));
    c.mkdir("/w/doomed", &cred, 0o755).unwrap();
    c.create("/w/doomed/a", &cred, 0o644).unwrap();

    let mut w = region.take_worker(0);
    // Run the dependent rmdir from another thread; the main thread drives
    // the worker through the barrier.
    let region2 = Arc::clone(&region);
    let rm = std::thread::spawn(move || {
        let c = region2.client(ClientId(0));
        let cred = Credentials::new(1, 1);
        c.rmdir("/w/doomed", &cred).unwrap();
        // After the rmdir returns, enqueue a create whose parent no
        // longer exists anywhere (violating the app contract): the commit
        // layer discards it once the retry budget would otherwise spin.
        assert_eq!(c.create("/w/doomed/late", &cred, 0o644), Err(FsError::NotFound));
    });

    // Drive the worker until the region fully drains.
    let mut spins = 0;
    while !region.core().drained() || !rm.is_finished() {
        if let WorkerStep::Blocked(_) = w.step() { std::thread::yield_now() }
        spins += 1;
        assert!(spins < 2_000_000, "commit never converged");
    }
    rm.join().unwrap();
    // DFS: directory gone; cache: gone too.
    assert_eq!(dfs.client().stat("/w/doomed", &cred), Err(FsError::NotFound));
    assert_eq!(c.stat("/w/doomed/a", &cred), Err(FsError::NotFound));
}

/// Ops are stamped with the last *completed* epoch, so what is published
/// after an `rmdir` returned carries that barrier's own epoch: it belongs
/// to the directory created again under the old name, not to the removed
/// one. A create whose commit process runs ahead of the new `mkdir`'s must
/// wait for it like any child-before-parent, not be discarded as racing
/// the removal.
#[test]
fn a_create_under_a_recreated_dir_is_not_discarded() {
    let (dfs, region, cred) = setup(2);
    let c0 = region.client(ClientId(0));
    let c1 = region.client(ClientId(1));
    c0.mkdir("/w/d", &cred, 0o755).unwrap();
    let mut w0 = region.take_worker(0);
    let mut w1 = region.take_worker(1);
    // The rmdir's barrier needs both commit processes; step them here.
    std::thread::scope(|s| {
        let rm = s.spawn(|| c0.rmdir("/w/d", &cred));
        while !rm.is_finished() {
            w0.step();
            w1.step();
            std::thread::yield_now();
        }
        rm.join().expect("rmdir thread").unwrap();
    });
    assert_eq!(dfs.client().stat("/w/d", &cred), Err(FsError::NotFound));

    // Same name again: the mkdir on node 0's queue, a file in it on node 1's.
    c0.mkdir("/w/d", &cred, 0o755).unwrap();
    c1.create("/w/d/f", &cred, 0o644).unwrap();
    // Node 1 first: the parent is not on the DFS yet.
    let log = drain(&mut w1);
    assert!(log.contains(&WorkerStep::Retried), "{log:?}");
    assert!(!log.contains(&WorkerStep::Discarded), "the create belongs to the new directory: {log:?}");
    drain(&mut w0);
    drain(&mut w1);

    assert_eq!(region.core().counters.get("discarded_removed_dir"), 0);
    assert!(region.core().drained());
    assert!(c1.stat("/w/d/f", &cred).unwrap().is_file());
    assert!(dfs.client().stat("/w/d/f", &cred).unwrap().is_file(), "acknowledged, so committed");
}

/// The removed-directory list is bounded: an `rmdir` that finds the region
/// drained drops the entries of earlier removals (no op in flight can carry
/// a stamp they would reject), so a long-lived region that keeps removing
/// directories holds one entry, not one per `rmdir` ever run. Threaded
/// commit processes, as in production.
#[test]
fn the_removed_directory_list_stays_bounded_across_a_thousand_rmdirs() {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region =
        PaconRegion::launch(PaconConfig::new("/w", Topology::new(2, 1), cred), &dfs).unwrap();
    let c = region.client(ClientId(0));
    for i in 0..1_000 {
        c.mkdir("/w/d", &cred, 0o755).unwrap();
        c.create(&format!("/w/d/f{i}"), &cred, 0o644).unwrap();
        region.quiesce();
        c.rmdir("/w/d", &cred).unwrap();
        assert!(region.core().in_flight().counts().removed_dirs <= 1, "rmdir #{i}");
    }
    region.shutdown().unwrap();
    assert_eq!(region.core().counters.get("discarded_removed_dir"), 0);
    assert_eq!(dfs.client().stat("/w/d", &cred), Err(FsError::NotFound));
}

/// Regression (acknowledged large write lost): a path is created, unlinked
/// and created again — the re-creation on another node — before the first
/// creation commits. That commit must not mark the re-created record
/// committed (the unlink queued behind it is about to remove the file it
/// made), so a large write to the new file stages its bytes; and the
/// unlink's commit must not wipe them — they belong to the re-creation,
/// which flushes them to the DFS when it commits.
#[test]
fn a_large_write_to_a_recreated_file_survives_the_older_incarnations_commit() {
    let (dfs, region, cred) = setup(2);
    let c0 = region.client(ClientId(0));
    let c1 = region.client(ClientId(1));
    c0.create("/w/f", &cred, 0o644).unwrap();
    c0.unlink("/w/f", &cred).unwrap();
    c1.create("/w/f", &cred, 0o644).unwrap();
    let mut w0 = region.take_worker(0);
    let mut w1 = region.take_worker(1);
    assert_eq!(w0.step(), WorkerStep::Committed, "the first creation commits");

    let data = vec![7u8; 8192];
    c1.write("/w/f", &cred, 0, &data).unwrap(); // past the small-file threshold
    drain(&mut w0); // the unlink: removes the first incarnation's file
    drain(&mut w1); // the re-creation
    assert!(region.core().drained());
    let held = |read: fsapi::FsResult<Vec<u8>>| read.map(|bytes| (bytes.len(), bytes == data));
    assert_eq!(held(dfs.client().read("/w/f", &cred, 0, 8192)), Ok((8192, true)), "DFS copy");
    assert_eq!(c1.stat("/w/f", &cred).unwrap().size, 8192);
    assert_eq!(held(c1.read("/w/f", &cred, 0, 8192)), Ok((8192, true)), "Pacon read");
}

/// Regression (acknowledged large write lost): node 0 creates and unlinks
/// a path, node 1 creates it again and writes past the small-file
/// threshold, all before node 0's creation commits. The staged bytes are
/// the re-creation's: the older creation must neither flush them into the
/// file its unlink removes (one message per step) nor drop them as its own
/// when the unlink removes it in the same run (two messages per step).
#[test]
fn a_large_write_to_a_recreated_file_survives_the_older_incarnation_in_the_queue() {
    for batch in [1, 2] {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let config = PaconConfig::new("/w", Topology::new(2, 1), cred).with_commit_batch(batch);
        let region = PaconRegion::launch_paused(config, &dfs).unwrap();
        let c0 = region.client(ClientId(0));
        let c1 = region.client(ClientId(1));
        // At batch 2 a filler closes each message, so that the unlink
        // does not cancel the creation in the publish buffer.
        let fill = |c: &pacon::PaconClient, name: &str| {
            if batch > 1 {
                c.create(&format!("/w/{name}"), &cred, 0o644).unwrap();
            }
        };
        c0.create("/w/f", &cred, 0o644).unwrap();
        fill(&c0, "a");
        c0.unlink("/w/f", &cred).unwrap();
        fill(&c0, "b");
        c1.create("/w/f", &cred, 0o644).unwrap();
        fill(&c1, "c");
        let data = vec![7u8; 8192]; // past the small-file threshold: staged
        c1.write("/w/f", &cred, 0, &data).unwrap();
        assert_eq!(region.core().in_flight().counts().staged, 1, "batch {batch}");

        let mut w0 = region.take_worker(0);
        let mut w1 = region.take_worker(1);
        drain(&mut w0);
        drain(&mut w1);
        assert!(region.core().drained(), "batch {batch}");
        assert_eq!(region.core().in_flight().counts().staged, 0, "batch {batch}");
        let held = |read: fsapi::FsResult<Vec<u8>>| read.map(|b| (b.len(), b == data));
        let dfs_copy = held(dfs.client().read("/w/f", &cred, 0, 8192));
        assert_eq!(dfs_copy, Ok((8192, true)), "batch {batch}: DFS copy");
        assert_eq!(c1.stat("/w/f", &cred).unwrap().size, 8192, "batch {batch}");
        assert_eq!(held(c1.read("/w/f", &cred, 0, 8192)), Ok((8192, true)), "batch {batch}");
    }
}

/// A run of queued messages can carry a creation, the unlink that removed
/// it and a re-creation (the publish buffer cancels such a pair only
/// within one message): three ops on one path meet in one cache settle.
/// The last op on the path decides, in one conditional write per key — no
/// version conflict is left for the per-key fallback. The re-creation's
/// staged bytes reach its file; without a re-creation, the first
/// incarnation's staged bytes go with the file the unlink removed.
#[test]
fn a_run_settles_a_path_by_its_last_op() {
    const N: usize = 3;
    for recreate in [true, false] {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let config = PaconConfig::new("/w", Topology::new(1, 1), cred).with_commit_batch(N);
        let region = PaconRegion::launch_paused(config, &dfs).unwrap();
        let c = region.client(ClientId(0));
        let data = vec![7u8; 8192]; // past the small-file threshold: staged
        // Each op on `/w/f` leads a message `N − 1` other creations fill.
        let message = |m: usize, first: &dyn Fn()| {
            first();
            for i in 0..N - 1 {
                c.create(&format!("/w/m{m}-{i}"), &cred, 0o644).unwrap();
            }
        };
        message(0, &|| {
            c.create("/w/f", &cred, 0o644).unwrap();
            if !recreate {
                c.write("/w/f", &cred, 0, &data).unwrap();
            }
        });
        message(1, &|| c.unlink("/w/f", &cred).unwrap());
        message(2, &|| {
            if recreate {
                c.create("/w/f", &cred, 0o644).unwrap();
                c.write("/w/f", &cred, 0, &data).unwrap();
            } else {
                c.create("/w/g", &cred, 0o644).unwrap();
            }
        });
        assert_eq!(region.core().outbox(0).buffered(), 0, "three queued messages");

        let cache = &region.core().cache_cluster;
        let before = cache.stats();
        let mut w = region.take_worker(0);
        let run = WorkerStep::Batch { committed: 3 * N as u32, retried: 0, discarded: 0 };
        assert_eq!(w.step(), run, "recreate={recreate}: one run");
        let after = cache.stats();
        // Seven paths; without the re-creation `/w/g` is an eighth.
        let keys = if recreate { 7 } else { 8 };
        assert_eq!(after.multi_write_keys - before.multi_write_keys, keys, "recreate={recreate}");
        assert_eq!(after.cas_conflicts - before.cas_conflicts, 0, "recreate={recreate}");
        assert_eq!(w.step(), WorkerStep::Idle);
        assert!(region.core().drained());
        assert_eq!(region.core().counters.get("resubmitted"), 0);
        assert_eq!(region.core().in_flight().counts().staged, 0);

        if recreate {
            let held = |read: fsapi::FsResult<Vec<u8>>| read.map(|b| (b.len(), b == data));
            assert_eq!(held(dfs.client().read("/w/f", &cred, 0, 8192)), Ok((8192, true)));
            assert_eq!(held(c.read("/w/f", &cred, 0, 8192)), Ok((8192, true)), "Pacon read");
            let cache = pacon::cache::MetaCache::new(cache.client(simnet::NodeId(0)));
            let (meta, _) = cache.get("/w/f").unwrap().unwrap();
            assert!(meta.committed, "the re-creation's record is committed");
        } else {
            assert_eq!(dfs.client().stat("/w/f", &cred), Err(FsError::NotFound));
            assert_eq!(c.stat("/w/f", &cred), Err(FsError::NotFound));
        }
    }
}

#[test]
fn retry_budget_drops_unsatisfiable_ops() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let mut config = PaconConfig::new("/w", Topology::new(1, 1), cred).without_parent_check();
    config.max_commit_retries = 5;
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    // Parent never created: with parent_check off the client accepts it,
    // and the commit layer must eventually give up.
    c.create("/w/ghost/f", &cred, 0o644).unwrap();
    let mut w = region.take_worker(0);
    drain(&mut w);
    assert!(region.core().drained());
    assert_eq!(region.core().counters.get("dropped_retry_budget"), 1);
    assert_eq!(dfs.client().stat("/w/ghost/f", &cred), Err(FsError::NotFound));
}

#[test]
fn commit_marks_cached_records_committed() {
    let (_dfs, region, cred) = setup(1);
    let c = region.client(ClientId(0));
    c.create("/w/f", &cred, 0o644).unwrap();
    let core = region.core();
    // Not yet committed.
    let key = core
        .cache_cluster
        .keys_with_prefix(b"/w/f");
    assert_eq!(key.len(), 1);
    let mut w = region.take_worker(0);
    drain(&mut w);
    // The worker CAS-updated the record's committed flag.
    let c2 = region.client(ClientId(0));
    let stat = c2.stat("/w/f", &cred).unwrap();
    assert!(stat.is_file());
    assert_eq!(core.counters.get("committed"), 1);
}
