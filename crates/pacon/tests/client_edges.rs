//! Edge cases of the client surface: region-root operations, merged
//! regions, write offsets, batched reads against the per-path trait
//! defaults, group commit over a partitioned link, the cache round-trip
//! and commit-RPC occupancy budgets, and the permission ablation flag's
//! functional correctness.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsError, MountTable, Perm};
use pacon::commit::worker::{CommitWorker, WorkerStep};
use pacon::{DegradedMode, PaconConfig, PaconRegion, RegionPermissions};
use simnet::{ClientId, FaultEvent, LatencyProfile, NodeId, Station, Topology};

fn setup() -> (Arc<DfsCluster>, Arc<PaconRegion>, Credentials) {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let region =
        PaconRegion::launch(PaconConfig::new("/app", Topology::new(2, 2), cred), &dfs).unwrap();
    (dfs, region, cred)
}

/// Drive a claimed commit worker until it has nothing left to do.
fn step_to_idle(w: &mut CommitWorker) {
    for _ in 0..1000 {
        if matches!(w.step(), WorkerStep::Idle | WorkerStep::Disconnected) {
            return;
        }
    }
    panic!("commit worker still busy after 1000 steps");
}

#[test]
fn region_root_stat_and_readdir() {
    let (_dfs, region, cred) = setup();
    let c = region.client(ClientId(0));
    let st = c.stat("/app", &cred).unwrap();
    assert!(st.is_dir());
    c.create("/app/one", &cred, 0o644).unwrap();
    c.mkdir("/app/two", &cred, 0o755).unwrap();
    let mut names = c.readdir("/app", &cred).unwrap();
    names.sort();
    assert_eq!(names, vec!["one", "two"]);
    region.shutdown().unwrap();
}

#[test]
fn sparse_writes_and_offset_reads_inline() {
    let (_dfs, region, cred) = setup();
    let c = region.client(ClientId(0));
    c.create("/app/sparse", &cred, 0o644).unwrap();
    // Write at offset 10 first: bytes 0..10 are a zero-filled hole.
    c.write("/app/sparse", &cred, 10, b"tail").unwrap();
    assert_eq!(c.stat("/app/sparse", &cred).unwrap().size, 14);
    let data = c.read("/app/sparse", &cred, 0, 64).unwrap();
    assert_eq!(&data[..10], &[0u8; 10]);
    assert_eq!(&data[10..], b"tail");
    // Overwrite part of the hole.
    c.write("/app/sparse", &cred, 2, b"mid").unwrap();
    let data = c.read("/app/sparse", &cred, 1, 5).unwrap();
    assert_eq!(data, [0, b'm', b'i', b'd', 0]);
    // Reads past EOF truncate; reads at EOF are empty.
    assert_eq!(c.read("/app/sparse", &cred, 14, 10).unwrap(), Vec::<u8>::new());
    region.shutdown().unwrap();
}

#[test]
fn write_and_read_on_directories_fail() {
    let (_dfs, region, cred) = setup();
    let c = region.client(ClientId(0));
    c.mkdir("/app/d", &cred, 0o755).unwrap();
    assert_eq!(c.write("/app/d", &cred, 0, b"x"), Err(FsError::IsADirectory));
    assert_eq!(c.read("/app/d", &cred, 0, 4), Err(FsError::IsADirectory));
    assert_eq!(c.unlink("/app/d", &cred), Err(FsError::IsADirectory));
    region.shutdown().unwrap();
}

#[test]
fn operations_on_removed_entries_fail() {
    let (_dfs, region, cred) = setup();
    let c = region.client(ClientId(0));
    c.create("/app/f", &cred, 0o644).unwrap();
    c.write("/app/f", &cred, 0, b"data").unwrap();
    c.unlink("/app/f", &cred).unwrap();
    assert_eq!(c.read("/app/f", &cred, 0, 4), Err(FsError::NotFound));
    assert_eq!(c.write("/app/f", &cred, 0, b"x"), Err(FsError::NotFound));
    assert_eq!(c.fsync("/app/f", &cred), Err(FsError::NotFound));
    region.shutdown().unwrap();
}

#[test]
fn merged_region_large_file_and_listing() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred1 = Credentials::new(1, 1);
    let cred2 = Credentials::new(2, 2);
    let r1 = PaconRegion::launch(
        PaconConfig::new("/a", Topology::new(1, 1), cred1)
            .with_permissions(RegionPermissions::uniform(0o755, cred1))
            .with_small_file_threshold(128),
        &dfs,
    )
    .unwrap();
    let r2 =
        PaconRegion::launch(PaconConfig::new("/b", Topology::new(1, 1), cred2), &dfs).unwrap();

    let p = r1.client(ClientId(0));
    p.create("/a/big.dat", &cred1, 0o644).unwrap();
    let big = vec![9u8; 4096]; // beyond r1's 128-byte threshold => large
    p.write("/a/big.dat", &cred1, 0, &big).unwrap();
    r1.quiesce(); // large-file reads of merged regions go via the DFS

    let consumer = r2.client(ClientId(0));
    consumer.merge_region(r1.handle());
    assert_eq!(consumer.stat("/a/big.dat", &cred2).unwrap().size, 4096);
    assert_eq!(consumer.read("/a/big.dat", &cred2, 4090, 10).unwrap(), vec![9u8; 6]);
    // Merged readdir serves the committed view from the DFS.
    assert_eq!(consumer.readdir("/a", &cred2).unwrap(), vec!["big.dat"]);
    // Root of the merged region stats fine.
    assert!(consumer.stat("/a", &cred2).unwrap().is_dir());
    // rmdir/fsync/mkdir into the merged region are rejected.
    assert_eq!(consumer.rmdir("/a/big.dat", &cred2), Err(FsError::PermissionDenied));
    assert_eq!(consumer.mkdir("/a/sub", &cred2, 0o755), Err(FsError::PermissionDenied));
    assert_eq!(consumer.fsync("/a/big.dat", &cred2), Err(FsError::PermissionDenied));
    r1.shutdown().unwrap();
    r2.shutdown().unwrap();
}

/// A merged region's cache is somebody else's cluster: when the shard
/// that owns a path there is down, reads degrade to the DFS copy exactly
/// like a miss.
#[test]
fn merged_region_reads_fall_back_to_dfs_when_the_foreign_shard_is_down() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred1 = Credentials::new(1, 1);
    let cred2 = Credentials::new(2, 2);
    let r1 = PaconRegion::launch(
        PaconConfig::new("/a", Topology::new(2, 1), cred1)
            .with_permissions(RegionPermissions::uniform(0o755, cred1)),
        &dfs,
    )
    .unwrap();
    let r2 =
        PaconRegion::launch(PaconConfig::new("/b", Topology::new(1, 1), cred2), &dfs).unwrap();

    let p = r1.client(ClientId(0));
    p.create("/a/small.txt", &cred1, 0o644).unwrap();
    p.write("/a/small.txt", &cred1, 0, b"inline bytes").unwrap();
    r1.quiesce(); // the DFS copy now holds the file and its data

    let consumer = r2.client(ClientId(0));
    consumer.merge_region(r1.handle());
    // Healthy: served from r1's cache.
    assert_eq!(consumer.read("/a/small.txt", &cred2, 0, 64).unwrap(), b"inline bytes");

    let owner = r1.core().cache_cluster.shard_node(b"/a/small.txt");
    r1.apply_fault(simnet::FaultEvent::CrashCacheNode(owner));
    assert_eq!(consumer.stat("/a/small.txt", &cred2).unwrap().size, 12);
    assert_eq!(consumer.read("/a/small.txt", &cred2, 7, 64).unwrap(), b"bytes");
    r1.shutdown().unwrap();
    r2.shutdown().unwrap();
}

#[test]
fn hierarchical_permission_ablation_is_functionally_equivalent() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new("/app", Topology::new(1, 1), cred)
            .with_hierarchical_permission_check(),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    c.mkdir("/app/x", &cred, 0o755).unwrap();
    c.mkdir("/app/x/y", &cred, 0o755).unwrap();
    c.create("/app/x/y/z", &cred, 0o644).unwrap();
    assert!(c.stat("/app/x/y/z", &cred).unwrap().is_file());
    let stranger = Credentials::new(9, 9);
    assert_eq!(c.stat("/app/x/y/z", &stranger), Err(FsError::PermissionDenied));
    region.shutdown().unwrap();
}

/// `PaconClient` overrides `stat_many` and `readdir_plus` with batched
/// cache reads; the overrides must answer exactly what the `FileSystem`
/// trait defaults (`stat` per path, `readdir` + `stat` per entry) answer
/// on the same process. A `MountTable` forwards the per-path calls only,
/// so a client mounted at `/` *is* the trait defaults. Each fixture runs
/// twice so both sides see every miss first (a miss loads the record),
/// and the `stat_many` list names every kind of path more than once. A
/// third pass reads with one cache node down and the region degraded,
/// then again once it is back, with a record a degraded unlink marked
/// stale still on its healthy shard: `stat` answers every position too.
#[test]
fn batched_reads_match_the_per_path_trait_defaults() {
    let owner = Credentials::new(1, 1);
    let cred = Credentials::new(2, 2);
    for (batched_first, degraded) in [(true, false), (false, false), (true, true)] {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let raw = dfs.client();

        // A foreign region to merge, committed; a directory outside
        // every region (redirected to the DFS).
        let foreign = PaconRegion::launch(
            PaconConfig::new("/a", Topology::new(2, 1), owner)
                .with_permissions(RegionPermissions::uniform(0o755, owner)),
            &dfs,
        )
        .unwrap();
        let f = foreign.client(ClientId(0));
        f.mkdir("/a/sub", &owner, 0o755).unwrap();
        f.create("/a/m", &owner, 0o644).unwrap();
        f.write("/a/m", &owner, 0, b"merged").unwrap();
        foreign.quiesce();
        raw.mkdir("/outside", &cred, 0o755).unwrap();
        raw.create("/outside/file", &cred, 0o644).unwrap();

        // The own region starts paused, so unlinks stay uncommitted.
        let region = PaconRegion::launch_paused(
            PaconConfig::new("/b", Topology::new(2, 2), cred).with_permissions(
                RegionPermissions::uniform(0o700, cred)
                    .with_special("/b/locked", Perm::new(0o000, cred.uid, cred.gid)),
            ),
            &dfs,
        )
        .unwrap();
        let batched = region.client(ClientId(0));
        batched.merge_region(foreign.handle());
        let per_path = {
            let same_process = region.client(ClientId(0));
            same_process.merge_region(foreign.handle());
            let mut table = MountTable::new();
            table.mount("/", Box::new(same_process)).unwrap();
            table
        };
        raw.mkdir("/b/locked", &cred, 0o755).unwrap();
        for p in ["/b/cold", "/b/cold-gone", "/b/locked/x"] {
            raw.create(p, &cred, 0o644).unwrap();
        }
        batched.mkdir("/b/d", &cred, 0o755).unwrap();
        batched.create("/b/hit", &cred, 0o644).unwrap();
        batched.write("/b/hit", &cred, 0, b"inline").unwrap();
        batched.create("/b/gone", &cred, 0o644).unwrap();
        batched.unlink("/b/gone", &cred).unwrap();
        batched.unlink("/b/cold-gone", &cred).unwrap();
        // "/b/stale": cached, then unlinked while another cache node is
        // down — against the backup, which marks the record stale.
        let dark = degraded.then(|| {
            raw.create("/b/stale", &cred, 0o644).unwrap();
            batched.stat("/b/stale", &cred).unwrap();
            let cluster = &region.core().cache_cluster;
            let lit = cluster.shard_node(b"/b/stale");
            let dark = cluster.nodes().iter().copied().find(|&n| n != lit).unwrap();
            region.apply_fault(FaultEvent::CrashCacheNode(dark));
            let dark_key = (0..)
                .map(|i| format!("/b/probe{i}"))
                .find(|k| cluster.shard_node(k.as_bytes()) == dark)
                .unwrap();
            // Burns the retry budget.
            assert_eq!(batched.stat(&dark_key, &cred), Err(FsError::NotFound));
            assert_eq!(region.core().degraded.mode(), DegradedMode::Degraded);
            batched.unlink("/b/stale", &cred).unwrap();
            dark
        });

        let kinds = [
            "/b",             // region root
            "/b/hit",         // cached, uncommitted
            "/b/d",           // cached directory
            "/b/cold",        // DFS-only: a miss that loads
            "/b/nope",        // nowhere
            "/b/gone",        // created and unlinked, neither committed
            "/b/cold-gone",   // on the DFS, unlink acknowledged but queued
            "/b/locked/x",    // parent denies search
            "/a/m",           // merged region, cached there
            "/a/absent",      // merged region, nowhere
            "/outside/file",  // redirected
            "/outside/absent",
            "/b/stale",       // degraded pass: marked stale
        ];
        // Every kind again in reverse order, then each twice in a row: the
        // batch names every one of them four times, some copies adjacent.
        let paths: Vec<String> = kinds
            .iter()
            .chain(kinds.iter().rev())
            .chain(kinds.iter().flat_map(|p| [p, p]))
            .map(|p| p.to_string())
            .collect();
        let (first, second): (&dyn FileSystem, &dyn FileSystem) =
            if batched_first { (&batched, &per_path) } else { (&per_path, &batched) };
        let check = |when: &str| {
            let got = first.stat_many(&paths, &cred);
            assert_eq!(got, second.stat_many(&paths, &cred), "stat_many {when}");
            for (i, p) in paths.iter().enumerate() {
                let once = kinds.iter().position(|k| k == p).unwrap();
                assert_eq!(got[i], got[once], "copy {i} of {p} {when}");
                assert_eq!(batched.stat(p, &cred), got[i], "stat of {p} {when}");
            }
            assert_eq!(got[kinds.len() - 1], Err(FsError::NotFound), "{when}");
            got
        };
        let got = check("");
        if let Some(dark) = dark {
            region.apply_fault(FaultEvent::RestartCacheNode(dark));
            region.core().advance(10_000_000); // past the probe interval
            batched.stat("/b", &cred).unwrap();
            assert_ne!(region.core().degraded.mode(), DegradedMode::Degraded);
            check("after the outage");
            foreign.shutdown().unwrap();
            continue;
        }
        assert_eq!(got[1].as_ref().map(|st| st.size), Ok(6));
        assert!(got[3].as_ref().is_ok_and(|st| st.is_file()));
        assert_eq!(
            got[5..8],
            [Err(FsError::NotFound), Err(FsError::NotFound), Err(FsError::PermissionDenied)]
        );
        assert_eq!(got[8].as_ref().map(|st| st.size), Ok(6));

        region.quiesce();
        raw.create("/b/d/cold", &cred, 0o644).unwrap();
        batched.create("/b/d/late", &cred, 0o644).unwrap();
        batched.create("/b/d/late-gone", &cred, 0o644).unwrap();
        batched.unlink("/b/d/late-gone", &cred).unwrap();
        for dir in ["/b", "/b/d", "/b/locked", "/b/hit", "/b/nope", "/a", "/a/sub", "/outside"] {
            let got = first.readdir_plus(dir, &cred);
            assert_eq!(got, second.readdir_plus(dir, &cred), "readdir_plus {dir}");
            match dir {
                "/b/d" => {
                    let names: Vec<_> = got.unwrap().into_iter().map(|(n, _)| n).collect();
                    assert_eq!(names, ["cold", "late"]);
                }
                "/b/locked" => assert_eq!(got, Err(FsError::PermissionDenied)),
                "/a" => assert_eq!(got.unwrap().len(), 2),
                _ => {}
            }
        }
        region.shutdown().unwrap();
        foreign.shutdown().unwrap();
    }
}

/// What the MDS saw of the commit traffic: `[namespace batch RPCs, ops in
/// them, size-batch RPCs, ops in them]` (a size batch is the MDS half of
/// one `write_small_batch` group).
/// A run of one op — here the op the empty-queue step cuts alone — commits
/// in the single-op request forms, which cost the MDS less for one op than
/// a batch of one (DESIGN §5.1): a volatile create or unlink is the MDS's
/// own `create` / `unlink`, a durable one a `batch` of one op (the
/// idempotent entry point), and a lone writeback is a `write`, whose size
/// update is a `set_size`, not a `size_batch`.
#[test]
fn a_run_of_one_commits_in_the_single_op_forms() {
    let names = ["create", "unlink", "batch", "batch_ops", "set_size", "size_batch"];
    for durable in [false, true] {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let config = PaconConfig::new("/app", Topology::new(1, 1), cred).with_commit_batch(32);
        let wal_dir =
            std::env::temp_dir().join(format!("pacon-edges-solo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let config = if durable { config.with_durability(&wal_dir) } else { config };
        let region = PaconRegion::launch_paused(config, &dfs).unwrap();
        let c = region.client(ClientId(0));
        let mut w = region.take_worker(0);
        let mut commit = |what: &str, op: &dyn Fn()| -> [u64; 6] {
            op();
            let before = names.map(|n| dfs.mds_counter(n));
            assert_eq!(w.step(), WorkerStep::Committed, "{what}, durable {durable}");
            let after = names.map(|n| dfs.mds_counter(n));
            std::array::from_fn(|i| after[i] - before[i])
        };
        let namespace = |[create, unlink]: [u64; 2]| {
            if durable {
                [0, 0, 1, 1, 0, 0]
            } else {
                [create, unlink, 0, 0, 0, 0]
            }
        };
        let create = commit("create", &|| c.create("/app/f", &cred, 0o644).unwrap());
        assert_eq!(create, namespace([1, 0]), "create, durable {durable}");
        let write = commit("write", &|| assert_eq!(c.write("/app/f", &cred, 0, b"x"), Ok(1)));
        assert_eq!(write, [0, 0, 0, 0, 1, 0], "write, durable {durable}");
        let unlink = commit("unlink", &|| c.unlink("/app/f", &cred).unwrap());
        assert_eq!(unlink, namespace([0, 1]), "unlink, durable {durable}");
        assert!(region.core().drained());
        drop(region);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}

fn commit_rpcs(dfs: &DfsCluster) -> [u64; 4] {
    ["batch", "batch_ops", "size_batch", "size_batch_ops"].map(|c| dfs.mds_counter(c))
}

/// Step `w` until `done`, one run of queued messages (or buffer pull) per
/// step, and hold every step to the occupancy budget: at most one RPC per
/// plane, carrying at most `n` messages of at most `n` ops each on that
/// plane — `n²` ops. Returns per batch step `[namespace ops, data ops]` as
/// the MDS counted them.
fn step_within_budget(
    w: &mut CommitWorker,
    dfs: &DfsCluster,
    n: usize,
    mut done: impl FnMut(WorkerStep) -> bool,
) -> Vec<[u64; 2]> {
    let mut batches = Vec::new();
    let mut seen = commit_rpcs(dfs);
    for _ in 0..10_000 {
        let step = w.step();
        let now = commit_rpcs(dfs);
        let [ns_rpcs, ns_ops, data_rpcs, data_ops] = std::array::from_fn(|i| now[i] - seen[i]);
        seen = now;
        let most = (n * n) as u64;
        assert!(ns_rpcs <= 1 && data_rpcs <= 1, "{step:?}: one RPC per plane per step");
        assert!(ns_ops <= most && data_ops <= most, "{step:?}: {ns_ops}/{data_ops} > {n}²");
        if matches!(step, WorkerStep::Batch { .. }) {
            batches.push([ns_ops, data_ops]);
        }
        if done(step) {
            return batches;
        }
    }
    panic!("commit worker still busy after 10000 steps");
}

/// Group commit over a partitioned commit link: a flush the link refuses
/// must not drop the batch — it waits in the node's redelivery window as
/// the bounded message it was cut into — and the backlog must reach the
/// queue in publish order once the link heals. Every op below is
/// acknowledged (its cache write landed), so every one must reach the DFS,
/// in publish order, in RPCs of at most `n` messages: through the commit
/// process's own empty-queue step, and through a barrier's flush.
#[test]
fn group_commit_keeps_acked_ops_across_a_partitioned_link() {
    const N: usize = 4;
    for heal_by_barrier in [false, true] {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let region = PaconRegion::launch_paused(
            PaconConfig::new("/app", Topology::new(1, 1), cred).with_commit_batch(N),
            &dfs,
        )
        .unwrap();
        let c = region.client(ClientId(0));
        let counters = &region.core().counters;

        // 5 × N namespace ops with 10 writebacks mixed in; each op needs
        // the one before it on the DFS first (mkdir → create → write).
        region.apply_fault(FaultEvent::PartitionCommitLink(NodeId(0)));
        for i in 0..10 {
            c.mkdir(&format!("/app/d{i}"), &cred, 0o755).unwrap();
            c.create(&format!("/app/d{i}/f"), &cred, 0o644).unwrap();
            c.write(&format!("/app/d{i}/f"), &cred, 0, format!("payload {i}").as_bytes()).unwrap();
        }
        // Every fourth namespace op cut a message: M C W M C, then four
        // times W M C W M C; the last write is still coalescing.
        assert_eq!(counters.get("publishes_buffered"), 5);
        assert_eq!(region.unacked_publishes(), 5, "refused flushes wait in the window");
        assert_eq!(region.core().outbox(0).buffered(), 1);
        let report = region.report();
        assert_eq!((report.ops_enqueued, report.ops_completed), (30, 0), "nothing lost, nothing sent");
        region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));

        let mut w = region.take_worker(0);
        let batches = if heal_by_barrier {
            // The barrier's flush empties the buffer and has the window
            // deliver the backlog before it posts its marker.
            std::thread::scope(|s| {
                s.spawn(|| region.sync_barrier());
                while region.core().outbox(0).buffered() > 0 {
                    std::thread::yield_now();
                }
                step_within_budget(&mut w, &dfs, N, |step| step == WorkerStep::BarrierReported)
            })
        } else {
            // One publish past the heal delivers the backlog ahead of
            // itself; the commit process flushes what is left below the
            // threshold.
            c.create("/app/late", &cred, 0o644).unwrap();
            step_within_budget(&mut w, &dfs, N, |step| step == WorkerStep::Idle)
        };
        // The five full messages leave as runs of at most N: 4·N + N ops.
        let backlog: Vec<u64> = batches.iter().take(2).map(|b| b[0]).collect();
        assert_eq!(backlog, [(N * N) as u64, N as u64], "backlog runs: {batches:?}");
        assert_eq!(counters.get("resubmitted"), 0, "publish order survived the backlog");

        let raw = dfs.client();
        for i in 0..10 {
            let want = format!("payload {i}").into_bytes();
            assert_eq!(raw.read(&format!("/app/d{i}/f"), &cred, 0, 64).unwrap(), want);
        }
        let ops = if heal_by_barrier { 30 } else { 31 };
        let report = region.report();
        assert_eq!((report.ops_enqueued, report.ops_completed), (ops, ops));
        assert_eq!(region.unacked_publishes(), 0);
    }
}

#[test]
fn fsync_of_committed_small_file_writes_back_synchronously() {
    let (dfs, region, cred) = setup();
    let c = region.client(ClientId(0));
    c.create("/app/cfg", &cred, 0o644).unwrap();
    region.quiesce(); // create committed
    c.write("/app/cfg", &cred, 0, b"v2-config").unwrap();
    c.fsync("/app/cfg", &cred).unwrap();
    // The backup copy holds the data right now — no quiesce needed.
    assert_eq!(dfs.client().read("/app/cfg", &cred, 0, 64).unwrap(), b"v2-config");
    region.shutdown().unwrap();
}

#[test]
fn repeated_small_writes_coalesce_into_one_writeback() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    // Paused region: the queue holds everything, so coalescing is exact.
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/app", Topology::new(1, 1), cred),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    c.create("/app/hot", &cred, 0o644).unwrap();
    for i in 0..50u8 {
        c.write("/app/hot", &cred, 0, &[i; 16]).unwrap();
    }
    let report = region.report();
    // 1 create + 1 writeback; the other 49 coalesced.
    assert_eq!(report.ops_enqueued, 2);
    assert_eq!(region.core().counters.get("writeback_coalesced"), 49);

    // Drain manually; the backup copy ends at the *newest* data.
    let mut w = region.take_worker(0);
    step_to_idle(&mut w);
    assert_eq!(dfs.client().read("/app/hot", &cred, 0, 16).unwrap(), vec![49u8; 16]);
    // After the drain, a new write queues a fresh writeback.
    c.write("/app/hot", &cred, 0, b"fresh").unwrap();
    assert_eq!(region.report().ops_enqueued, 3);
}

// ---------------------------------------------------------------------------
// Cache round trips per mutation
// ---------------------------------------------------------------------------

/// Cache round trips of one step, read from the shards' own counters:
/// `(gets, sets, cas_ok, cas_conflicts)`. Every single-key read is one
/// `gets`, `add`/`set` is one `sets`, a CAS is `cas_ok` or `cas_conflicts`
/// (a CAS that finds no record counts as neither).
fn round_trips(region: &PaconRegion, step: impl FnOnce()) -> (u64, u64, u64, u64) {
    let before = region.core().cache_cluster.stats();
    step();
    let after = region.core().cache_cluster.stats();
    (
        after.gets - before.gets,
        after.sets - before.sets,
        after.cas_ok - before.cas_ok,
        after.cas_conflicts - before.cas_conflicts,
    )
}

/// A paused region: the test decides when commit workers run, so nothing
/// but the step under measurement touches the cache.
fn paused(topology: Topology) -> (Arc<DfsCluster>, Arc<PaconRegion>, Credentials) {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region =
        PaconRegion::launch_paused(PaconConfig::new("/app", topology, cred), &dfs).unwrap();
    (dfs, region, cred)
}

/// The budget per op class. Counted, not timed: a write is one cache
/// round trip when the client already holds the record it stored last;
/// any other write or unlink is two, the read and the CAS; and a held
/// copy gone stale costs one rejected CAS on top — three, what every
/// write and unlink cost before.
#[test]
fn cache_round_trip_budget_per_op_class() {
    let (dfs, region, cred) = paused(Topology::new(2, 2));
    let raw = dfs.client();
    let c = region.client(ClientId(0));
    let other = region.client(ClientId(1));
    let mut workers = [region.take_worker(0), region.take_worker(1)];
    let mut drain = || {
        while !region.core().drained() {
            workers.iter_mut().for_each(|w| {
                w.step();
            });
        }
    };
    let write = |who: &pacon::PaconClient, path: &str, data: &[u8]| {
        who.write(path, &cred, 0, data).unwrap();
    };
    let budget = |what: &str, step: &mut dyn FnMut(), want: (u64, u64, u64, u64)| {
        assert_eq!(round_trips(&region, step), want, "{what}: (gets, sets, cas_ok, cas_conflicts)");
    };

    // create = one store.
    budget("create", &mut || c.create("/app/f", &cred, 0o644).unwrap(), (0, 1, 0, 0));
    // create -> write and write -> write: straight to the CAS.
    for data in [&b"one"[..], b"two", b"three"] {
        budget("write own file", &mut || write(&c, "/app/f", data), (0, 0, 1, 0));
    }
    // An unlink reads: it comes long after its file's last write, as a
    // rule, and a remembered copy gone stale would cost a wasted CAS. It
    // spends the memo all the same.
    c.create("/app/g", &cred, 0o644).unwrap();
    budget("unlink own file", &mut || c.unlink("/app/g", &cred).unwrap(), (1, 0, 1, 0));
    budget(
        "write after own unlink",
        &mut || assert_eq!(c.write("/app/g", &cred, 0, b"x"), Err(FsError::NotFound)),
        (1, 0, 0, 0),
    );

    // A cached record another client wrote: one read, one CAS.
    c.create("/app/h", &cred, 0o644).unwrap();
    budget("write foreign record", &mut || write(&other, "/app/f", b"2"), (1, 0, 1, 0));
    budget("unlink foreign record", &mut || other.unlink("/app/h", &cred).unwrap(), (1, 0, 1, 0));
    // ...which leaves this client's copy of /app/f stale: one rejected
    // CAS, then the same read + CAS.
    c.create("/app/i", &cred, 0o644).unwrap();
    c.write("/app/f", &cred, 0, b"x").unwrap(); // memo := /app/f, fresh again
    other.write("/app/f", &cred, 0, b"y").unwrap();
    budget("write with a stale memo", &mut || write(&c, "/app/f", b"z"), (1, 0, 1, 1));
    // The worker's mark-committed moves the record on just the same.
    c.create("/app/j", &cred, 0o644).unwrap();
    drain();
    budget("write after commit", &mut || write(&c, "/app/j", b"z"), (1, 0, 1, 1));
    budget("unlink right after", &mut || c.unlink("/app/j", &cred).unwrap(), (1, 0, 1, 0));

    // An uncached path: a miss, the DFS load (one store), read + CAS.
    for p in ["/app/cold-w", "/app/cold-u"] {
        raw.create(p, &cred, 0o644).unwrap();
    }
    budget("write uncached", &mut || write(&c, "/app/cold-w", b"w"), (2, 1, 1, 0));
    budget("unlink uncached", &mut || c.unlink("/app/cold-u", &cred).unwrap(), (2, 1, 1, 0));
    budget(
        "write nowhere",
        &mut || assert_eq!(c.write("/app/nope", &cred, 0, b"w"), Err(FsError::NotFound)),
        (1, 0, 0, 0),
    );

    drain();
    assert_eq!(raw.read("/app/f", &cred, 0, 64).unwrap(), b"zhree");
    assert_eq!(raw.read("/app/cold-w", &cred, 0, 64).unwrap(), b"w");
    for gone in ["/app/g", "/app/h", "/app/j", "/app/cold-u"] {
        assert_eq!(raw.stat(gone, &cred), Err(FsError::NotFound), "{gone}");
    }
}

/// The commit process's cache budget per message. Counted, not timed: a
/// 32-op message settles its records with one batched read and one batched
/// conditional write per owning shard node — at most 2 × 8 shard visits on
/// eight nodes — where a read and a write per op took 64. The same for the
/// deferred record deletions of a 32-unlink message.
#[test]
fn worker_cache_budget_per_message() {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::default()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/app", Topology::new(8, 1), cred).with_commit_batch(32),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    let mut w = region.take_worker(0);
    let cluster = &region.core().cache_cluster;
    let paths: Vec<String> = (0..32).map(|i| format!("/app/f{i:02}")).collect();
    let owners = paths
        .iter()
        .map(|p| cluster.shard_node(p.as_bytes()))
        .collect::<std::collections::BTreeSet<_>>()
        .len();

    for (what, op) in [("creates", 0), ("unlinks", 1)] {
        for p in &paths {
            match op {
                0 => c.create(p, &cred, 0o644).unwrap(),
                _ => c.unlink(p, &cred).unwrap(),
            }
        }
        let before = cluster.stats();
        let (step, trace) = simnet::with_recording(|| w.step());
        let after = cluster.stats();
        assert_eq!(step, WorkerStep::Batch { committed: 32, retried: 0, discarded: 0 }, "{what}");
        let visits = trace
            .segs
            .iter()
            .filter(|s| matches!(s.station, simnet::Station::KvShard(_)))
            .count();
        assert!(visits <= 2 * owners, "{what}: {visits} shard visits, {owners} owning nodes");
        assert_eq!(
            (after.multi_gets - before.multi_gets, after.multi_writes - before.multi_writes),
            (owners as u64, owners as u64),
            "{what}: one batched read and one batched write per owning node"
        );
        assert_eq!(after.multi_write_keys - before.multi_write_keys, 32, "{what}");
        assert!(region.core().drained());
    }
    // A create and an unlink, each cut alone by the empty-queue step: a run
    // of one settles per key, one read and one CAS or versioned delete.
    for (what, op) in [("lone create", 0), ("lone unlink", 1)] {
        match op {
            0 => c.create("/app/lone", &cred, 0o644).unwrap(),
            _ => c.unlink("/app/lone", &cred).unwrap(),
        }
        let before = cluster.stats();
        assert_eq!(w.step(), WorkerStep::Committed, "{what}");
        let after = cluster.stats();
        let single = [after.gets - before.gets, after.cas_ok - before.cas_ok];
        let deletes = after.deletes - before.deletes;
        let batched =
            [after.multi_gets - before.multi_gets, after.multi_writes - before.multi_writes];
        assert_eq!((single, deletes, batched), ([1, 1 - op], op, [0, 0]), "{what}");
        assert!(region.core().drained());
    }
    // Every record was marked, then deleted.
    assert!(cluster.is_empty());
    for p in &paths {
        assert_eq!(dfs.client().stat(p, &cred), Err(FsError::NotFound));
    }
}

/// The batched read's budget. Counted, not timed: a `stat_many` of 64
/// positions over 16 distinct cached paths probes the shards 16 times, and
/// each owning node is charged `kv_op + (distinct − 1)·kv_multi_per_key +
/// payload of the distinct hits`. A batch that names every path once — a
/// plain `stat_many`, a `readdir_plus` — is charged for all its positions.
#[test]
fn batched_read_budget_per_distinct_path() {
    let p = LatencyProfile::default();
    let dfs = DfsCluster::with_default_config(Arc::new(p.clone()));
    let cred = Credentials::new(1, 1);
    let region =
        PaconRegion::launch_paused(PaconConfig::new("/app", Topology::new(4, 1), cred), &dfs)
            .unwrap();
    let c = region.client(ClientId(0));
    let cluster = &region.core().cache_cluster;
    c.mkdir("/app/d", &cred, 0o755).unwrap();
    let distinct: Vec<String> = (0..16).map(|i| format!("/app/d/f{i:02}")).collect();
    for path in &distinct {
        c.create(path, &cred, 0o644).unwrap();
    }
    region.quiesce();

    // Per node, what one batched read of `keys` (each named once) costs it.
    let reader = cluster.client(NodeId(0));
    let value_len = |key: &str| reader.get(key.as_bytes()).unwrap().unwrap().0.len() as u64;
    let demand = |keys: &[String]| -> Vec<u64> {
        let per_node = |node: NodeId| {
            let group: Vec<&String> =
                keys.iter().filter(|k| cluster.shard_node(k.as_bytes()) == node).collect();
            let payload: u64 = group.iter().map(|k| value_len(k)).sum();
            match group.len() as u64 {
                0 => 0,
                n => {
                    p.kv_op
                        + (n - 1) * p.kv_multi_per_key
                        + payload.div_ceil(1024) * p.kv_payload_per_kib
                }
            }
        };
        cluster.nodes().iter().map(|&node| per_node(node)).collect()
    };
    let charged = |trace: &simnet::CostTrace| -> Vec<u64> {
        cluster.nodes().iter().map(|n| trace.station_ns(Station::KvShard(n.0))).collect()
    };
    let want = demand(&distinct);
    assert_eq!(want.iter().filter(|&&ns| ns > 0).count(), 4, "every node owns some path");

    // 64 positions, each distinct path four times, the copies interleaved.
    let repeated: Vec<String> = (0..64).map(|j| distinct[j * 5 % 16].clone()).collect();
    let before = cluster.stats();
    let (got, trace) = simnet::with_recording(|| c.stat_many(&repeated, &cred));
    let after = cluster.stats();
    assert!(got.iter().all(|r| r.as_ref().is_ok_and(|st| st.is_file())));
    assert_eq!(after.gets - before.gets, 16, "one shard probe per distinct path");
    assert_eq!(after.multi_gets - before.multi_gets, 4, "one request per owning node");
    assert_eq!(charged(&trace), want, "stat_many with repeats");

    let (_, trace) = simnet::with_recording(|| c.stat_many(&distinct, &cred));
    assert_eq!(charged(&trace), want, "stat_many without repeats");
    let (listed, trace) = simnet::with_recording(|| c.readdir_plus("/app/d", &cred));
    assert_eq!(listed.unwrap().len(), 16);
    assert_eq!(charged(&trace), want, "readdir_plus");

    // A single `stat` takes the single-key form: one shard `gets`, no
    // batched request, and its owner charged `kv_op` with no payload term.
    let before = cluster.stats();
    let (got, trace) = simnet::with_recording(|| c.stat(&distinct[0], &cred));
    let after = cluster.stats();
    assert!(got.is_ok_and(|st| st.is_file()));
    assert_eq!((after.gets - before.gets, after.multi_gets - before.multi_gets), (1, 0));
    let owner = cluster.shard_node(distinct[0].as_bytes());
    let solo: Vec<u64> =
        cluster.nodes().iter().map(|&n| if n == owner { p.kv_op } else { 0 }).collect();
    assert_eq!(charged(&trace), solo, "stat");
    region.shutdown().unwrap();
}

/// A path only the DFS holds, named three times in one `stat_many`: one
/// MDS lookup and one cache store, and every copy answers the same.
#[test]
fn a_repeated_missing_path_loads_once() {
    let (dfs, region, cred) = paused(Topology::new(2, 2));
    dfs.client().create("/app/cold", &cred, 0o644).unwrap();
    let c = region.client(ClientId(0));
    let paths = vec!["/app/cold".to_string(); 3];
    let lookups = dfs.mds_counter("lookup_stat");
    let mut got = Vec::new();
    let (gets, sets, ..) = round_trips(&region, || got = c.stat_many(&paths, &cred));
    assert_eq!(dfs.mds_counter("lookup_stat") - lookups, 1, "MDS lookup_stat");
    assert_eq!((gets, sets), (1, 1), "(shard probes, cache stores)");
    assert!(got[0].as_ref().is_ok_and(|st| st.is_file()));
    assert_eq!(got, [got[0].clone(), got[0].clone(), got[0].clone()]);
}

/// A listing while the region's cache is dark reads each child's backup
/// copy once, counted as one degraded read per child, and lists what the
/// healthy cache listed. The probe is the batched read's own: the
/// children's backup reads do not write the cache, so the listing leaves
/// the region degraded.
#[test]
fn a_degraded_readdir_plus_reads_each_child_from_the_backup() {
    let (_dfs, region, cred) = setup();
    let c = region.client(ClientId(0));
    c.mkdir("/app/d", &cred, 0o755).unwrap();
    for name in ["a", "b", "c"] {
        c.create(&format!("/app/d/{name}"), &cred, 0o644).unwrap();
    }
    c.write("/app/d/b", &cred, 0, b"bytes").unwrap();
    let mut healthy = c.readdir_plus("/app/d", &cred).unwrap();
    assert_eq!(healthy.len(), 3);

    let cluster = &region.core().cache_cluster;
    let dark = cluster.nodes()[0];
    region.apply_fault(FaultEvent::CrashCacheNode(dark));
    let dark_key =
        (0..).map(|i| format!("/app/probe{i}")).find(|k| cluster.shard_node(k.as_bytes()) == dark);
    // Burns the retry budget.
    assert_eq!(c.stat(&dark_key.unwrap(), &cred), Err(FsError::NotFound));
    assert_eq!(region.core().degraded.mode(), DegradedMode::Degraded);
    let before = region.core().counters.get("degraded_reads");
    let mut listed = c.readdir_plus("/app/d", &cred).unwrap();
    assert_eq!(region.core().counters.get("degraded_reads") - before, 3);
    let key = |l: &Vec<(String, fsapi::FileStat)>| -> Vec<(String, u64, bool)> {
        l.iter().map(|(n, st)| (n.clone(), st.size, st.is_file())).collect()
    };
    listed.sort_by(|x, y| x.0.cmp(&y.0));
    healthy.sort_by(|x, y| x.0.cmp(&y.0));
    assert_eq!(key(&listed), key(&healthy));
    assert_eq!(region.core().degraded.mode(), DegradedMode::Degraded);
    region.shutdown().unwrap();
}

/// A recovery probe succeeds only if every node it asked answered. One
/// probe interval into a degraded window, a `stat_many` over a down node
/// and a lit one gets a partial answer: it must start no rewarming, so it
/// neither burns a retry budget on the down node nor enters degraded mode
/// again — just as a single `stat` of the down node's path does.
#[test]
fn a_partial_batched_read_is_no_successful_recovery_probe() {
    for batched in [false, true] {
        let (_dfs, region, cred) = paused(Topology::new(2, 2));
        let c = region.client(ClientId(0));
        let cluster = &region.core().cache_cluster;
        let dark = cluster.nodes()[0];
        let owned_by = |lit: bool| {
            (0..).map(|i| format!("/app/p{i}")).find(|k| (cluster.shard_node(k.as_bytes()) == dark) != lit)
        };
        let (dark_path, lit_path) = (owned_by(false).unwrap(), owned_by(true).unwrap());
        region.apply_fault(FaultEvent::CrashCacheNode(dark));
        // Burns the retry budget.
        assert_eq!(c.stat(&dark_path, &cred), Err(FsError::NotFound));
        assert_eq!(region.core().degraded.mode(), DegradedMode::Degraded);

        region.core().advance(pacon::RetryPolicy::DEFAULT.deadline_ns);
        let count = |name: &str| region.core().counters.get(name);
        let before = (count("recovery_probes"), count("degraded_entered"), count("rpc_retries"));
        if batched {
            let stats = c.stat_many(&[dark_path.clone(), lit_path.clone()], &cred);
            assert!(stats.iter().all(|st| st == &Err(FsError::NotFound)), "{stats:?}");
        } else {
            assert_eq!(c.stat(&dark_path, &cred), Err(FsError::NotFound));
        }
        let after = (count("recovery_probes"), count("degraded_entered"), count("rpc_retries"));
        assert_eq!(
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            (1, 0, 0),
            "batched={batched}: (recovery_probes, degraded_entered, rpc_retries)"
        );
        assert_eq!(region.core().degraded.mode(), DegradedMode::Degraded, "batched={batched}");
    }
}

/// An update that changes nothing must not store: a write to a file that
/// is already large only decides where the bytes go (one read), and its
/// size update starts from that read (one CAS) — two round trips where
/// there were five. The worker's mark-committed of a record that already
/// says so (reloaded from the DFS copy in between) stores nothing at all.
#[test]
fn unchanged_records_are_not_stored_again() {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/app", Topology::new(1, 1), cred).with_small_file_threshold(64),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    let mut w = region.take_worker(0);

    c.create("/app/big", &cred, 0o644).unwrap();
    c.write("/app/big", &cred, 0, &[7u8; 256]).unwrap(); // goes large, staged
    step_to_idle(&mut w); // committed, staged bytes flushed
    c.stat("/app/big", &cred).unwrap();
    for offset in [256u64, 512] {
        assert_eq!(
            round_trips(&region, || {
                c.write("/app/big", &cred, offset, &[8u8; 256]).unwrap();
            }),
            (1, 0, 1, 0),
            "large write at {offset}"
        );
    }
    assert_eq!(c.stat("/app/big", &cred).unwrap().size, 768);
    assert_eq!(dfs.client().read("/app/big", &cred, 700, 100).unwrap(), vec![8u8; 68]);

    // Mark-committed of an already-committed record.
    c.create("/app/f", &cred, 0o644).unwrap();
    let cache = pacon::cache::MetaCache::new(region.core().cache_cluster.client(NodeId(0)));
    let (mut meta, _) = cache.get("/app/f").unwrap().unwrap();
    meta.committed = true;
    cache.put("/app/f", &meta).unwrap();
    let (gets, sets, cas_ok, _) = round_trips(&region, || step_to_idle(&mut w));
    assert_eq!((gets, sets, cas_ok), (1, 0, 0), "the worker read the record and left it alone");
    assert!(dfs.client().stat("/app/f", &cred).unwrap().is_file());
}

/// A file whose inline writeback is still pending stays inline past the
/// small-file threshold: a writeback that had read the record before the
/// file went large would write its older bytes over the large file's DFS
/// copy. The pending writeback carries the whole content; once it has
/// settled, the next write takes the file large.
#[test]
fn a_file_with_a_pending_writeback_stays_inline() {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/app", Topology::new(1, 1), cred).with_small_file_threshold(64),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    let mut w = region.take_worker(0);
    let cache = pacon::cache::MetaCache::new(region.core().cache_cluster.client(NodeId(0)));
    let large = || cache.get("/app/f").unwrap().unwrap().0.large;

    c.create("/app/f", &cred, 0o644).unwrap();
    step_to_idle(&mut w);
    c.write("/app/f", &cred, 0, b"tiny").unwrap(); // queues a writeback
    c.write("/app/f", &cred, 0, &[7u8; 256]).unwrap();
    assert!(!large(), "a writeback is queued: the file stays inline");
    assert_eq!(c.read("/app/f", &cred, 0, 512).unwrap(), vec![7u8; 256]);
    step_to_idle(&mut w);
    assert_eq!(dfs.client().read("/app/f", &cred, 0, 512).unwrap(), vec![7u8; 256]);

    c.write("/app/f", &cred, 256, &[8u8; 256]).unwrap();
    assert!(large(), "nothing pending: the file goes large");
    let mut both = vec![7u8; 256];
    both.extend([8u8; 256]);
    assert_eq!(dfs.client().read("/app/f", &cred, 0, 1024).unwrap(), both);
    assert_eq!(c.read("/app/f", &cred, 0, 1024).unwrap(), both);
}

/// The memo can never land a stale write (a): another client unlinks and
/// re-creates the path between this client's create and its write. The
/// write must land on the record that is there now.
#[test]
fn memo_does_not_survive_a_foreign_unlink_and_recreate() {
    let (dfs, region, cred) = paused(Topology::new(2, 1));
    let c = region.client(ClientId(0));
    let other = region.client(ClientId(1));
    c.create("/app/f", &cred, 0o644).unwrap();
    other.unlink("/app/f", &cred).unwrap();
    other.create("/app/f", &cred, 0o644).unwrap();
    other.write("/app/f", &cred, 0, b"second incarnation").unwrap();

    let trips = round_trips(&region, || {
        c.write("/app/f", &cred, 0, b"FIRST").unwrap();
    });
    assert_eq!(trips, (1, 0, 1, 1), "rejected CAS, then read + CAS");
    assert_eq!(c.read("/app/f", &cred, 0, 64).unwrap(), b"FIRSTd incarnation");

    let mut workers = [region.take_worker(0), region.take_worker(1)];
    while !region.core().drained() {
        workers.iter_mut().for_each(|w| {
            w.step();
        });
    }
    assert_eq!(dfs.client().read("/app/f", &cred, 0, 64).unwrap(), b"FIRSTd incarnation");
    assert_eq!(c.read("/app/f", &cred, 0, 64).unwrap(), b"FIRSTd incarnation");
}

/// The memo can never land a stale write (d): eviction drops the record
/// and a stat reloads it from the DFS copy in between. The reloaded
/// record says "data lives on the DFS"; the remembered inline copy must
/// not overwrite it.
#[test]
fn memo_does_not_survive_eviction_and_reload() {
    for reload in [true, false] {
        let (dfs, region, cred) = paused(Topology::new(1, 1));
        let c = region.client(ClientId(0));
        let mut w = region.take_worker(0);
        c.create("/app/f", &cred, 0o644).unwrap();
        step_to_idle(&mut w);
        c.write("/app/f", &cred, 0, b"inline-bytes").unwrap(); // memo holds the inline record
        step_to_idle(&mut w); // written back: the record is evictable
        let cache = pacon::cache::MetaCache::new(region.core().cache_cluster.client(NodeId(0)));
        assert_eq!(pacon::eviction::evict_one_entry(region.core(), &cache), 1);
        if reload {
            assert_eq!(c.stat("/app/f", &cred).unwrap().size, 12);
        }

        let trips = round_trips(&region, || {
            c.write("/app/f", &cred, 0, b"NEW").unwrap();
        });
        // Reloaded: the CAS meets another version. Not reloaded: it meets
        // no record, and the client loads it like any uncached path.
        assert_eq!(trips, if reload { (1, 0, 1, 1) } else { (1, 1, 1, 0) }, "reload={reload}");
        let (meta, _) = cache.get("/app/f").unwrap().unwrap();
        assert!(meta.large && meta.inline.is_empty(), "the DFS-loaded record stands: {meta:?}");
        step_to_idle(&mut w);
        assert!(region.core().drained());
        assert_eq!(dfs.client().read("/app/f", &cred, 0, 64).unwrap(), b"NEWine-bytes");
        assert_eq!(c.read("/app/f", &cred, 0, 64).unwrap(), b"NEWine-bytes");
    }
}

// ---------------------------------------------------------------------------
// Commit RPC occupancy
// ---------------------------------------------------------------------------

/// A run, counted: one step takes what the queue already holds, up to
/// `n` messages, and stops before a barrier marker, which the next step
/// consumes; it never pulls the publish buffer in behind a queued message,
/// and with the queue empty it takes the buffer's cut alone. One node at
/// `n` = 4, each full message 4 creates and 2 writebacks.
#[test]
fn a_run_takes_what_is_queued_up_to_a_marker() {
    const N: usize = 4;
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/app", Topology::new(1, 1), cred).with_commit_batch(N),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    let full_message = |m: usize| {
        for f in 0..N {
            let path = format!("/app/m{m}-{f}");
            c.create(&path, &cred, 0o644).unwrap();
            if f % 2 == 0 {
                c.write(&path, &cred, 0, b"bytes").unwrap();
            }
        }
    };
    (0..3).for_each(full_message);
    let mut w = region.take_worker(0);
    let mut step = |want: WorkerStep| {
        let before = commit_rpcs(&dfs);
        assert_eq!(w.step(), want);
        let after = commit_rpcs(&dfs);
        std::array::from_fn::<u64, 4, _>(|i| after[i] - before[i])
    };
    let batch = |committed| WorkerStep::Batch { committed, retried: 0, discarded: 0 };

    std::thread::scope(|s| {
        let barrier = s.spawn(|| region.sync_barrier());
        // Three messages, then the marker.
        while region.unacked_publishes() < 4 {
            std::thread::yield_now();
        }
        full_message(3);
        c.create("/app/rest-0", &cred, 0o644).unwrap();
        c.create("/app/rest-1", &cred, 0o644).unwrap();
        assert_eq!(region.core().outbox(0).buffered(), 2);

        // `[namespace RPCs, ops in them, size batches, ops in them]`.
        assert_eq!(step(batch(18)), [1, 12, 1, 6], "three messages, one RPC per plane");
        assert_eq!(step(WorkerStep::Retried), [0; 4], "the marker");
        assert_eq!(step(WorkerStep::BarrierReported), [0; 4]);
        barrier.join().unwrap().unwrap();
    });
    assert_eq!(step(batch(6)), [1, 4, 1, 2], "the message behind the marker, not the buffer");
    assert_eq!(step(batch(2)), [1, 2, 0, 0], "the empty queue's cut, alone");
    assert_eq!(step(WorkerStep::Idle), [0; 4]);
    assert!(region.core().drained());
}

/// The budget per publish mix. Counted, not timed: `commit_batch_size` is
/// ops per message *per plane* at the publisher, so a threshold flush
/// ships exactly `n` ops on the plane that filled, and messages per run at
/// the commit process, so no RPC of either plane carries more than `n²`.
/// One node, one client, `8 × n` files, all published before the commit
/// process steps:
///
/// * creates only — `n` creates per message, 8 messages: one run;
/// * create + write, 1 : 1 — messages alternate `n` creates + `n − 1`
///   writebacks and `n − 1` + `n`, 8 of them: one run, then the buffer's
///   rest (under the per-message rule, 9 RPCs per plane);
/// * create + write + unlink of an older file, 2 : 1 — the namespace plane
///   fills, the data plane rides along half full (`n` + `n/2` per
///   message), 16 of them: `⌈16 / n⌉` runs (one message at a time, 16
///   RPCs per plane).
#[test]
fn commit_rpc_occupancy_budget_per_publish_mix() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mix {
        Creates,
        CreateWrite,
        CreateWriteUnlink,
    }
    for n in [8usize, 32] {
        // Threshold flushes, and the cut of what is left below them.
        for (mix, messages, rest) in
            [(Mix::Creates, 8usize, 0), (Mix::CreateWrite, 8, 1), (Mix::CreateWriteUnlink, 16, 0)]
        {
            let runs = messages.div_ceil(n);
            let want_rpcs = [runs + rest, if mix == Mix::Creates { 0 } else { runs + rest }];
            let want_rpcs = want_rpcs.map(|r| r as u64);
            let what = format!("{mix:?} at batch {n}");
            // Only a data-server visit costs anything, and costs one: the
            // demand recorded at the data servers is the number of visits.
            let profile = LatencyProfile { data_write_per_mib: 1, ..LatencyProfile::zero() };
            let dfs = DfsCluster::with_default_config(Arc::new(profile));
            let cred = Credentials::new(1, 1);
            let region = PaconRegion::launch_paused(
                PaconConfig::new("/app", Topology::new(1, 1), cred).with_commit_batch(n),
                &dfs,
            )
            .unwrap();
            let c = region.client(ClientId(0));
            let mut w = region.take_worker(0);
            let files = 8 * n;
            if mix == Mix::CreateWriteUnlink {
                for i in 0..files {
                    c.create(&format!("/app/old{i}"), &cred, 0o644).unwrap();
                }
                step_within_budget(&mut w, &dfs, n, |step| step == WorkerStep::Idle);
            }
            let rpcs_before = commit_rpcs(&dfs);
            let client_rpcs = |w: &CommitWorker| {
                ["batch_rpcs", "small_batch_rpcs"].map(|c| w.dfs().counters.get(c))
            };
            let client_rpcs_before = client_rpcs(&w);
            let flushed_before = region.core().counters.get("batches_flushed");

            for i in 0..files {
                let f = format!("/app/f{i}");
                c.create(&f, &cred, 0o644).unwrap();
                if mix != Mix::Creates {
                    c.write(&f, &cred, 0, b"small file").unwrap();
                }
                if mix == Mix::CreateWriteUnlink {
                    c.unlink(&format!("/app/old{i}"), &cred).unwrap();
                }
            }
            // Nothing consumed yet: these are the threshold flushes, and
            // they are what the worker meets first.
            let flushed = region.core().counters.get("batches_flushed");
            let threshold = (flushed - flushed_before) as usize;
            let (batches, trace) = simnet::with_recording(|| {
                step_within_budget(&mut w, &dfs, n, |step| step == WorkerStep::Idle)
            });
            assert_eq!(threshold, messages, "{what}: threshold flushes");
            // A run of threshold flushes carries `n` of them, or all left.
            let per_message = match mix {
                Mix::Creates => n,
                Mix::CreateWrite => 2 * n - 1,
                Mix::CreateWriteUnlink => n + n / 2,
            };
            for (r, b) in batches[..runs].iter().enumerate() {
                let k = n.min(messages - r * n);
                assert_eq!(b[0] + b[1], (k * per_message) as u64, "{what}: run {r} of {k}");
            }

            let now = commit_rpcs(&dfs);
            let [ns_rpcs, ns_ops, data_rpcs, data_ops] =
                std::array::from_fn(|i| now[i] - rpcs_before[i]);
            let published = match mix {
                Mix::Creates => [files, 0],
                Mix::CreateWrite => [files, files],
                Mix::CreateWriteUnlink => [2 * files, files],
            };
            assert_eq!([ns_ops, data_ops], published.map(|ops| ops as u64), "{what}: all batched");
            assert_eq!([ns_rpcs, data_rpcs], want_rpcs, "{what}: [namespace, data] RPCs");
            // The commit process's own client counted the same requests.
            let client_now = client_rpcs(&w);
            assert_eq!(
                [client_now[0] - client_rpcs_before[0], client_now[1] - client_rpcs_before[1]],
                want_rpcs,
                "{what}"
            );
            // Each group visits each data server at most once.
            let servers = dfs.config().n_data;
            let visits: u64 =
                (0..servers).map(|i| trace.station_ns(simnet::Station::DataServer(i))).sum();
            assert!(
                (data_rpcs..=data_rpcs * servers as u64).contains(&visits),
                "{what}: {visits} data-server visits for {data_rpcs} groups"
            );
            assert!(region.core().drained());
        }
    }
}
