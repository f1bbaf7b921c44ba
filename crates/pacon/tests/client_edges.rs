//! Edge cases of the client surface: region-root operations, merged
//! regions, write offsets, batched reads against the per-path trait
//! defaults, group commit over a partitioned link, and the permission
//! ablation flag's functional correctness.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsError, MountTable, Perm};
use pacon::commit::worker::{CommitWorker, WorkerStep};
use pacon::{PaconConfig, PaconRegion, RegionPermissions};
use simnet::{ClientId, FaultEvent, LatencyProfile, NodeId, Topology};

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
/// twice so both sides see every miss first (a miss loads the record).
#[test]
fn batched_reads_match_the_per_path_trait_defaults() {
    let owner = Credentials::new(1, 1);
    let cred = Credentials::new(2, 2);
    for batched_first in [true, false] {
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

        let paths: Vec<String> = [
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
        ]
        .map(String::from)
        .to_vec();
        let (first, second): (&dyn FileSystem, &dyn FileSystem) =
            if batched_first { (&batched, &per_path) } else { (&per_path, &batched) };
        let got = first.stat_many(&paths, &cred);
        assert_eq!(got, second.stat_many(&paths, &cred), "stat_many");
        assert_eq!(got[1].as_ref().map(|st| st.size), Ok(6));
        assert!(got[3].as_ref().is_ok_and(|st| st.is_file()));
        assert_eq!(
            got[5..8],
            [Err(FsError::NotFound), Err(FsError::NotFound), Err(FsError::PermissionDenied)]
        );
        assert_eq!(got[8].as_ref().map(|st| st.size), Ok(6));

        // Listings need live commit processes (readdir is a barrier op).
        region.start_worker_threads();
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

/// Group commit over a partitioned commit link: a flush the link refuses
/// must not drop the batch. Every create below is acknowledged (its cache
/// write landed), so every one must reach the DFS once the link heals.
#[test]
fn group_commit_keeps_acked_ops_across_a_partitioned_link() {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch_paused(
        PaconConfig::new("/app", Topology::new(1, 1), cred).with_commit_batch(4),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    let files: Vec<String> = (0..8).map(|i| format!("/app/f{i}")).collect();

    region.apply_fault(FaultEvent::PartitionCommitLink(NodeId(0)));
    let acked = files.iter().filter(|f| c.create(f, &cred, 0o644).is_ok()).count();
    assert_eq!(acked, 8, "the cache write landed, so the create is acknowledged");
    assert!(region.core().counters.get("publishes_buffered") > 0);

    region.apply_fault(FaultEvent::HealCommitLink(NodeId(0)));
    c.flush_publishes().unwrap();
    let mut w = region.take_worker(0);
    step_to_idle(&mut w);
    let raw = dfs.client();
    let on_dfs = files.iter().filter(|f| raw.stat(f, &cred).is_ok()).count();
    assert_eq!(on_dfs, 8);
    let report = region.report();
    assert_eq!((report.ops_enqueued, report.ops_completed), (8, 8));
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
