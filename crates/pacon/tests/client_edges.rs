//! Edge cases of the client surface: region-root operations, merged
//! regions, write offsets, and the ablation flags' functional
//! correctness.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsError};
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, Topology};

fn setup() -> (Arc<DfsCluster>, Arc<PaconRegion>, Credentials) {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let region =
        PaconRegion::launch(PaconConfig::new("/app", Topology::new(2, 2), cred), &dfs).unwrap();
    (dfs, region, cred)
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
            .with_permissions(pacon::RegionPermissions::uniform(0o755, cred1))
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
            .with_permissions(pacon::RegionPermissions::uniform(0o755, cred1)),
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

#[test]
fn synchronous_commit_ablation_is_functionally_equivalent() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new("/app", Topology::new(1, 1), cred).with_synchronous_commit(),
        &dfs,
    )
    .unwrap();
    let c = region.client(ClientId(0));
    c.mkdir("/app/d", &cred, 0o755).unwrap();
    c.create("/app/d/f", &cred, 0o644).unwrap();
    // Synchronous: the backup copy is current *immediately*.
    let raw = dfs.client();
    assert!(raw.stat("/app/d/f", &cred).unwrap().is_file());
    c.write("/app/d/f", &cred, 0, b"sync!").unwrap();
    c.unlink("/app/d/f", &cred).unwrap();
    assert_eq!(raw.stat("/app/d/f", &cred), Err(FsError::NotFound));
    assert_eq!(c.stat("/app/d/f", &cred), Err(FsError::NotFound));
    region.shutdown().unwrap();
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
    for _ in 0..1000 {
        use pacon::commit::worker::WorkerStep;
        if matches!(w.step(), WorkerStep::Idle | WorkerStep::Disconnected) {
            break;
        }
    }
    assert_eq!(dfs.client().read("/app/hot", &cred, 0, 16).unwrap(), vec![49u8; 16]);
    // After the drain, a new write queues a fresh writeback.
    c.write("/app/hot", &cred, 0, b"fresh").unwrap();
    assert_eq!(region.report().ops_enqueued, 3);
}
