//! End-to-end behaviour of the IndexFS baseline through the
//! `fsapi::FileSystem` surface.

use std::sync::Arc;

use fsapi::{Credentials, FileSystem, FsError};
use indexfs::IndexFsCluster;
use simnet::{with_recording, LatencyProfile, NodeId, Station, Topology};

fn cluster(nodes: u32) -> Arc<IndexFsCluster> {
    IndexFsCluster::with_default_config(
        Topology::new(nodes, 4),
        Arc::new(LatencyProfile::default()),
    )
}

fn cred() -> Credentials {
    Credentials::new(100, 100)
}

#[test]
fn metadata_lifecycle() {
    let c = cluster(4);
    let fs = c.client(NodeId(0));
    let u = cred();
    fs.mkdir("/w", &u, 0o755).unwrap();
    fs.mkdir("/w/sub", &u, 0o755).unwrap();
    fs.create("/w/sub/f", &u, 0o644).unwrap();
    assert_eq!(fs.create("/w/sub/f", &u, 0o644), Err(FsError::AlreadyExists));
    let st = fs.stat("/w/sub/f", &u).unwrap();
    assert!(st.is_file());
    assert_eq!(fs.readdir("/w/sub", &u).unwrap(), vec!["f"]);
    assert_eq!(fs.rmdir("/w/sub", &u), Err(FsError::NotEmpty));
    fs.unlink("/w/sub/f", &u).unwrap();
    fs.rmdir("/w/sub", &u).unwrap();
    assert_eq!(fs.stat("/w/sub", &u), Err(FsError::NotFound));
    assert_eq!(fs.readdir("/w", &u).unwrap(), Vec::<String>::new());
}

#[test]
fn visibility_across_clients_and_nodes() {
    let c = cluster(4);
    let a = c.client(NodeId(0));
    let b = c.client(NodeId(3));
    let u = cred();
    a.mkdir("/shared", &u, 0o755).unwrap();
    a.create("/shared/x", &u, 0o644).unwrap();
    // IndexFS is a centralized (if partitioned) service: other clients see
    // updates immediately.
    assert!(b.stat("/shared/x", &u).unwrap().is_file());
    assert_eq!(b.readdir("/shared", &u).unwrap(), vec!["x"]);
}

#[test]
fn lease_cache_cuts_resolution_rpcs() {
    let c = cluster(2);
    let fs = c.client(NodeId(0));
    let u = cred();
    fs.mkdir("/a", &u, 0o755).unwrap();
    fs.mkdir("/a/b", &u, 0o755).unwrap();
    fs.create("/a/b/f", &u, 0o644).unwrap();

    let cold = c.client(NodeId(1));
    cold.stat("/a/b/f", &u).unwrap();
    let misses_cold = cold.counters.get("lease_miss");
    assert_eq!(misses_cold, 2, "two directory components resolved");
    cold.stat("/a/b/f", &u).unwrap();
    assert_eq!(cold.counters.get("lease_miss"), misses_cold, "warm stat misses nothing");
}

#[test]
fn file_data_roundtrip() {
    let c = cluster(2);
    let fs = c.client(NodeId(0));
    let u = cred();
    fs.create("/f", &u, 0o644).unwrap();
    fs.write("/f", &u, 0, b"hello world").unwrap();
    fs.write("/f", &u, 6, b"there").unwrap();
    assert_eq!(fs.read("/f", &u, 0, 64).unwrap(), b"hello there");
    assert_eq!(fs.stat("/f", &u).unwrap().size, 11);
    fs.fsync("/f", &u).unwrap();
}

#[test]
fn permissions_enforced() {
    let c = cluster(2);
    let fs = c.client(NodeId(0));
    let owner = cred();
    fs.mkdir("/priv", &owner, 0o700).unwrap();
    fs.create("/priv/s", &owner, 0o600).unwrap();
    let stranger = Credentials::new(9, 9);
    let fs2 = c.client(NodeId(1));
    assert_eq!(fs2.stat("/priv/s", &stranger), Err(FsError::PermissionDenied));
    assert_eq!(fs2.create("/priv/t", &stranger, 0o644), Err(FsError::PermissionDenied));
}

#[test]
fn bulk_insertion_flushes_everything() {
    let c = cluster(4);
    let fs = c.client(NodeId(0));
    let u = cred();
    fs.mkdir("/bulk", &u, 0o755).unwrap();
    fs.bulk_begin();
    assert!(fs.bulk_active());
    for i in 0..100 {
        fs.create(&format!("/bulk/f{i:03}"), &u, 0o644).unwrap();
    }
    // Buffered creates are visible to the creating client...
    assert!(fs.stat("/bulk/f050", &u).unwrap().is_file());
    // ...but not yet to others (BatchFS semantics).
    let other = c.client(NodeId(1));
    assert_eq!(other.stat("/bulk/f050", &u), Err(FsError::NotFound));

    let flushed = fs.bulk_flush().unwrap();
    assert_eq!(flushed, 100);
    assert!(!fs.bulk_active());
    assert!(other.stat("/bulk/f050", &u).unwrap().is_file());
    assert_eq!(other.readdir("/bulk", &u).unwrap().len(), 100);
    assert!(c.server_counter("bulk_records") == 100);
}

#[test]
fn bulk_mkdir_supports_nested_creates() {
    let c = cluster(2);
    let fs = c.client(NodeId(0));
    let u = cred();
    fs.bulk_begin();
    fs.mkdir("/top", &u, 0o755).unwrap();
    fs.mkdir("/top/mid", &u, 0o755).unwrap();
    fs.create("/top/mid/leaf", &u, 0o644).unwrap();
    fs.bulk_flush().unwrap();
    let other = c.client(NodeId(1));
    assert!(other.stat("/top/mid/leaf", &u).unwrap().is_file());
}

#[test]
fn create_cost_is_dominated_by_idx_put() {
    let c = cluster(2);
    let fs = c.client(NodeId(0));
    let u = cred();
    fs.mkdir("/d", &u, 0o755).unwrap();
    let p = LatencyProfile::default();
    let ((), t) = with_recording(|| {
        fs.create("/d/f", &u, 0o644).unwrap();
    });
    let srv_total: u64 = t.station_ns(Station::IndexSrv(0)) + t.station_ns(Station::IndexSrv(1));
    assert!(
        srv_total >= p.idx_put,
        "create must pay the DFS-backed LevelDB insert: {srv_total} < {}",
        p.idx_put
    );
}

#[test]
fn deep_paths_cost_more_for_cold_clients() {
    let c = cluster(2);
    let setup = c.client(NodeId(0));
    let u = cred();
    setup.mkdir("/p1", &u, 0o755).unwrap();
    setup.mkdir("/p1/p2", &u, 0o755).unwrap();
    setup.mkdir("/p1/p2/p3", &u, 0o755).unwrap();
    setup.create("/p1/p2/p3/f", &u, 0o644).unwrap();

    let cold = c.client(NodeId(1));
    let ((), t_deep) = with_recording(|| {
        cold.stat("/p1/p2/p3/f", &u).unwrap();
    });
    let warm = c.client(NodeId(1));
    warm.stat("/p1/p2/p3/f", &u).unwrap();
    let ((), t_warm) = with_recording(|| {
        warm.stat("/p1/p2/p3/f", &u).unwrap();
    });
    assert!(
        t_deep.total_ns() > t_warm.total_ns(),
        "cold resolution must cost more than lease-cached resolution"
    );
}
