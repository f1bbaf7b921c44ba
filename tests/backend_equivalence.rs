//! Cross-backend equivalence: the same operation sequence driven through
//! native DFS, IndexFS and Pacon must leave the same visible namespace.
//! For Pacon, "visible" means both the application's view (strongly
//! consistent immediately) and the DFS backup copy (after quiescing).

use std::sync::Arc;

use fsapi::{Credentials, FileSystem, FsError};
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, NodeId, Topology};
use workloads::ops::FsOp;

fn workload() -> Vec<FsOp> {
    let mut ops = Vec::new();
    ops.push(FsOp::Mkdir("/w/a".into(), 0o755));
    ops.push(FsOp::Mkdir("/w/a/b".into(), 0o755));
    ops.push(FsOp::Mkdir("/w/c".into(), 0o755));
    for i in 0..10 {
        ops.push(FsOp::Create(format!("/w/a/f{i}"), 0o644));
        ops.push(FsOp::Create(format!("/w/a/b/g{i}"), 0o644));
    }
    for i in (0..10).step_by(2) {
        ops.push(FsOp::Unlink(format!("/w/a/f{i}")));
    }
    ops.push(FsOp::Create("/w/a/f0".into(), 0o600)); // re-create
    ops.push(FsOp::Write { path: "/w/c/notes".into(), offset: 0, data: b"x".to_vec() }); // fails: no create
    ops.push(FsOp::Create("/w/c/notes".into(), 0o644));
    ops.push(FsOp::Write { path: "/w/c/notes".into(), offset: 0, data: b"hello".to_vec() });
    ops
}

/// The observable state we compare: sorted (path, kind, size) for the
/// whole universe of paths the workload touches.
fn observe(fs: &dyn FileSystem, cred: &Credentials) -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    let mut paths = vec!["/w/a".to_string(), "/w/a/b".to_string(), "/w/c".to_string()];
    for i in 0..10 {
        paths.push(format!("/w/a/f{i}"));
        paths.push(format!("/w/a/b/g{i}"));
    }
    paths.push("/w/c/notes".to_string());
    for p in paths {
        match fs.stat(&p, cred) {
            Ok(st) => out.push((p, format!("{:?}", st.kind), st.size)),
            Err(FsError::NotFound) => {}
            Err(e) => panic!("unexpected error on {p}: {e}"),
        }
    }
    out.sort();
    out
}

#[test]
fn all_backends_converge_to_the_same_namespace() {
    let profile = Arc::new(LatencyProfile::zero());
    let cred = Credentials::new(1, 1);
    let ops = workload();

    // Native DFS (reference).
    let ref_dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let fs = ref_dfs.client();
    fs.mkdir("/w", &cred, 0o777).unwrap();
    let (_, _) = workloads::ops::exec_all(&fs, &cred, &ops);
    let want = observe(&fs, &cred);
    assert!(!want.is_empty());

    // IndexFS.
    let idx = indexfs::IndexFsCluster::with_default_config(
        Topology::new(4, 2),
        Arc::clone(&profile),
    );
    let fs = idx.client(NodeId(0));
    fs.mkdir("/w", &cred, 0o777).unwrap();
    let (_, _) = workloads::ops::exec_all(&fs, &cred, &ops);
    assert_eq!(observe(&fs, &cred), want, "IndexFS view diverged");

    // Pacon: application view immediately, DFS view after quiesce.
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let region = PaconRegion::launch(
        PaconConfig::new("/w", Topology::new(2, 2), cred),
        &dfs,
    )
    .unwrap();
    let client = region.client(ClientId(0));
    let (_, _) = workloads::ops::exec_all(&client, &cred, &ops);
    assert_eq!(observe(&client, &cred), want, "Pacon application view diverged");
    region.quiesce();
    let raw = dfs.client();
    assert_eq!(observe(&raw, &cred), want, "Pacon backup copy diverged");
    region.shutdown().unwrap();
}

#[test]
fn pacon_view_matches_reference_during_mixed_multi_client_run() {
    let profile = Arc::new(LatencyProfile::zero());
    let cred = Credentials::new(1, 1);

    let ref_dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let rfs = ref_dfs.client();
    rfs.mkdir("/w", &cred, 0o777).unwrap();

    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let region = PaconRegion::launch(
        PaconConfig::new("/w", Topology::new(3, 1), cred),
        &dfs,
    )
    .unwrap();
    let clients: Vec<_> = (0..3).map(|i| region.client(ClientId(i))).collect();

    // Interleave ops across three clients; mirror on the reference.
    for round in 0..20 {
        let c = &clients[round % 3];
        let dir = format!("/w/d{}", round % 4);
        let file = format!("{dir}/r{round}");
        let _ = c.mkdir(&dir, &cred, 0o755);
        let _ = rfs.mkdir(&dir, &cred, 0o755);
        c.create(&file, &cred, 0o644).unwrap();
        rfs.create(&file, &cred, 0o644).unwrap();
        if round % 5 == 4 {
            c.unlink(&file, &cred).unwrap();
            rfs.unlink(&file, &cred).unwrap();
        }
    }

    // Every client's strongly consistent view agrees with the reference.
    for round in 0..20 {
        let file = format!("/w/d{}/r{round}", round % 4);
        let want = rfs.stat(&file, &cred).is_ok();
        for c in &clients {
            assert_eq!(c.stat(&file, &cred).is_ok(), want, "divergence at {file}");
        }
    }
    region.shutdown().unwrap();
}
