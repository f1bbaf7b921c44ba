//! Cross-backend equivalence: the same operation sequence driven through
//! native DFS, IndexFS and Pacon must leave the same visible namespace.
//! For Pacon, "visible" means both the application's view (strongly
//! consistent immediately) and the DFS backup copy (after quiescing).

use std::sync::Arc;

use fsapi::{Credentials, FileSystem, FsError};
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, NodeId, Topology};
use workloads::history::{observe, History};
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

/// Every path the workload touches.
fn universe() -> Vec<String> {
    let mut paths = vec!["/w/a".to_string(), "/w/a/b".to_string(), "/w/c".to_string()];
    for i in 0..10 {
        paths.push(format!("/w/a/f{i}"));
        paths.push(format!("/w/a/b/g{i}"));
    }
    paths.push("/w/c/notes".to_string());
    paths
}

#[test]
fn all_backends_converge_to_the_same_namespace() {
    let profile = Arc::new(LatencyProfile::zero());
    let cred = Credentials::new(1, 1);
    let universe = universe();

    // Pacon, answering every op as a native DFS does: application view
    // immediately, DFS view after quiesce, both against the reference.
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let region = PaconRegion::launch(
        PaconConfig::new("/w", Topology::new(2, 2), cred),
        &dfs,
    )
    .unwrap();
    let client = region.client(ClientId(0));
    let mut history = History::new("/w");
    for op in workload() {
        let _ = history.issue(&client, &cred, op);
    }
    history.assert_answers_match(&cred);
    let want = observe(&history.reference(&cred), &cred, &universe);
    assert!(want.iter().any(|(_, seen)| seen.is_ok()));
    assert!(
        want.iter().all(|(_, seen)| matches!(seen, Ok(_) | Err(FsError::NotFound))),
        "{want:?}"
    );
    assert_eq!(observe(&client, &cred, &universe), want, "Pacon application view diverged");
    region.quiesce();
    history.assert_backup_matches(&dfs, &cred, &universe);
    region.shutdown().unwrap();

    // IndexFS.
    let idx = indexfs::IndexFsCluster::with_default_config(
        Topology::new(4, 2),
        Arc::clone(&profile),
    );
    let fs = idx.client(NodeId(0));
    fs.mkdir("/w", &cred, 0o777).unwrap();
    let (_, _) = workloads::ops::exec_all(&fs, &cred, &workload());
    assert_eq!(observe(&fs, &cred, &universe), want, "IndexFS view diverged");
}

#[test]
fn pacon_view_matches_reference_during_mixed_multi_client_run() {
    let cred = Credentials::new(1, 1);
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let region = PaconRegion::launch(
        PaconConfig::new("/w", Topology::new(3, 1), cred),
        &dfs,
    )
    .unwrap();
    let clients: Vec<_> = (0..3).map(|i| region.client(ClientId(i))).collect();

    // Interleave ops across three clients.
    let mut history = History::new("/w");
    for round in 0..20 {
        let c = &clients[round % 3];
        let dir = format!("/w/d{}", round % 4);
        let file = format!("{dir}/r{round}");
        let _ = history.issue(c, &cred, FsOp::Mkdir(dir, 0o755));
        history.issue(c, &cred, FsOp::Create(file.clone(), 0o644)).unwrap();
        if round % 5 == 4 {
            history.issue(c, &cred, FsOp::Unlink(file)).unwrap();
        }
    }
    history.assert_answers_match(&cred);

    // Every client's strongly consistent view agrees with the reference.
    let universe: Vec<String> = (0..4)
        .map(|d| format!("/w/d{d}"))
        .chain((0..20).map(|round| format!("/w/d{}/r{round}", round % 4)))
        .collect();
    let want = observe(&history.reference(&cred), &cred, &universe);
    for c in &clients {
        assert_eq!(observe(c, &cred, &universe), want);
    }
    region.shutdown().unwrap();
}
