//! Whole-stack lock-hierarchy audit.
//!
//! Drives a threaded Pacon region (real commit-process threads, real
//! queues), a DFS cluster, an in-memory KV cluster and the IndexFS
//! client through a representative metadata workload, then asserts the
//! syncguard report is clean: no lock-order cycles, no level-hierarchy
//! violations, no unpermitted blocking calls while holding locks.
//!
//! Run with `cargo test --features syncguard/check --test lock_hierarchy`;
//! in passthrough mode the assertions are skipped (nothing is recorded).

use std::sync::Arc;

use fsapi::{Credentials, FileSystem};
use pacon::config::PaconConfig;
use pacon::region::PaconRegion;
use simnet::{LatencyProfile, Topology};

#[test]
fn threaded_workload_has_clean_lock_report() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let region = PaconRegion::launch(
        PaconConfig::new("/app", Topology::new(2, 2), Credentials::new(1, 1)),
        &dfs,
    )
    .unwrap();

    let cred = Credentials::new(1, 1);
    let mut handles = Vec::new();
    for c in 0..4u32 {
        let client = region.client(simnet::ClientId(c));
        handles.push(std::thread::spawn(move || {
            let dir = format!("/app/t{c}");
            client.mkdir(&dir, &cred, 0o755).unwrap();
            for i in 0..8 {
                let f = format!("{dir}/f{i}");
                client.create(&f, &cred, 0o644).unwrap();
                client.write(&f, &cred, 0, b"payload").unwrap();
                client.stat(&f, &cred).unwrap();
            }
            // Dependent ops: readdir and rmdir run barrier commits while
            // other threads keep publishing.
            let names = client.readdir(&dir, &cred).unwrap();
            assert_eq!(names.len(), 8);
            for i in 0..8 {
                client.unlink(&format!("{dir}/f{i}"), &cred).unwrap();
            }
            client.rmdir(&dir, &cred).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    region.sync_barrier().unwrap();
    region.shutdown().unwrap();

    // Group-commit configuration: the publish buffer is engaged, so the
    // buffer-held-across-send path (and its blocking permit) is exercised.
    let region2 = PaconRegion::launch(
        PaconConfig::new("/gc", Topology::new(2, 2), Credentials::new(1, 1))
            .with_commit_batch(4),
        &dfs,
    )
    .unwrap();
    let client = region2.client(simnet::ClientId(0));
    client.mkdir("/gc/d", &cred, 0o755).unwrap();
    for i in 0..10 {
        client.create(&format!("/gc/d/f{i}"), &cred, 0o644).unwrap();
    }
    assert_eq!(client.readdir("/gc/d", &cred).unwrap().len(), 10);
    region2.sync_barrier().unwrap();
    region2.shutdown().unwrap();

    // A second backend shape: IndexFS bulk-insertion client.
    let ifs = indexfs::IndexFsCluster::with_default_config(
        Topology::new(2, 2),
        Arc::new(LatencyProfile::zero()),
    )
    .unwrap();
    let cl = ifs.client(simnet::NodeId(0));
    cl.mkdir("/bulk", &cred, 0o755).unwrap();
    cl.bulk_begin();
    for i in 0..16 {
        cl.create(&format!("/bulk/f{i}"), &cred, 0o644).unwrap();
    }
    cl.bulk_flush().unwrap();
    assert_eq!(cl.readdir("/bulk", &cred).unwrap().len(), 16);

    if !syncguard::check_enabled() {
        return;
    }
    // `SYNCGUARD_DOT=1 cargo test --features syncguard/check --test
    // lock_hierarchy -- --nocapture` dumps the observed lock-order graph
    // (the DESIGN.md figure is generated this way).
    if std::env::var_os("SYNCGUARD_DOT").is_some() {
        println!("{}", syncguard::dot());
    }
    let report = syncguard::report();
    assert!(
        report.is_clean(),
        "lock hierarchy violated:\ncycles: {:#?}\nlevel violations: {:#?}\nblocking: {:#?}",
        report.cycles,
        report.level_violations,
        report.blocking_violations
    );
    // The workload must actually have exercised the hierarchy.
    let classes: Vec<&str> = report.classes.iter().map(|c| c.name.as_str()).collect();
    for expected in ["mq.queue", "pacon.barrier.slot", "pacon.barrier.state", "dfs.namespace"] {
        assert!(classes.contains(&expected), "class {expected} never acquired: {classes:?}");
    }
}
