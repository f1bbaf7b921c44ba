//! Full-stack smoke: mdtest-style phases through every backend at small
//! scale, verifying op counts and error-freedom end to end (workload
//! generator -> fsapi -> backend -> substrate).

use std::sync::Arc;

use fsapi::{Credentials, FileSystem};
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, NodeId, Topology};
use workloads::mdtest;
use workloads::ops::exec_all;

const ITEMS: u32 = 20;

fn run_phases(mk_client: impl Fn(u32) -> Box<dyn FileSystem>, cred: &Credentials) {
    // mkdir + create phases per client, then each client stats the whole
    // universe and lists the directory.
    for c in 0..4u32 {
        let fs = mk_client(c);
        let (ok, err) = exec_all(fs.as_ref(), cred, &mdtest::mkdir_phase("/w", c, ITEMS));
        assert_eq!((ok, err), (ITEMS as u64, 0));
        let (ok, err) = exec_all(fs.as_ref(), cred, &mdtest::create_phase("/w", c, ITEMS));
        assert_eq!((ok, err), (ITEMS as u64, 0));
    }
    let universe: Vec<String> =
        (0..4).flat_map(|c| mdtest::created_files("/w", c, ITEMS)).collect();
    for c in 0..4u32 {
        let fs = mk_client(c);
        let (ok, err) =
            exec_all(fs.as_ref(), cred, &mdtest::random_stat_phase(&universe, 50, c as u64));
        assert_eq!((ok, err), (50, 0));
        let names = fs.readdir("/w", cred).unwrap();
        assert_eq!(names.len(), (2 * 4 * ITEMS) as usize);
    }
    // Cleanup phase: unlink own files, rmdir own dirs.
    for c in 0..4u32 {
        let fs = mk_client(c);
        for f in mdtest::created_files("/w", c, ITEMS) {
            fs.unlink(&f, cred).unwrap();
        }
        for op in mdtest::mkdir_phase("/w", c, ITEMS) {
            if let workloads::ops::FsOp::Mkdir(p, _) = op {
                fs.rmdir(&p, cred).unwrap();
            }
        }
    }
    let fs = mk_client(0);
    assert_eq!(fs.readdir("/w", cred).unwrap().len(), 0);
}

#[test]
fn beegfs_full_stack() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    dfs.client().mkdir("/w", &cred, 0o777).unwrap();
    run_phases(|_| Box::new(dfs.client()), &cred);
}

#[test]
fn indexfs_full_stack() {
    let cluster = indexfs::IndexFsCluster::with_default_config(
        Topology::new(2, 2),
        Arc::new(LatencyProfile::zero()),
    );
    let cred = Credentials::new(1, 1);
    cluster.client(NodeId(0)).mkdir("/w", &cred, 0o777).unwrap();
    run_phases(|c| Box::new(cluster.client(NodeId(c % 2))), &cred);
}

#[test]
fn pacon_full_stack() {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new("/w", Topology::new(2, 2), cred),
        &dfs,
    )
    .unwrap();
    run_phases(|c| Box::new(region.client(ClientId(c))), &cred);
    // After the cleanup phase the backup copy is empty too.
    region.quiesce();
    assert_eq!(dfs.client().readdir("/w", &cred).unwrap().len(), 0);
    region.shutdown().unwrap();
}
