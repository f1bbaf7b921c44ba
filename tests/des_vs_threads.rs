//! The discrete-event driver and the real-thread runtime must agree on
//! functional outcomes: the same workload leaves the same DFS namespace
//! whether the commit processes run on the region's driver thread (wall
//! clock) or as DES background processes (virtual time). The workload
//! includes barrier ops (readdir, rmdir), which drive the commit
//! processes from inside their own op in either runtime.

use std::sync::Arc;

use fsapi::Credentials;
use pacon::{PaconConfig, PaconRegion};
use simnet::{LatencyProfile, Topology};
use workloads::driver::{run_closed_loop, FsOpClient, PaconWorkerProc};
use workloads::{mdtest, FsOp};

/// Files each client creates in, and removes from, its private directory.
const PRIVATE_FILES: u32 = 4;

fn final_namespace(dfs: &Arc<dfs::DfsCluster>) -> Vec<(String, fsapi::FileKind, u64)> {
    dfs.snapshot()
}

/// Client `c`'s ops: mkdirs and creates in the shared workspace, then a
/// private directory through both barrier ops — mkdir, creates in it,
/// readdir, unlinks, rmdir.
fn client_ops(c: u32, items: u32) -> Vec<FsOp> {
    let mut ops = mdtest::mkdir_phase("/w", c, items / 2);
    ops.extend(mdtest::create_phase("/w", c, items));
    let private = format!("/w/private{c}");
    ops.push(FsOp::Mkdir(private.clone(), 0o755));
    ops.extend(mdtest::create_phase(&private, c, PRIVATE_FILES));
    ops.push(FsOp::Readdir(private.clone()));
    ops.extend(mdtest::unlink_phase(&private, c, PRIVATE_FILES));
    ops.push(FsOp::Rmdir(private));
    ops
}

#[test]
fn des_and_threaded_runtimes_produce_identical_namespaces() {
    let cred = Credentials::new(1, 1);
    let topo = Topology::new(3, 4);
    let items = 30u32;
    let ops_per_client = items + items / 2 + 2 * PRIVATE_FILES + 3;

    // --- threaded run ---------------------------------------------------
    let profile = Arc::new(LatencyProfile::zero());
    let dfs_threads = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    {
        let region = PaconRegion::launch(
            PaconConfig::new("/w", topo, cred),
            &dfs_threads,
        )
        .unwrap();
        let lists: Vec<_> = topo.clients().map(|c| client_ops(c.0, items)).collect();
        let run = workloads::threaded::run_threads(
            |i| Box::new(region.client(simnet::ClientId(i as u32))),
            cred,
            lists,
        );
        assert_eq!(run.err_ops, 0, "every threaded op succeeds");
        assert_eq!(run.ok_ops as u32, topo.total_clients() * ops_per_client);
        region.shutdown().unwrap();
    }

    // --- DES run ----------------------------------------------------------
    let profile = Arc::new(LatencyProfile::default()); // costs exercised too
    let dfs_des = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    {
        let region = PaconRegion::launch_paused(
            PaconConfig::new("/w", topo, cred),
            &dfs_des,
        )
        .unwrap();
        let clients: Vec<FsOpClient> = topo
            .clients()
            .map(|c| FsOpClient::new(Box::new(region.client(c)), cred, client_ops(c.0, items)))
            .collect();
        let workers: Vec<PaconWorkerProc> = (0..topo.nodes as usize)
            .map(|n| PaconWorkerProc::new(&region, n))
            .collect();
        let res = run_closed_loop(clients, workers);
        assert_eq!(res.measured_ops as u32, topo.total_clients() * ops_per_client);
        assert!(region.core().drained(), "the DES run drains every commit");
    }

    let a = final_namespace(&dfs_threads);
    let b = final_namespace(&dfs_des);
    assert_eq!(a, b, "threaded and DES runtimes must agree");
    assert_eq!(
        a.len() as u32,
        1 + 1 + topo.total_clients() * (items + items / 2),
        "root + /w + every created entry; each private directory is gone"
    );
}
