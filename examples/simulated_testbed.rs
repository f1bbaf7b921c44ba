//! The simulated testbed in one page: run a miniature version of the
//! paper's single-application experiment (Figure 7) through the
//! discrete-event engine and print the throughput comparison.
//!
//! ```sh
//! cargo run --release --example simulated_testbed
//! ```

use std::sync::Arc;

use fsapi::{Credentials, FileSystem};
use pacon::{PaconConfig, PaconRegion};
use qsim::Process;
use simnet::{LatencyProfile, Station, Topology};
use workloads::driver::{FsOpClient, PaconWorkerProc};
use workloads::mdtest;

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let cred = Credentials::new(1, 1);
    let topo = Topology::new(4, 20); // 4 nodes x 20 clients
    let items = 50u32;

    // --- BeeGFS alone ---------------------------------------------------
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    dfs.client().mkdir("/app", &cred, 0o777).unwrap();
    let mut procs: Vec<Box<dyn Process>> = topo
        .clients()
        .map(|c| {
            Box::new(FsOpClient::new(
                Box::new(dfs.client()),
                cred,
                mdtest::create_phase("/app", c.0, items),
            )) as Box<dyn Process>
        })
        .collect();
    let bee = qsim::Simulation::new().run(&mut procs);
    println!(
        "BeeGFS : {:>9.0} creates/s   (MDS utilization {:.0}% — the bottleneck)",
        bee.ops_per_sec(),
        bee.utilization(Station::Mds(0)) * 100.0
    );

    // --- Pacon over the same DFS -----------------------------------------
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let region =
        PaconRegion::launch_paused(PaconConfig::new("/app", topo, cred), &dfs).unwrap();
    let mut procs: Vec<Box<dyn Process>> = topo
        .clients()
        .map(|c| {
            Box::new(FsOpClient::new(
                Box::new(region.client(c)),
                cred,
                mdtest::create_phase("/app", c.0, items),
            )) as Box<dyn Process>
        })
        .collect();
    for n in 0..topo.nodes as usize {
        procs.push(Box::new(PaconWorkerProc::new(&region, n)));
    }
    let pac = qsim::Simulation::new().run(&mut procs);
    println!(
        "Pacon  : {:>9.0} creates/s   ({} background commits drained by {:.1} ms virtual)",
        pac.ops_per_sec(),
        pac.background_ops,
        pac.drained_ns as f64 / 1e6
    );
    println!("speedup: {:.1}x", pac.ops_per_sec() / bee.ops_per_sec());

    // Every create really reached the DFS.
    let n = dfs.client().readdir("/app", &cred).unwrap().len();
    assert_eq!(n, (topo.total_clients() * items) as usize);
    println!("backup copy verified: {n} files on the DFS");
}
