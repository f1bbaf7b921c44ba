//! Figure 9 — path traversal overhead with Pacon.
//!
//! Same experiment as Figure 2 plus Pacon: random stat of leaf
//! directories in a fanout-5 tree of depth 3..6. Pacon looks metadata up
//! by full path with batch permission checking, so depth has only a
//! slight effect; BeeGFS loses ~63% and IndexFS ~47% at depth 6.

use std::sync::Arc;

use pacon_bench::*;
use simnet::{ClientId, LatencyProfile, Topology};
use workloads::mdtest;
use workloads::ops::exec_all;

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let topo = Topology::new(16, 20);
    let stats_per_client = 400u32;
    let mut rows = Vec::new();
    let mut summary = Vec::new();

    for backend in Backend::ALL {
        let mut depth3 = None;
        for depth in 3..=6u32 {
            let bed = TestBed::new(backend, Arc::clone(&profile), topo, &["/ns"]);
            let pool = WorkerPool::claim(&bed);
            let tree = mdtest::tree_paths("/ns", 5, depth);
            let setup = bed.client(ClientId(0));
            let (_ok, err) = exec_all(setup.as_ref(), &CRED, &mdtest::tree_mkdir_ops(&tree));
            assert_eq!(err, 0, "tree setup must succeed");
            drop(setup);
            // Drain Pacon's commit backlog outside the measured window.
            if backend == Backend::Pacon {
                run_phase(&bed, &pool, |_| Vec::new());
            }

            let leaves = tree.leaves.clone();
            let res = run_phase(&bed, &pool, |c| {
                mdtest::random_stat_phase(&leaves, stats_per_client, 0xF09 ^ c.0 as u64)
            });
            if depth == 3 {
                depth3 = Some(res.ops_per_sec);
            }
            let rel = res.ops_per_sec / depth3.unwrap();
            let mut row = vec![
                backend.label().to_string(),
                depth.to_string(),
                fmt_ops(res.ops_per_sec),
                format!("{:.0}%", rel * 100.0),
            ];
            row.extend(latency_cells(&res.run));
            rows.push(row);
            if depth == 6 {
                summary.push((backend, 100.0 * (1.0 - rel)));
            }
        }
    }

    let mut header: Vec<String> =
        ["system", "depth", "ops/s", "vs depth 3"].map(String::from).to_vec();
    header.extend(latency_header());
    print_table(
        "Fig 9: random stat of leaf dirs vs depth (fanout 5), with Pacon",
        &header,
        &rows,
    );
    println!();
    // Acceptance: the depth-6 loss orders as the paper's (BeeGFS ~63 % >
    // IndexFS ~47 % > Pacon, "only a slight impact").
    let loss = |b: Backend| {
        summary.iter().find(|(k, _)| *k == b).map(|&(_, drop)| drop).expect("every system ran")
    };
    let (bee, idx, pac) = (loss(Backend::BeeGfs), loss(Backend::IndexFs), loss(Backend::Pacon));
    assert!(
        bee > idx && idx > pac,
        "acceptance: depth-6 loss must order BeeGFS > IndexFS > Pacon, got {summary:?}"
    );
    for (backend, drop) in summary {
        if backend == Backend::Pacon && drop <= 5.0 {
            println!(
                "  Pacon: no depth-driven degradation ({:+.0}% at depth 6; variation \
                 across depths is shard-hash imbalance at small key counts, not \
                 traversal cost)",
                -drop
            );
        } else {
            println!("  {}: {:.0}% loss at depth 6", backend.label(), drop);
        }
    }
    println!("  paper: BeeGFS ~63%, IndexFS ~47%, Pacon only a slight impact");
}
