//! Figure 7 — single-application case.
//!
//! mdtest on 2/4/8/16 nodes x 20 clients: every client concurrently
//! creates directories and empty files under the same parent directory
//! (namespace depth 1), then randomly stats the created files. One
//! consistent region for Pacon.
//!
//! Paper shapes: Pacon > 76.4x BeeGFS and > 8.8x IndexFS on writes;
//! > 6.5x BeeGFS and > 2.6x IndexFS on random stat.

use std::sync::Arc;

use pacon_bench::*;
use simnet::{LatencyProfile, Topology};
use workloads::mdtest;

fn items_per_client() -> u32 {
    std::env::var("PACON_BENCH_ITEMS").ok().and_then(|v| v.parse().ok()).unwrap_or(100)
}

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let items = items_per_client();
    let node_counts = [2u32, 4, 8, 16];
    let mut rows = Vec::new();
    // (nodes, backend) -> [mkdir, create, stat]
    let mut results: Vec<(u32, Backend, [f64; 3])> = Vec::new();

    for &nodes in &node_counts {
        for backend in Backend::ALL {
            let topo = Topology::new(nodes, 20);
            let bed = TestBed::new(backend, Arc::clone(&profile), topo, &["/app1"]);
            let pool = WorkerPool::claim(&bed);

            let mkdir =
                run_phase(&bed, &pool, |c| mdtest::mkdir_phase("/app1", c.0, items));

            let create =
                run_phase(&bed, &pool, |c| mdtest::create_phase("/app1", c.0, items));

            // Random stat over every file created in the previous phase.
            let universe: Vec<String> = topo
                .clients()
                .flat_map(|c| mdtest::created_files("/app1", c.0, items))
                .collect();
            let stat = run_phase(&bed, &pool, |c| {
                mdtest::random_stat_phase(&universe, items, 0xF16u64 ^ c.0 as u64)
            });

            results.push((
                nodes,
                backend,
                [mkdir.ops_per_sec, create.ops_per_sec, stat.ops_per_sec],
            ));
            // Tail latency of the create phase (the headline op).
            let mut row = vec![
                nodes.to_string(),
                (nodes * 20).to_string(),
                backend.label().to_string(),
                fmt_ops(mkdir.ops_per_sec),
                fmt_ops(create.ops_per_sec),
                fmt_ops(stat.ops_per_sec),
            ];
            row.extend(latency_cells(&create.run));
            rows.push(row);
        }
    }

    let mut header: Vec<String> = ["nodes", "clients", "system", "mkdir", "create", "stat"]
        .map(String::from)
        .to_vec();
    header.extend(latency_header().into_iter().map(|h| format!("create {h}")));
    print_table("Fig 7: single-application throughput (ops/s)", &header, &rows);

    // Ratio summary at the largest scale.
    let get = |backend: Backend| {
        results
            .iter()
            .find(|(n, b, _)| *n == 16 && *b == backend)
            .map(|(_, _, v)| *v)
            .unwrap()
    };
    let bee = get(Backend::BeeGfs);
    let idx = get(Backend::IndexFs);
    let pac = get(Backend::Pacon);
    println!("\nRatios at 16 nodes (320 clients):");
    println!(
        "  create: Pacon/BeeGFS = {:>6.1}x   (paper: > 76.4x)",
        pac[1] / bee[1]
    );
    println!(
        "  create: Pacon/IndexFS = {:>5.1}x   (paper: >  8.8x)",
        pac[1] / idx[1]
    );
    println!(
        "  stat:   Pacon/BeeGFS = {:>6.1}x   (paper: >  6.5x)",
        pac[2] / bee[2]
    );
    println!(
        "  stat:   Pacon/IndexFS = {:>5.1}x   (paper: >  2.6x)",
        pac[2] / idx[2]
    );

    // Acceptance: the paper's bounds hold.
    for (claim, got, paper) in [
        ("create Pacon/BeeGFS", pac[1] / bee[1], 76.4),
        ("create Pacon/IndexFS", pac[1] / idx[1], 8.8),
        ("stat Pacon/BeeGFS", pac[2] / bee[2], 6.5),
        ("stat Pacon/IndexFS", pac[2] / idx[2], 2.6),
    ] {
        assert!(got >= paper, "acceptance: {claim} = {got:.2}x, paper: > {paper}x");
    }
}
