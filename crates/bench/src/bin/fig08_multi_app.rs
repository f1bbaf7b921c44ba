//! Figure 8 — multi-application case.
//!
//! 16 nodes x 20 clients (320 total) split evenly across 2/4/8/16
//! concurrent applications on disjoint working directories; aggregate
//! throughput of mkdir / create / random stat. Each application is one
//! consistent region for Pacon.
//!
//! Paper shapes: Pacon aggregate > 10x BeeGFS and > 1.07x IndexFS.

use std::sync::Arc;

use pacon_bench::*;
use simnet::{LatencyProfile, Topology};
use workloads::mdtest;

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let topo = Topology::new(16, 20);
    let items = 100u32;
    let app_counts = [2usize, 4, 8, 16];
    let mut rows = Vec::new();
    let mut at16: Vec<(Backend, [f64; 3])> = Vec::new();

    for &napps in &app_counts {
        let dirs: Vec<String> = (0..napps).map(|a| format!("/app{a}")).collect();
        let dir_refs: Vec<&str> = dirs.iter().map(|s| s.as_str()).collect();
        for backend in Backend::ALL {
            let bed = TestBed::new(backend, Arc::clone(&profile), topo, &dir_refs);
            let pool = WorkerPool::claim(&bed);

            let mkdir = run_phase(&bed, &pool, |c| {
                mdtest::mkdir_phase(bed.dir_of_client(c), c.0, items)
            });
            let create = run_phase(&bed, &pool, |c| {
                mdtest::create_phase(bed.dir_of_client(c), c.0, items)
            });
            // Each client stats files of its own application (regions are
            // consistent only within a workspace).
            let universes: Vec<Vec<String>> = (0..napps)
                .map(|a| {
                    topo.clients()
                        .filter(|c| bed.dir_of_client(*c) == dirs[a])
                        .flat_map(|c| mdtest::created_files(&dirs[a], c.0, items))
                        .collect()
                })
                .collect();
            let stat = run_phase(&bed, &pool, |c| {
                let (app, _) = bed.app_of_client(c);
                mdtest::random_stat_phase(&universes[app], items, 0xF08 ^ c.0 as u64)
            });

            if napps == 16 {
                at16.push((backend, [mkdir.ops_per_sec, create.ops_per_sec, stat.ops_per_sec]));
            }
            // Tail latency of the create phase (the headline op).
            let mut row = vec![
                napps.to_string(),
                backend.label().to_string(),
                fmt_ops(mkdir.ops_per_sec),
                fmt_ops(create.ops_per_sec),
                fmt_ops(stat.ops_per_sec),
            ];
            row.extend(latency_cells(&create.run));
            rows.push(row);
        }
    }

    let mut header: Vec<String> =
        ["apps", "system", "mkdir", "create", "stat"].map(String::from).to_vec();
    header.extend(latency_header().into_iter().map(|h| format!("create {h}")));
    print_table(
        "Fig 8: multi-application aggregate throughput (ops/s, 320 clients)",
        &header,
        &rows,
    );

    let g = |b: Backend| at16.iter().find(|(k, _)| *k == b).map(|(_, v)| *v).unwrap();
    let (bee, idx, pac) = (g(Backend::BeeGfs), g(Backend::IndexFs), g(Backend::Pacon));
    println!("\nRatios at 16 concurrent applications:");
    for (i, op) in ["mkdir", "create", "stat"].iter().enumerate() {
        println!(
            "  {op:>6}: Pacon/BeeGFS = {:>5.1}x, Pacon/IndexFS = {:>4.2}x  (paper: >10x, >1.07x)",
            pac[i] / bee[i],
            pac[i] / idx[i]
        );
    }

    // Acceptance: the paper's bounds hold for every op.
    for (i, op) in ["mkdir", "create", "stat"].iter().enumerate() {
        let (vs_bee, vs_idx) = (pac[i] / bee[i], pac[i] / idx[i]);
        assert!(vs_bee >= 10.0, "acceptance: {op} Pacon/BeeGFS = {vs_bee:.2}x, paper: > 10x");
        assert!(vs_idx >= 1.07, "acceptance: {op} Pacon/IndexFS = {vs_idx:.3}x, paper: > 1.07x");
    }
}
