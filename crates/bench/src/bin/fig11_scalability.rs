//! Figure 11 — metadata scalability.
//!
//! File creation with 1..320 clients; the client cluster grows with the
//! client count (20 clients per node), Pacon and IndexFS services grow
//! with it, BeeGFS keeps its single MDS. Results normalized by each
//! system's single-client throughput.
//!
//! Paper shapes: Pacon's normalized curve ~16.5x BeeGFS's and ~2.8x
//! IndexFS's at 320 clients; Pacon exceeds 1M create ops/s.

use std::sync::Arc;

use pacon_bench::*;
use simnet::{LatencyProfile, Topology};
use workloads::mdtest;

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let items = 100u32;
    let points: &[(u32, u32)] =
        &[(1, 1), (20, 1), (40, 2), (80, 4), (160, 8), (320, 16)];
    let mut rows = Vec::new();
    let mut normalized_at_320 = Vec::new();
    let mut pacon_abs_320 = 0.0;

    for backend in Backend::ALL {
        let mut base = 0.0;
        for &(clients, nodes) in points {
            let topo = Topology::new(nodes, clients / nodes);
            let bed = TestBed::new(backend, Arc::clone(&profile), topo, &["/app1"]);
            let pool = WorkerPool::claim(&bed);
            let res = run_phase(&bed, &pool, |c| mdtest::create_phase("/app1", c.0, items));
            if clients == 1 {
                base = res.ops_per_sec;
            }
            let norm = res.ops_per_sec / base;
            if clients == 320 {
                normalized_at_320.push((backend, norm));
                if backend == Backend::Pacon {
                    pacon_abs_320 = res.ops_per_sec;
                }
            }
            let mut row = vec![
                backend.label().to_string(),
                clients.to_string(),
                fmt_ops(res.ops_per_sec),
                format!("{norm:.1}x"),
            ];
            row.extend(latency_cells(&res.run));
            rows.push(row);
        }
    }

    let mut header: Vec<String> =
        ["system", "clients", "ops/s", "normalized"].map(String::from).to_vec();
    header.extend(latency_header());
    print_table(
        "Fig 11: file-creation scalability (normalized to 1 client)",
        &header,
        &rows,
    );

    let g = |b: Backend| {
        normalized_at_320.iter().find(|(k, _)| *k == b).map(|(_, v)| *v).unwrap()
    };
    println!("\nAt 320 clients:");
    println!(
        "  Pacon norm / BeeGFS norm  = {:.1}x (paper: ~16.5x)",
        g(Backend::Pacon) / g(Backend::BeeGfs)
    );
    println!(
        "  Pacon norm / IndexFS norm = {:.1}x (paper: ~2.8x)",
        g(Backend::Pacon) / g(Backend::IndexFs)
    );
    println!(
        "  Pacon absolute            = {} ops/s (paper: > 1M)",
        fmt_ops(pacon_abs_320)
    );
    // Acceptance: the absolute claim holds. The two normalized ratios
    // deviate, because the model charges no client CPU to co-located
    // IndexFS servers (EXPERIMENTS.md, Fig 11): neither is asserted.
    assert!(
        pacon_abs_320 >= 1e6,
        "acceptance: Pacon at 320 clients = {pacon_abs_320:.0} ops/s, paper: > 1M"
    );
}
