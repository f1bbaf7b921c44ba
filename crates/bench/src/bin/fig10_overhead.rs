//! Figure 10 — Pacon's overhead vs raw Memcached.
//!
//! No concurrency: a single client creates subdirectories under one
//! parent at varying depth (fanout-5 namespaces); memaslap-style raw
//! item insertion into the same cache deployment is the upper bound.
//!
//! Paper shape: BeeGFS and IndexFS are far below the in-memory KV;
//! Pacon reaches more than 64.6% of raw Memcached.

use std::sync::Arc;

use memkv::KvCluster;
use pacon_bench::*;
use qsim::{Process, Simulation};
use simnet::{ClientId, LatencyProfile, NodeId, Topology};
use workloads::memaslap::{insertion_workload, KvOpClient};
use workloads::ops::{exec_all, FsOp};

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let topo = Topology::new(16, 20);
    let items = 500u32;
    let mut rows = Vec::new();
    let mut pacon_vs_kv: Vec<f64> = Vec::new();

    // Raw memcached baseline: single memaslap client inserting items.
    let kv_cluster = KvCluster::new(topo, Arc::clone(&profile));
    let kv_ops = insertion_workload("/raw", items, 64);
    let mut procs: Vec<Box<dyn Process>> =
        vec![Box::new(KvOpClient::new(kv_cluster.client(NodeId(0)), kv_ops))];
    let raw = Simulation::new().run(&mut procs);
    let raw_tput = raw.ops_per_sec();

    for depth in 1..=4u32 {
        for backend in Backend::ALL {
            let bed = TestBed::new(backend, Arc::clone(&profile), topo, &["/ns"]);
            let pool = WorkerPool::claim(&bed);
            // Build the parent chain at the requested depth (plus fanout-5
            // siblings for namespace shape), outside the measurement.
            let setup = bed.client(ClientId(0));
            let mut parent = "/ns".to_string();
            let mut setup_ops = Vec::new();
            for level in 0..depth - 1 {
                for k in 0..5 {
                    setup_ops.push(FsOp::Mkdir(format!("{parent}/s{level}-{k}"), 0o755));
                }
                parent = format!("{parent}/s{level}-0");
            }
            let (_ok, err) = exec_all(setup.as_ref(), &CRED, &setup_ops);
            assert_eq!(err, 0);
            drop(setup);
            if backend == Backend::Pacon {
                run_phase(&bed, &pool, |_| Vec::new()); // drain setup commits
            }

            // Single measured client creating subdirectories.
            let parent2 = parent.clone();
            let ops: Vec<FsOp> = (0..items)
                .map(|i| FsOp::Mkdir(format!("{parent2}/m{i:06}"), 0o755))
                .collect();
            let client =
                workloads::driver::FsOpClient::new(bed.client(ClientId(0)), CRED, ops);
            let res = run_phase_with_clients(vec![client], &pool);
            if backend == Backend::Pacon {
                pacon_vs_kv.push(res.ops_per_sec / raw_tput);
            }
            let mut row = vec![
                depth.to_string(),
                backend.label().to_string(),
                fmt_ops(res.ops_per_sec),
                format!("{:.0}%", 100.0 * res.ops_per_sec / raw_tput),
            ];
            row.extend(latency_cells(&res.run));
            rows.push(row);
        }
        let mut row = vec![
            depth.to_string(),
            "Memcached".to_string(),
            fmt_ops(raw_tput),
            "100%".to_string(),
        ];
        row.extend(latency_cells(&raw));
        rows.push(row);
    }

    let mut header: Vec<String> =
        ["depth", "system", "ops/s", "vs raw KV"].map(String::from).to_vec();
    header.extend(latency_header());
    print_table(
        "Fig 10: single-client mkdir throughput vs raw Memcached insertion",
        &header,
        &rows,
    );
    let min = pacon_vs_kv.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\nPacon reaches {:.1}%..{:.1}% of raw Memcached (paper: > 64.6%)",
        min * 100.0,
        pacon_vs_kv.iter().cloned().fold(0.0, f64::max) * 100.0
    );
    // Acceptance: the paper's bound holds at every depth, on the unrounded
    // ratio (64.64 % at its lowest).
    let lowest = min * 100.0;
    assert!(lowest >= 64.6, "acceptance: Pacon at {lowest:.3}% of raw Memcached, paper: > 64.6%");
}
