//! Ablation study — which design decision buys what (DESIGN.md §5).
//!
//! Three switches, each isolating one mechanism from Section III (what
//! asynchronous commit buys over waiting for the MDS is Fig 7's BeeGFS
//! column — the synchronous baseline is the system, not a client mode):
//!
//! * **batch vs hierarchical permission checks** — Section III.C's
//!   traversal-free authentication;
//! * **parent check on/off** — Section III.C's optional creation check;
//! * **small-file threshold sweep** — Section III.D-2's inline data.

use std::sync::Arc;

use pacon_bench::*;
use simnet::{LatencyProfile, Topology};
use workloads::ops::FsOp;

/// Two named columns plus the shared tail-latency columns.
fn ablation_header(first: &str, second: &str) -> Vec<String> {
    let mut h = vec![first.to_string(), second.to_string()];
    h.extend(latency_header());
    h
}

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let topo = Topology::new(8, 20);
    let items = 100u32;

    // --- (b) batch vs hierarchical permission checks ------------------
    // Deep working paths make traversal cost visible.
    let mut rows = Vec::new();
    for (label, hier) in [("batch permissions", false), ("hierarchical checks", true)] {
        let bed = pacon_testbed_with(Arc::clone(&profile), topo, "/app", |c| {
            if hier {
                c.with_hierarchical_permission_check()
            } else {
                c
            }
        });
        let pool = WorkerPool::claim(&bed);
        // Build a deep directory chain, then create files at depth 6.
        let chain = "/app/a/b/c/d/e";
        {
            let setup = bed.client(simnet::ClientId(0));
            let mut p = String::from("/app");
            for comp in ["a", "b", "c", "d", "e"] {
                p = format!("{p}/{comp}");
                FsOp::Mkdir(p.clone(), 0o755).exec(setup.as_ref(), &CRED).unwrap();
            }
        }
        run_phase(&bed, &pool, |_| Vec::new()); // drain setup
        let res = run_phase(&bed, &pool, |c| {
            (0..items)
                .map(|i| FsOp::Create(format!("{chain}/f{:04}-{i:06}", c.0), 0o644))
                .collect()
        });
        let mut row = vec![label.to_string(), fmt_ops(res.ops_per_sec)];
        row.extend(latency_cells(&res.run));
        rows.push(row);
    }
    print_table(
        "Ablation (b): permission checking at depth 6 — create ops/s",
        &ablation_header("mode", "create"),
        &rows,
    );

    // --- (c) parent check ----------------------------------------------
    let mut rows = Vec::new();
    for (label, check) in [("parent check on", true), ("parent check off", false)] {
        let bed = pacon_testbed_with(Arc::clone(&profile), topo, "/app", |c| {
            if check {
                c
            } else {
                c.without_parent_check()
            }
        });
        let pool = WorkerPool::claim(&bed);
        // Round-robin over many parents defeats the parent memo, exposing
        // the check's full cost.
        {
            let setup = bed.client(simnet::ClientId(0));
            for d in 0..16 {
                FsOp::Mkdir(format!("/app/p{d}"), 0o755).exec(setup.as_ref(), &CRED).unwrap();
            }
        }
        run_phase(&bed, &pool, |_| Vec::new());
        let res = run_phase(&bed, &pool, |c| {
            (0..items)
                .map(|i| {
                    FsOp::Create(format!("/app/p{}/f{:04}-{i:06}", i % 16, c.0), 0o644)
                })
                .collect()
        });
        let mut row = vec![label.to_string(), fmt_ops(res.ops_per_sec)];
        row.extend(latency_cells(&res.run));
        rows.push(row);
    }
    print_table(
        "Ablation (c): parent-existence check — create ops/s (16 parents, round-robin)",
        &ablation_header("mode", "create"),
        &rows,
    );

    // --- (d) small-file threshold sweep --------------------------------
    let mut rows = Vec::new();
    let payload = vec![0x5Au8; 2048];
    for threshold in [256usize, 1024, 4096, 16384] {
        let bed = pacon_testbed_with(Arc::clone(&profile), topo, "/app", |c| {
            c.with_small_file_threshold(threshold)
        });
        let pool = WorkerPool::claim(&bed);
        let payload = payload.clone();
        let res = run_phase(&bed, &pool, move |c| {
            (0..items)
                .flat_map(|i| {
                    let path = format!("/app/s{:04}-{i:06}", c.0);
                    vec![
                        FsOp::Create(path.clone(), 0o644),
                        FsOp::Write { path, offset: 0, data: payload.clone() },
                    ]
                })
                .collect()
        });
        let mut row = vec![format!("{threshold} B"), fmt_ops(res.ops_per_sec)];
        row.extend(latency_cells(&res.run));
        rows.push(row);
    }
    print_table(
        "Ablation (d): small-file threshold — create+write(2 KiB) ops/s",
        &ablation_header("threshold", "ops/s"),
        &rows,
    );
    println!(
        "\n2 KiB writes stay inline above ~2.1 KiB thresholds; below that every\n\
         write transitions to a large file and pays the DFS data path."
    );
}
