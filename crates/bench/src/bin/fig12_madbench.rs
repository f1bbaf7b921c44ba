//! Figure 12 — MADbench2 runtime breakdown.
//!
//! 16 nodes x 16 processes; 256 files of 4 MiB; read/write/compute loops
//! over the files. Runtimes are normalized to BeeGFS and broken down
//! into read / write / init (file creation) / other (computation).
//!
//! Paper shape: the overall runtime is nearly identical on Pacon and
//! BeeGFS (this is a data-intensive workload; all 4 MiB files exceed the
//! small-file threshold and go to the DFS), with only the `init` part
//! slightly smaller under Pacon.

use std::sync::Arc;

use pacon_bench::*;
use qsim::Process;
use simnet::{ClientId, LatencyProfile, Topology};
use workloads::madbench::{run_madbench_phases, verify_data, MadbenchConfig, MadbenchPhases};

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let topo = Topology::new(16, 16);
    let cfg = MadbenchConfig {
        dir: "/mad".into(),
        procs: topo.total_clients(),
        file_mib: 4,
        loops: 2,
        compute_ns_per_loop: 400_000_000,
    };

    let mut results: Vec<(Backend, MadbenchPhases)> = Vec::new();
    for backend in [Backend::BeeGfs, Backend::Pacon] {
        let bed = TestBed::new(backend, Arc::clone(&profile), topo, &["/mad"]);
        let pool = WorkerPool::claim(&bed);
        // Long-lived commit processes shared across all four phases
        // (empty for BeeGFS).
        let background: Vec<Box<dyn Process>> = pool.boxed();
        let phases = run_madbench_phases(&cfg, |p| bed.client(ClientId(p)), CRED, background);
        // The data must actually round-trip.
        let probe = bed.client(ClientId(0));
        verify_data(&cfg, probe.as_ref(), &CRED).expect("data integrity");
        results.push((backend, phases));
    }

    let bee_total = results[0].1.breakdown().total_ns() as f64;
    let mut rows = Vec::new();
    for (backend, phases) in &results {
        let bd = phases.breakdown();
        let f = bd.fractions();
        // Tail latency of the init phase — the metadata-bound part.
        let mut row = vec![
            backend.label().to_string(),
            format!("{:.3}", bd.total_ns() as f64 / bee_total),
            format!("{:.1}%", f[0] * 100.0),
            format!("{:.1}%", f[1] * 100.0),
            format!("{:.2}%", f[2] * 100.0),
            format!("{:.1}%", f[3] * 100.0),
        ];
        row.extend(latency_cells(&phases.init));
        rows.push(row);
    }
    let mut header: Vec<String> =
        ["system", "total", "read", "write", "init", "other"].map(String::from).to_vec();
    header.extend(latency_header().into_iter().map(|h| format!("init {h}")));
    print_table(
        "Fig 12: MADbench2 breakdown (normalized to BeeGFS total)",
        &header,
        &rows,
    );

    let bee = results[0].1.breakdown();
    let pac = results[1].1.breakdown();
    println!(
        "\n  init: Pacon {:.3} ms vs BeeGFS {:.3} ms (paper: Pacon slightly smaller)",
        pac.init_ns as f64 / 1e6,
        bee.init_ns as f64 / 1e6
    );
    let gap = 100.0 * ((pac.total_ns() as f64 / bee.total_ns() as f64) - 1.0).abs();
    println!("  totals within {gap:.1}% of each other (paper: almost the same)");
    // Acceptance: the totals hold. The init row deviates (0.27 ms against
    // 22.3 ms, not "slightly smaller"), because init here is the 256
    // creates alone — acknowledged from the cache under Pacon, serialized
    // on the one MDS under BeeGFS — and no model term stands for what else
    // the paper's init spends (EXPERIMENTS.md, Fig 12): it is not asserted.
    assert!(gap <= 1.0, "acceptance: totals {gap:.2}% apart, paper: almost the same (within 1%)");
}
