//! Read-path benchmark for batched multi-get (DESIGN.md §5.2).
//!
//! Stat-heavy + readdir mdtest on the default simnet profile: every
//! client randomly multi-stats the shared file universe, then lists the
//! shared parent with `readdir_plus`. Both series run the *same* op
//! stream against the same region configuration; the unbatched series
//! reaches its clients through a [`MountTable`], which forwards the
//! per-path calls and leaves `stat_many`/`readdir_plus` at the
//! `FileSystem` trait defaults (`stat` per path, `readdir` + `stat` per
//! entry). Unbatched, every path pays its own network hop and full
//! `kv_op` shard demand; batched, keys group by ring node and each group
//! pays one hop plus `kv_op` + marginal per-key slices
//! (`kv_multi_per_key`), so the KvShard bottleneck — and with it read
//! throughput — scales with the batch fill.
//!
//! The region runs paused (`PaconRegion::launch_paused`): the measured
//! phases are read-only, setup drains through `quiesce`, and each
//! `readdir_plus` barrier drives the commit processes itself, inside its
//! own job on the virtual clock — so the run is deterministic.
//!
//! Emits `BENCH_read_path.json` at the repository root with both series
//! and the headline batched-vs-unbatched read speedup.

use std::sync::Arc;

use fsapi::{FileSystem, FsError, MountTable};
use pacon::{PaconConfig, PaconRegion};
use pacon_bench::*;
use simnet::{ClientId, LatencyProfile, Topology};
use workloads::driver::FsOpClient;
use workloads::mdtest;

/// Paths per `StatMany` batch (mdtest stats in chunks; well above the
/// shard-node count so every batch fills each node group).
const STAT_CHUNK: usize = 64;

struct Series {
    label: &'static str,
    stat_ops_per_sec: f64,
    /// p50/p99/p999 cells of the stat phase.
    stat_latency: Vec<String>,
    stat_makespan_ns: u64,
    readdir_makespan_ns: u64,
    batched_reads: u64,
    keys_per_batch: f64,
    read_rtts_saved: u64,
    bytes_not_copied: u64,
}

impl Series {
    fn read_makespan_ns(&self) -> u64 {
        self.stat_makespan_ns + self.readdir_makespan_ns
    }
}

fn run_series(
    label: &'static str,
    batched: bool,
    profile: &Arc<LatencyProfile>,
    topo: Topology,
    items: u32,
) -> Series {
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(profile));
    match dfs.client().mkdir("/app", &CRED, 0o777) {
        Ok(()) | Err(FsError::AlreadyExists) => {}
        Err(e) => panic!("setup mkdir /app: {e}"),
    }
    let cfg = PaconConfig::new("/app", topo, CRED).with_commit_batch(32);
    let region = PaconRegion::launch_paused(cfg, &dfs).expect("pacon launch");
    let client = |c: ClientId| -> Box<dyn FileSystem> {
        let direct = Box::new(region.client(c));
        if batched {
            return direct;
        }
        let mut per_path = MountTable::new();
        per_path.mount("/", direct).expect("empty table");
        Box::new(per_path)
    };

    // Setup (unmeasured, functional): the shared file universe, created
    // under each client's mdtest item names.
    let setup = region.client(ClientId(0));
    let mut universe = Vec::new();
    for c in topo.clients() {
        for op in mdtest::create_phase("/app", c.0, items) {
            op.exec(&setup, &CRED).expect("setup create");
        }
        universe.extend(mdtest::created_files("/app", c.0, items));
    }
    region.quiesce();

    // Measured phase 1: stat-heavy — `items` random stats per client in
    // StatMany chunks (identical streams across series; `client` alone
    // decides whether they batch).
    let stat_clients: Vec<FsOpClient> = topo
        .clients()
        .map(|c| {
            FsOpClient::new(
                client(c),
                CRED,
                mdtest::batched_stat_phase(&universe, items, STAT_CHUNK, c.0 as u64),
            )
        })
        .collect();
    let stat_res = run_phase_with_clients(stat_clients, &WorkerPool::default());
    let expected_stats = topo.total_clients() as u64 * items as u64;
    assert_eq!(stat_res.run.measured_ops, expected_stats, "every stat must run ({label})");

    // Measured phase 2: each client lists the shared parent with
    // readdir_plus (one listing + a stat of every entry).
    let rd_clients: Vec<FsOpClient> = topo
        .clients()
        .map(|c| {
            FsOpClient::new(client(c), CRED, mdtest::readdir_plus_phase("/app", 1))
        })
        .collect();
    let rd_res = run_phase_with_clients(rd_clients, &WorkerPool::default());
    assert_eq!(rd_res.run.measured_ops, topo.total_clients() as u64);

    let report = region.report();
    if batched {
        assert!(report.batched_reads > 0, "batched series must actually batch");
    } else {
        assert_eq!(report.batched_reads, 0, "unbatched baseline must not batch");
    }
    region.shutdown().expect("region shutdown");

    Series {
        label,
        stat_ops_per_sec: stat_res.ops_per_sec,
        stat_latency: latency_cells(&stat_res.run),
        stat_makespan_ns: stat_res.run.makespan_ns,
        readdir_makespan_ns: rd_res.run.makespan_ns,
        batched_reads: report.batched_reads,
        keys_per_batch: report.keys_per_batch(),
        read_rtts_saved: report.read_rtts_saved,
        bytes_not_copied: report.read_bytes_not_copied,
    }
}

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let topo = Topology::new(8, 20);
    let items: u32 = std::env::var("PACON_BENCH_ITEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);

    let base = run_series("unbatched", false, &profile, topo, items);
    let best = run_series("batched", true, &profile, topo, items);

    let rows: Vec<Vec<String>> = [&base, &best]
        .iter()
        .map(|s| {
            let mut row = vec![
                s.label.to_string(),
                fmt_ops(s.stat_ops_per_sec),
                format!("{:.2}ms", s.readdir_makespan_ns as f64 / 1e6),
                s.batched_reads.to_string(),
                format!("{:.1}", s.keys_per_batch),
                s.read_rtts_saved.to_string(),
            ];
            row.extend(s.stat_latency.clone());
            row
        })
        .collect();
    let mut header: Vec<String> =
        ["config", "stat ops/s", "readdir makespan", "batches", "keys/batch", "RTTs saved"]
            .map(String::from)
            .to_vec();
    header.extend(latency_header().into_iter().map(|h| format!("stat {h}")));
    print_table(
        "Read path: batched multi-get vs per-key gets (160 clients, default profile)",
        &header,
        &rows,
    );

    // The two series perform identical logical reads, so the read
    // speedup is the ratio of total read-phase virtual time.
    let speedup = base.read_makespan_ns() as f64 / best.read_makespan_ns() as f64;
    println!("\nbatched vs unbatched: {speedup:.2}x read (stat+readdir) throughput");
    assert!(
        speedup >= 2.0,
        "acceptance: batched reads must deliver >= 2x over unbatched, got {speedup:.2}x"
    );

    // Hand-rolled JSON (no serde in the workspace).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"read_path\",\n");
    json.push_str("  \"workload\": \"mdtest random stat + readdir_plus\",\n");
    json.push_str(&format!(
        "  \"topology\": {{ \"nodes\": {}, \"clients_per_node\": {} }},\n",
        topo.nodes, topo.clients_per_node
    ));
    json.push_str(&format!("  \"items_per_client\": {items},\n"));
    json.push_str(&format!("  \"stat_chunk\": {STAT_CHUNK},\n"));
    json.push_str("  \"series\": [\n");
    for (i, s) in [&base, &best].iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"config\": \"{}\", \"stat_ops_per_sec\": {:.1}, \
             \"stat_makespan_ns\": {}, \"readdir_makespan_ns\": {}, \
             \"read_makespan_ns\": {}, \"batched_reads\": {}, \
             \"keys_per_batch\": {:.2}, \"read_rtts_saved\": {}, \
             \"bytes_not_copied\": {} }}{}\n",
            s.label,
            s.stat_ops_per_sec,
            s.stat_makespan_ns,
            s.readdir_makespan_ns,
            s.read_makespan_ns(),
            s.batched_reads,
            s.keys_per_batch,
            s.read_rtts_saved,
            s.bytes_not_copied,
            if i == 0 { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_batched_vs_unbatched\": {speedup:.2}\n"));
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_read_path.json");
    std::fs::write(out, json).expect("write BENCH_read_path.json");
    println!("wrote {out}");
}
