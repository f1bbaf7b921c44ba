//! Durable commit queue benchmark (DESIGN.md §5.3).
//!
//! Two questions, two phases:
//!
//! 1. **Durability overhead** — what does journaling cost the *client*?
//!    The WAL append + fsync sits on the publish path, before the local
//!    acknowledgement, so its cost is real wall-clock disk I/O (the
//!    simulated stations never see it). We storm creates + inline writes
//!    through one client in volatile mode, durable mode with fsync per
//!    append (`wal_fsync_batch = 1`), and durable mode with group fsync
//!    (`wal_fsync_batch = 32`), and compare wall-clock publish
//!    throughput. The last series spreads the same storm round-robin over
//!    eight nodes, one client each: the region's one log syncs at a
//!    node's 32nd unsynced append, for every node at once, so it must
//!    sync at most a quarter as often as the one-node series (exact
//!    counts, not timings).
//!
//! 2. **Recovery time** — how long does a relaunch spend replaying a
//!    full log? We kill the fsync-batched region with everything still
//!    buffered and time the next `launch_paused`, which replays every
//!    journaled op into the DFS before the region opens.
//!
//! Emits `BENCH_wal_commit.json` at the repository root.

use std::sync::Arc;
use std::time::Instant;

use fsapi::FileSystem;
use pacon::{PaconConfig, PaconRegion};
use pacon_bench::*;
use simnet::{ClientId, LatencyProfile, Topology};

/// One storm = `items` creates, each followed by an inline write (two
/// journaled ops per file in durable mode), the files dealt round-robin
/// to one client per node. Returns elapsed seconds plus a per-op
/// wall-clock latency histogram (create+write measured as one publish, so
/// the histogram has `items` samples).
fn storm(region: &Arc<PaconRegion>, items: u32, nodes: u32) -> (f64, simnet::LatencyHistogram) {
    let clients: Vec<_> = (0..nodes).map(|n| region.client(ClientId(n))).collect();
    let mut hist = simnet::LatencyHistogram::new();
    let started = Instant::now();
    for i in 0..items {
        let c = &clients[(i % nodes) as usize];
        let op_started = Instant::now();
        let path = format!("/app/f{i}");
        c.create(&path, &CRED, 0o644).expect("create");
        c.write(&path, &CRED, 0, b"wal-bench-payload").expect("write");
        hist.record(op_started.elapsed().as_nanos() as u64);
    }
    (started.elapsed().as_secs_f64(), hist)
}

fn fresh_wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pacon-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let profile = Arc::new(LatencyProfile::zero());
    let topo = Topology::new(1, 1);
    let items: u32 = std::env::var("PACON_BENCH_ITEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let total_ops = 2 * items as u64; // create + write per file

    // Large commit batch + paused workers: every op stays buffered, so
    // the storm measures the publish path alone and the kill below
    // leaves the whole log for recovery to replay.
    let base = |dfs: &Arc<dfs::DfsCluster>, config: PaconConfig| {
        dfs.client().mkdir("/app", &CRED, 0o777).expect("mkdir /app");
        PaconRegion::launch_paused(config.with_commit_batch(usize::MAX), dfs)
            .expect("pacon launch")
    };

    let mut rows = Vec::new();
    let mut series: Vec<(String, f64, u64, simnet::LatencyHistogram)> = Vec::new();

    // -- volatile baseline ------------------------------------------------
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let region = base(&dfs, PaconConfig::new("/app", topo, CRED));
    let (secs, hist) = storm(&region, items, 1);
    let volatile_ops = total_ops as f64 / secs;
    series.push(("volatile".into(), volatile_ops, 0, hist));
    drop(region);

    // -- durable, fsync per append ---------------------------------------
    let wal_dir_strict = fresh_wal_dir("strict");
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let region = base(
        &dfs,
        PaconConfig::new("/app", topo, CRED)
            .with_durability(&wal_dir_strict)
            .with_wal_fsync_batch(1),
    );
    let (secs, hist) = storm(&region, items, 1);
    let strict_ops = total_ops as f64 / secs;
    series.push(("durable fsync=1".into(), strict_ops, region.report().wal_fsyncs, hist));
    drop(region);

    // -- durable, group fsync (kept alive for the recovery phase) --------
    let wal_dir = fresh_wal_dir("batched");
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let config = PaconConfig::new("/app", topo, CRED)
        .with_durability(&wal_dir)
        .with_wal_fsync_batch(32);
    let region = base(&dfs, config.clone());
    let (secs, hist) = storm(&region, items, 1);
    let batched_ops = total_ops as f64 / secs;
    let batched_fsyncs = region.report().wal_fsyncs;
    series.push(("durable fsync=32".into(), batched_ops, batched_fsyncs, hist));

    // -- durable, group fsync, the same storm over eight nodes ----------
    const NODES: u32 = 8;
    let wal_dir_nodes = fresh_wal_dir("nodes");
    let dfs_nodes = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
    let spread = base(
        &dfs_nodes,
        PaconConfig::new("/app", Topology::new(NODES, 1), CRED)
            .with_durability(&wal_dir_nodes)
            .with_wal_fsync_batch(32),
    );
    let (secs, hist) = storm(&spread, items, NODES);
    let nodes_fsyncs = spread.report().wal_fsyncs;
    let label = format!("durable fsync=32, {NODES} nodes");
    series.push((label, total_ops as f64 / secs, nodes_fsyncs, hist));
    drop(spread);
    let _ = std::fs::remove_dir_all(&wal_dir_nodes);

    // -- recovery: kill with the full log buffered, time the relaunch ----
    region.abort();
    drop(region);
    let started = Instant::now();
    let recovered =
        PaconRegion::launch_paused(config.with_commit_batch(usize::MAX), &dfs)
            .expect("recovery launch");
    let recovery_secs = started.elapsed().as_secs_f64();
    let report = recovered.report();
    assert_eq!(
        report.wal_replayed, total_ops,
        "recovery must replay every journaled op"
    );
    assert_eq!(report.recovery_applied + report.recovery_skipped, report.wal_replayed);
    let recovery_ops_per_sec = report.wal_replayed as f64 / recovery_secs;
    drop(recovered);
    let _ = std::fs::remove_dir_all(&wal_dir_strict);
    let _ = std::fs::remove_dir_all(&wal_dir);

    for (label, ops, fsyncs, hist) in &series {
        let overhead = (volatile_ops / ops - 1.0) * 100.0;
        // Per-publish wall-clock tail (create+write measured together).
        let p = |q: f64| hist.percentile(q).map(fmt_ns).unwrap_or_else(|| "-".into());
        rows.push(vec![
            label.clone(),
            fmt_ops(*ops),
            format!("{overhead:.0}%"),
            fsyncs.to_string(),
            p(0.50),
            p(0.99),
            p(0.999),
        ]);
    }
    print_table(
        "Durable commit queue: publish throughput (wall clock, 1 client per node)",
        &["config", "publish ops/s", "overhead", "fsyncs", "p50", "p99", "p999"]
            .map(String::from),
        &rows,
    );
    println!(
        "\nrecovery: {} ops replayed in {:.1} ms ({} ops/s)",
        report.wal_replayed,
        recovery_secs * 1e3,
        fmt_ops(recovery_ops_per_sec)
    );

    // Group fsync must claw back most of the strict-durability cost: it
    // may not be slower than fsync-per-append (modulo noise).
    assert!(
        batched_ops >= strict_ops * 0.9,
        "acceptance: fsync batching must not lose to fsync-per-append \
         ({:.0} vs {:.0} ops/s)",
        batched_ops,
        strict_ops
    );
    assert!(
        batched_fsyncs < total_ops / 8,
        "acceptance: group fsync must amortize syncs ({batched_fsyncs} for {total_ops} appends)"
    );
    // One sync covers every node: the same ops over eight nodes sync at
    // most a quarter as often as over one.
    assert!(
        4 * nodes_fsyncs <= batched_fsyncs,
        "acceptance: one log's group fsync must cover every node \
         ({nodes_fsyncs} syncs over {NODES} nodes, {batched_fsyncs} over one)"
    );

    // Hand-rolled JSON (no serde in the workspace).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"wal_commit\",\n");
    json.push_str("  \"workload\": \"create + inline write storm, publish path only\",\n");
    json.push_str(&format!("  \"items\": {items},\n"));
    json.push_str(&format!("  \"ops\": {total_ops},\n"));
    json.push_str("  \"series\": [\n");
    for (i, (label, ops, fsyncs, hist)) in series.iter().enumerate() {
        let overhead = (volatile_ops / ops - 1.0) * 100.0;
        let q = |q: f64| hist.percentile(q).unwrap_or(0);
        json.push_str(&format!(
            "    {{ \"config\": \"{label}\", \"publish_ops_per_sec\": {ops:.1}, \
             \"overhead_pct\": {overhead:.1}, \"wal_fsyncs\": {fsyncs}, \
             \"publish_p50_ns\": {}, \"publish_p99_ns\": {}, \"publish_p999_ns\": {} }}{}\n",
            q(0.50),
            q(0.99),
            q(0.999),
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"recovery\": {{ \"ops_replayed\": {}, \"millis\": {:.2}, \
         \"ops_per_sec\": {recovery_ops_per_sec:.1} }}\n",
        report.wal_replayed,
        recovery_secs * 1e3
    ));
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal_commit.json");
    std::fs::write(out, json).expect("write BENCH_wal_commit.json");
    println!("wrote {out}");
}
