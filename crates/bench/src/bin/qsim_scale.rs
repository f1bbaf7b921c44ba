//! Event-engine scale benchmark: radix heap vs reference binary heap.
//!
//! The paper targets metadata storms from clusters with millions of
//! client processes; the reproduction's ceiling is how many closed-loop
//! virtual clients the discrete-event engine can carry. Both sweeps
//! start at 168, the repo benchmark's own population (160 clients plus
//! 8 commit processes). Three sections:
//!
//! **Scheduler churn** isolates the scheduler: `n` concurrent timers pop
//! and re-arm at calibrated think/service offsets
//! ([`qsim::sched_bench::churn`]) with no process dispatch in the loop.
//! Best-of-3 wall times for the radix heap vs the original `BinaryHeap`,
//! with a dispatch-order checksum cross-check. The radix heap's cost per
//! event is flat across the sweep, while the binary heap's sift chains
//! over a DRAM-resident array grow with `n`, so the gap widens from a few
//! times at 10^2..10^4 timers to an order of magnitude at 10^6.
//!
//! **Engine sweep** runs the full closed-loop engine across
//! {168, 10^3..10^6} clients and measures end-to-end event throughput and
//! peak RSS for both configurations:
//!
//! * **radix** — the radix-heap scheduler driving a dense,
//!   monomorphized process table ([`qsim::Simulation::run_procs`]);
//! * **heap** — the original `BinaryHeap` scheduler driving `Box<dyn
//!   Process>` clients (the pre-rework engine, kept in qsim as the
//!   equivalence oracle).
//!
//! The synthetic population is scheduler-bound on purpose: clients
//! mostly sleep for pseudo-random intervals (pure push/pop traffic,
//! which is what 10^6 mostly-idle HPC processes look like to the
//! engine) and periodically issue a one-segment job against one of 64
//! contended stations. Both configurations run the identical
//! deterministic workload and are cross-checked event-for-event. The
//! end-to-end gap is smaller than the scheduler-level gap because both
//! engines share the per-event cost of touching random client state.
//!
//! A third section runs the Zipfian hot-directory workload end-to-end
//! through Pacon (functional backend + commit drain) and reports
//! client-perceived p50/p99/p999 per op class — the tail-latency figure
//! the engine histograms exist for.
//!
//! Emits `BENCH_qsim_scale.json`. Env knobs:
//! `QSIM_SCALE_MAX_CLIENTS` caps the sweeps (CI smoke uses 10000),
//! `QSIM_SCALE_EVENTS` adjusts the per-point event budget,
//! `PACON_BENCH_ITEMS` sizes the Zipf phase.

use std::sync::Arc;
use std::time::Instant;

use pacon_bench::*;
use qsim::{Process, RunResult, Simulation, Step};
use simnet::{CostTrace, LatencyProfile, Station, Topology};
use workloads::zipf;

/// Contended stations the synthetic jobs hit.
const STATIONS: u32 = 64;
/// One job per this many steps; the rest are idle sleeps.
const WORK_EVERY: u64 = 8;

/// Closed-loop synthetic client: sleeps pseudo-random intervals,
/// periodically issues a one-segment job at a contended station.
struct SynthClient {
    rng: u64,
    steps_left: u64,
}

impl SynthClient {
    fn new(id: u64, steps: u64) -> Self {
        // splitmix64-style seeding keeps neighbouring ids uncorrelated.
        let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        Self { rng: z | 1, steps_left: steps }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64: cheap enough to vanish next to scheduler work.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

impl Process for SynthClient {
    fn next(&mut self, _now: u64) -> Step {
        if self.steps_left == 0 {
            return Step::Done;
        }
        self.steps_left -= 1;
        let r = self.next_u64();
        if r.is_multiple_of(WORK_EVERY) {
            let mut t = CostTrace::new();
            t.push(Station::Mds(r as u32 % STATIONS), 200 + r % 800);
            Step::Work { trace: t, ops: 1, class: (r % 3) as u16 }
        } else {
            Step::Idle { ns: 1 + r % 50_000 }
        }
    }
}

/// Peak resident set size in KiB (`VmHWM` — the process high-water mark,
/// cumulative over the sweep; points run in ascending client order so
/// each reading reflects the largest population so far).
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

struct EnginePoint {
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    peak_rss_kb: u64,
    run: RunResult,
}

fn run_radix(n: usize, steps: u64) -> EnginePoint {
    let mut procs: Vec<SynthClient> =
        (0..n).map(|i| SynthClient::new(i as u64, steps)).collect();
    let t0 = Instant::now();
    let run = Simulation::new().run_procs(&mut procs);
    finish_point(t0, run)
}

fn run_heap(n: usize, steps: u64) -> EnginePoint {
    let mut procs: Vec<Box<dyn Process>> = (0..n)
        .map(|i| Box::new(SynthClient::new(i as u64, steps)) as Box<dyn Process>)
        .collect();
    let t0 = Instant::now();
    let run = Simulation::new().run_reference_heap(&mut procs);
    finish_point(t0, run)
}

fn finish_point(t0: Instant, run: RunResult) -> EnginePoint {
    let wall = t0.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events = run.events_dispatched;
    EnginePoint {
        wall_ms,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64(),
        peak_rss_kb: peak_rss_kb(),
        run,
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

struct ChurnPoint {
    timers: usize,
    radix_events_per_sec: f64,
    heap_events_per_sec: f64,
    speedup: f64,
}

/// Raw scheduler churn, best-of-3 per engine (interleaved, so ambient
/// machine noise hits both engines alike).
fn churn_sweep(sweep: &[usize], events: u64) -> Vec<ChurnPoint> {
    use qsim::sched_bench::{churn, EngineKind};
    let mut points = Vec::new();
    for &n in sweep {
        let mut radix_best = f64::MAX;
        let mut heap_best = f64::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            let rsum = churn(EngineKind::Radix, n as u32, events, 7);
            radix_best = radix_best.min(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let hsum = churn(EngineKind::Heap, n as u32, events, 7);
            heap_best = heap_best.min(t1.elapsed().as_secs_f64());
            assert_eq!(rsum, hsum, "schedulers dispatched different orders at n={n}");
        }
        points.push(ChurnPoint {
            timers: n,
            radix_events_per_sec: events as f64 / radix_best,
            heap_events_per_sec: events as f64 / heap_best,
            speedup: heap_best / radix_best,
        });
    }
    points
}

fn main() {
    let max_clients = env_u64("QSIM_SCALE_MAX_CLIENTS", 1_000_000) as usize;
    let event_budget = env_u64("QSIM_SCALE_EVENTS", 4_000_000);

    let sweep: Vec<usize> = [168usize, 1_000, 10_000, 100_000, 1_000_000]
        .into_iter()
        .filter(|&n| n <= max_clients)
        .collect();
    assert!(!sweep.is_empty(), "QSIM_SCALE_MAX_CLIENTS must allow at least 168 clients");

    // ---- Raw scheduler churn: the data structure in isolation ----
    let churn_points = churn_sweep(&sweep, event_budget);
    print_table(
        "Scheduler churn: pop + re-arm, no dispatch (best of 3)",
        &["timers", "radix ev/s", "heap ev/s", "speedup"].map(String::from),
        &churn_points
            .iter()
            .map(|p| {
                vec![
                    p.timers.to_string(),
                    fmt_ops(p.radix_events_per_sec),
                    fmt_ops(p.heap_events_per_sec),
                    format!("{:.1}x", p.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for p in &churn_points {
        // Acceptance floors, each well under what best-of-3 measures on
        // a shared 2-core machine so noise does not trip them: the radix
        // heap beats the binary heap at every population, the benchmark's
        // 168 included, and by an order of magnitude once the binary
        // heap's array outgrows the last-level cache (10^6 timers).
        let floor = match p.timers {
            t if t >= 1_000_000 => 7.5,
            t if t >= 100_000 => 3.5,
            _ => 1.5,
        };
        assert!(
            p.speedup >= floor,
            "acceptance: radix heap must deliver >= {floor}x scheduler throughput at {} timers, got {:.1}x",
            p.timers,
            p.speedup
        );
    }

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for &n in &sweep {
        // Hold total dispatched events roughly constant across the sweep
        // so each point times the scheduler at its population, not a
        // larger workload.
        let steps = (event_budget / n as u64).max(4);
        let radix = run_radix(n, steps);
        let heap = run_heap(n, steps);

        // Same workload, same dispatch order: the engines must agree on
        // everything virtual-time.
        assert_eq!(radix.run.events_dispatched, heap.run.events_dispatched, "n={n}");
        assert_eq!(radix.run.makespan_ns, heap.run.makespan_ns, "n={n}");
        assert_eq!(radix.run.measured_ops, heap.run.measured_ops, "n={n}");

        let speedup = radix.events_per_sec / heap.events_per_sec;
        rows.push(vec![
            n.to_string(),
            radix.events.to_string(),
            fmt_ops(radix.events_per_sec),
            fmt_ops(heap.events_per_sec),
            format!("{speedup:.1}x"),
            format!("{:.1}", radix.wall_ms),
            format!("{:.1}", heap.wall_ms),
            format!("{}", radix.peak_rss_kb / 1024),
        ]);
        series.push((n, steps, radix, heap, speedup));
    }

    print_table(
        "Engine scale: radix heap (dense) vs binary heap (boxed)",
        &["clients", "events", "radix ev/s", "heap ev/s", "speedup", "radix ms", "heap ms", "rss MiB"]
            .map(String::from),
        &rows,
    );

    for (n, _, _, _, speedup) in &series {
        // End-to-end the engines share the cost of executing the clients
        // themselves, so the bar is lower than the scheduler-level one
        // (measured 2.6-4.8x at 10^5-10^6 clients on a 2-core machine).
        if *n >= 100_000 {
            assert!(
                *speedup >= 1.5,
                "acceptance: reworked engine must beat the boxed-heap engine at {n} clients, got {speedup:.1}x"
            );
        }
    }

    // ---- Zipfian hot-directory workload end-to-end through Pacon ----
    let items = env_u64("PACON_BENCH_ITEMS", 50) as u32;
    let profile = Arc::new(LatencyProfile::default());
    let topo = Topology::new(4, 8);
    let bed = TestBed::new(Backend::Pacon, profile, topo, &["/app"]);
    let pool = WorkerPool::claim(&bed);

    // Hot directories, then a skewed create/stat mix against them.
    let hot_dirs: Vec<String> = (0..32).map(|i| format!("/app/hot{i:02}")).collect();
    let setup_dirs = hot_dirs.clone();
    run_phase(&bed, &pool, move |c| {
        if c.0 == 0 {
            setup_dirs.iter().map(|d| workloads::FsOp::Mkdir(d.clone(), 0o755)).collect()
        } else {
            Vec::new()
        }
    });
    let dirs = hot_dirs.clone();
    let res = run_phase(&bed, &pool, move |c| {
        zipf::zipf_mixed_phase(&dirs, &dirs, c.0, items, 0.99, 50, 1000 + c.0 as u64)
    });
    assert_eq!(
        res.run.measured_ops,
        topo.total_clients() as u64 * items as u64,
        "zipf phase must complete every op"
    );
    println!(
        "\nZipf(0.99) hot-dir mix through Pacon: {} clients, {} ops, {} ops/s",
        topo.total_clients(),
        res.run.measured_ops,
        fmt_ops(res.ops_per_sec)
    );
    print_class_latency("Zipf hot-dir mix: per-op-class latency", &res.run, workloads::CLASS_NAMES);

    // ---- JSON artifact ----
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"qsim_scale\",\n");
    json.push_str("  \"workload\": \"synthetic closed-loop (idle-heavy, 64 contended stations)\",\n");
    json.push_str(&format!("  \"event_budget\": {event_budget},\n"));
    json.push_str("  \"rss_note\": \"VmHWM is a process high-water mark; points run in ascending client order\",\n");
    json.push_str("  \"scheduler_churn\": [\n");
    for (i, p) in churn_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"timers\": {}, \"radix_events_per_sec\": {:.0}, \
             \"heap_events_per_sec\": {:.0}, \"speedup\": {:.2} }}{}\n",
            p.timers,
            p.radix_events_per_sec,
            p.heap_events_per_sec,
            p.speedup,
            if i + 1 < churn_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"series\": [\n");
    for (i, (n, steps, radix, heap, speedup)) in series.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"clients\": {n}, \"steps_per_client\": {steps}, \"events\": {}, \
             \"radix_events_per_sec\": {:.0}, \"heap_events_per_sec\": {:.0}, \
             \"radix_wall_ms\": {:.1}, \"heap_wall_ms\": {:.1}, \
             \"speedup\": {speedup:.2}, \"peak_rss_kb\": {} }}{}\n",
            radix.events,
            radix.events_per_sec,
            heap.events_per_sec,
            radix.wall_ms,
            heap.wall_ms,
            radix.peak_rss_kb,
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let h = res.run.merged_hist();
    json.push_str("  \"zipf_hot_dir\": {\n");
    json.push_str("    \"theta\": 0.99, \"stat_pct\": 50, \"hot_dirs\": 32,\n");
    json.push_str(&format!(
        "    \"clients\": {}, \"items_per_client\": {items}, \"ops_per_sec\": {:.1},\n",
        topo.total_clients(),
        res.ops_per_sec
    ));
    json.push_str(&format!(
        "    \"latency_ns\": {{ \"p50\": {}, \"p99\": {}, \"p999\": {} }},\n",
        h.percentile(0.50).unwrap_or(0),
        h.percentile(0.99).unwrap_or(0),
        h.percentile(0.999).unwrap_or(0)
    ));
    json.push_str("    \"classes\": [\n");
    let classes: Vec<(usize, &simnet::LatencyHistogram)> = res
        .run
        .class_hists
        .iter()
        .enumerate()
        .filter(|(_, h)| !h.is_empty())
        .collect();
    for (i, (class, ch)) in classes.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"op\": \"{}\", \"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {} }}{}\n",
            workloads::CLASS_NAMES.get(*class).unwrap_or(&"?"),
            ch.count(),
            ch.percentile(0.50).unwrap_or(0),
            ch.percentile(0.99).unwrap_or(0),
            ch.percentile(0.999).unwrap_or(0),
            if i + 1 < classes.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_qsim_scale.json");
    std::fs::write(out, json).expect("write BENCH_qsim_scale.json");
    println!("wrote {out}");
}
