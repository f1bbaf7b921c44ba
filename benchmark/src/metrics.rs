//! The metric registry (names, units, directions, bounds — mirrored by
//! `BENCHMARK.json`) and the derivation of every metric from what a
//! repetition measured. The glossary in `README.md` gives each formula
//! in prose.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dfs::{BatchOp, DfsCluster, OpId};
use fsapi::FileSystem;
use memkv::KvCluster;
use pacon::commit::CommitWal;
use pacon::{CommitOp, QueueMsg};
use simnet::{LatencyProfile, NodeId, Station, Topology};

use crate::bed::{Rep, COMMIT_BATCH, CRED, WAL_FSYNC_BATCH};
use crate::gen::{Workload, CLIENTS_PER_NODE, NODES, ROOT, STAT_CHUNK};
use crate::stats::{quantile_sorted, tail_quantile, window_mean, windowed_quantile, Better};
use crate::trace::{self_time_by_name, SpanName, Tracer};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

/// `virt.*` is time on the modelled cluster (qsim virtual ns, default
/// latency profile) and repeats exactly for one seed; `host.*` and
/// `setup_s` are wall clock of this program on the sandbox, scaled by
/// the machine's momentary memory speed (`calib`).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "virt.client_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.06,
    },
    EndToEnd {
        name: "virt.commit_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "virt.op_mid90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "virt.op_p999_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "virt.drain_lag_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host.ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "host.peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` carries the direction to the driver.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Name suffixes: `hns`/`hs` host nanoseconds/seconds, `vns`/`vus`
/// virtual nanoseconds/microseconds (also their unit, so that no reader
/// takes a demand computed from the latency profile for a measured
/// time), `kop` per thousand client ops.
pub const PER_LAYER: [PerLayer; 66] = [
    layer("workloads.gen_hs", "s", Lower),
    layer("workloads.oplist_mib", "MiB", Lower),
    layer("pacon.client.exec_hns_per_op", "ns", Lower),
    layer("pacon.client.exec_hns.create", "ns", Lower),
    layer("pacon.client.exec_hns.stat", "ns", Lower),
    layer("pacon.client.exec_hns.stat_many_per_key", "ns", Lower),
    layer("pacon.client.exec_hns.write", "ns", Lower),
    layer("pacon.client.exec_hns.unlink", "ns", Lower),
    layer("pacon.client.exec_p99_hns", "ns", Lower),
    layer("pacon.client.cpu_vns_per_op", "vns", Lower),
    layer("pacon.client.queue_wait_vns_per_op", "vns", Lower),
    layer("pacon.client.create_p50_vus", "vus", Lower),
    layer("pacon.client.create_p999_vus", "vus", Lower),
    layer("pacon.client.stat_p50_vus", "vus", Lower),
    layer("pacon.client.stat_p999_vus", "vus", Lower),
    layer("pacon.client.read_keys_per_batch", "count", Higher),
    layer("pacon.client.read_rtts_saved_per_kop", "count", Higher),
    layer("simnet.net_vns_per_op", "vns", Lower),
    layer("simnet.segs_per_op", "count", Lower),
    layer("memkv.shard_vns_per_op", "vns", Lower),
    layer("memkv.shard_util_max", "ratio", Lower),
    layer("memkv.shard_util_skew", "ratio", Lower),
    layer("memkv.used_mib_end", "MiB", Lower),
    layer("memkv.probe_set_hns", "ns", Lower),
    layer("memkv.probe_get_hns", "ns", Lower),
    layer("memkv.probe_multiget_hns_per_key", "ns", Lower),
    layer("pacon.cache.hit_ratio", "ratio", Higher),
    layer("pacon.cache.evicted_per_kop", "count", Lower),
    layer("pacon.cache.cas_conflicts_per_kop", "count", Lower),
    layer("pacon.cache.evict_overhead_hns_per_write", "ns", Lower),
    layer("pacon.cache.evicted", "count", Lower),
    layer("pacon.cache.lost_writebacks", "count", Lower),
    layer("pacon.commit.step_hns_per_op", "ns", Lower),
    layer("pacon.commit.proc_vns_per_op", "vns", Lower),
    layer("pacon.commit.proc_util_max", "ratio", Lower),
    layer("pacon.commit.ops_per_batch", "count", Higher),
    layer("pacon.commit.coalesced_ratio", "ratio", Higher),
    layer("pacon.commit.resubmit_ratio", "ratio", Lower),
    layer("pacon.commit.idle_polls_per_kop", "count", Lower),
    layer("pacon.commit.committed", "count", Lower),
    layer("pacon.commit.batches_flushed", "count", Lower),
    layer("wal.append_hns", "ns", Lower),
    layer("wal.bytes_per_op", "B", Lower),
    layer("wal.fsyncs_per_kop", "count", Lower),
    layer("wal.fsyncs", "count", Lower),
    layer("wal.truncations", "count", Lower),
    layer("wal.recovery_ops_per_hs", "1/s", Higher),
    layer("wal.host_overhead_ratio", "ratio", Lower),
    layer("mq.probe_hns_per_msg", "ns", Lower),
    layer("mq.msgs_per_kop", "count", Lower),
    layer("dfs.mds_vns_per_op", "vns", Lower),
    layer("dfs.mds_util", "ratio", Lower),
    layer("dfs.ops_per_batch_rpc", "count", Higher),
    layer("dfs.lookups_per_kop", "count", Lower),
    layer("dfs.probe_apply_batch_hns_per_op", "ns", Lower),
    layer("qsim.events_per_op", "count", Lower),
    layer("qsim.events", "count", Lower),
    layer("qsim.host_ns_per_event", "ns", Lower),
    layer("qsim.engine_share", "ratio", Lower),
    layer("qsim.replay_events_per_hs", "1/s", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.self_time_coverage", "ratio", Higher),
    layer("trace.spans", "count", Lower),
    layer("host.raw_ops_per_s", "1/s", Higher),
    layer("host.mem_speed", "ratio", Higher),
    layer("virt.op_samples", "count", Higher),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Index of the two host-clock metrics in `END_TO_END`.
pub const HOST_OPS: usize = 5;
pub const SETUP: usize = 7;

/// The per-rep end-to-end values, in `END_TO_END` order. The two
/// host-clock values are raw wall clock here: the caller scales them by
/// the run's memory speed, and fills in `host.peak_rss_mib` (one value
/// per process).
pub fn end_to_end(rep: &Rep) -> [f64; 8] {
    let run = &rep.run;
    let samples = rep.latencies.len();
    let tail = tail_quantile(samples, 0.999);
    [
        run.measured_ops as f64 * 1e9 / run.makespan_ns as f64,
        rep.committed as f64 * 1e9 / run.drained_ns as f64,
        window_mean(&rep.latencies, 0.05, 0.95) / 1e3,
        windowed_quantile(&rep.latencies, tail) / 1e3,
        rep.lag_ns as f64 / 1e6,
        rep.attempted as f64 * 1e9 / rep.timed_ns as f64,
        0.0,
        rep.setup_ns as f64 / 1e9,
    ]
}

/// What the traced pass adds to the traced repetition itself.
pub struct TracedPass<'a> {
    pub workload: Workload,
    /// The untraced reference repetition.
    pub plain: &'a Rep,
    /// The repetition run with spans on.
    pub traced: &'a Rep,
    pub tracer: &'a Tracer,
    /// Engine-only replay of the recorded steps: events and host ns.
    pub replay: (u64, u64),
    /// `create_storm` reference for the two cross-workload ratios: host
    /// ns per create in a traced rep, host ns per client op in a plain
    /// one.
    pub storm_create_hns: f64,
    pub storm_hns_per_op: f64,
    pub probes: &'a Probes,
}

/// Every per-layer metric, in `PER_LAYER` order.
pub fn per_layer(p: &TracedPass) -> Vec<f64> {
    let rep = p.traced;
    let t = p.tracer;
    let run = &rep.run;
    let ops = run.measured_ops;
    let all_ops = rep.attempted;
    let kop = |n: u64| ratio(n * 1000, all_ops);

    // Host time per client call class, from the client spans.
    let mut class_ns = [0u64; crate::trace::CLASSES];
    let mut exec_ns: Vec<u64> = Vec::new();
    let mut step_ns = 0u64;
    for s in &t.spans {
        match s.name {
            SpanName::ClientExec => {
                class_ns[s.class as usize] += s.end - s.start;
                exec_ns.push(s.end - s.start);
            }
            SpanName::CommitStep => step_ns += s.end - s.start,
            _ => {}
        }
    }
    exec_ns.sort_unstable();
    let index = |name: &str| {
        workloads::CLASS_NAMES
            .iter()
            .position(|n| *n == name)
            .expect("known class")
    };
    let class = |name: &str| ratio(class_ns[index(name)], t.class_ops[index(name)]);
    let self_ns = self_time_by_name(&t.spans);
    let engine_ns = self_ns[SpanName::EngineRun as usize];
    let covered = engine_ns
        + self_ns[SpanName::ClientExec as usize]
        + self_ns[SpanName::CommitStep as usize]
        + self_ns[SpanName::Relaunch as usize];

    // Virtual demand of the first engine run (the one `virt.*` reports).
    let clients = &t.client_demand[0];
    let workers = &t.worker_demand[0];
    let latency_sum: u64 = rep.latencies.iter().sum();
    let jobs = rep.latencies.len() as u64;
    let hist_us = |class: u16, q: f64| {
        rep.run
            .class_hist(class)
            .and_then(|h| h.percentile(q))
            .unwrap_or(0) as f64
            / 1e3
    };
    let kv_client_max = *clients.kv.iter().max().expect("eight shards");
    let kv_client_sum: u64 = clients.kv.iter().sum();
    let kv_all: u64 = kv_client_sum + workers.kv.iter().sum::<u64>();
    let busy = |pick: fn(&Station) -> bool| -> Vec<u64> {
        run.station_busy_ns
            .iter()
            .filter(|(s, _)| pick(s))
            .map(|(_, b)| *b)
            .collect()
    };
    let mds_busy: u64 = busy(|s| matches!(s, Station::Mds(_))).iter().sum();
    let commit_busy_max = busy(|s| matches!(s, Station::CommitProc(_)))
        .into_iter()
        .max()
        .unwrap_or(0);

    let coalesced = rep.delta(|r| r.coalesced_cancel) + rep.delta(|r| r.coalesced_collapse);
    let published = rep.delta(|r| r.ops_enqueued);
    let batched = rep.delta(|r| r.batched_ops);
    let queue_msgs = rep.delta(|r| r.batches_flushed) + (published - coalesced - batched);
    let mds = |f: fn(&crate::bed::MdsCounts) -> u64| f(&rep.mds_after) - f(&rep.mds_before);
    let replayed = rep.recovered.as_ref().map(|r| r.wal_replayed).unwrap_or(0);
    let durable = p.workload == Workload::DurableRecover;

    let values = vec![
        rep.gen_ns as f64 / 1e9,
        rep.oplist_bytes as f64 / (1 << 20) as f64,
        ratio(class_ns.iter().sum(), all_ops),
        class("create"),
        class("stat"),
        class("stat_many"),
        class("write"),
        class("unlink"),
        quantile_sorted(&exec_ns, 0.99) as f64,
        ratio(clients.client_cpu, ops),
        (latency_sum as f64 - clients.total() as f64) / jobs as f64,
        hist_us(1, 0.5),
        hist_us(1, 0.999),
        hist_us(2, 0.5),
        hist_us(2, 0.999),
        ratio(
            rep.delta(|r| r.batched_read_keys),
            rep.delta(|r| r.batched_reads),
        ),
        kop(rep.delta(|r| r.read_rtts_saved)),
        ratio(clients.network + workers.network, ops),
        ratio(clients.segs + workers.segs, ops),
        ratio(kv_all, ops),
        ratio(kv_client_max, run.makespan_ns),
        ratio(kv_client_max * NODES as u64, kv_client_sum),
        rep.after.cache_bytes as f64 / (1 << 20) as f64,
        p.probes.kv_set_hns,
        p.probes.kv_get_hns,
        p.probes.kv_multiget_hns_per_key,
        ratio(rep.delta(|r| r.cache_hits), rep.delta(|r| r.cache_gets)),
        kop(rep.delta(|r| r.evicted)),
        kop(rep.delta(|r| r.cas_conflicts)),
        if p.workload == Workload::ColdEvict {
            let (c, w) = (index("create"), index("write"));
            ratio(class_ns[c] + class_ns[w], t.class_ops[c] + t.class_ops[w]) - p.storm_create_hns
        } else {
            0.0
        },
        rep.delta(|r| r.evicted) as f64,
        rep.lost_writebacks as f64,
        ratio(step_ns, rep.committed),
        ratio(workers.commit.iter().sum(), rep.committed),
        ratio(commit_busy_max, run.drained_ns),
        ratio(batched, rep.delta(|r| r.batches_flushed)),
        ratio(coalesced, published),
        ratio(rep.delta(|r| r.resubmitted), rep.committed),
        kop(rep.idle_polls),
        rep.committed as f64,
        rep.delta(|r| r.batches_flushed) as f64,
        p.probes.wal_append_hns,
        ratio(rep.wal_bytes, replayed),
        kop(rep.delta(|r| r.wal_fsyncs)),
        rep.delta(|r| r.wal_fsyncs) as f64,
        rep.delta(|r| r.wal_truncations) as f64,
        if durable {
            replayed as f64 * 1e9 / rep.relaunch_ns as f64
        } else {
            0.0
        },
        if durable {
            (p.plain.phase1_ns as f64 / p.plain.run.measured_ops as f64) / p.storm_hns_per_op
        } else {
            0.0
        },
        p.probes.mq_hns_per_msg,
        kop(queue_msgs),
        ratio(mds_busy, ops),
        ratio(mds_busy, run.drained_ns),
        ratio(mds(|m| m.batch_ops), mds(|m| m.batch_rpcs)),
        kop(mds(|m| m.lookups)),
        p.probes.dfs_apply_batch_hns_per_op,
        ratio(rep.events, all_ops),
        rep.events as f64,
        ratio(engine_ns, rep.events),
        ratio(engine_ns, rep.timed_ns),
        p.replay.0 as f64 * 1e9 / p.replay.1 as f64,
        rep.timed_ns as f64 / p.plain.timed_ns as f64,
        ratio(covered, rep.timed_ns),
        t.spans.len() as f64,
        p.plain.attempted as f64 * 1e9 / p.plain.timed_ns as f64,
        (p.plain.mem_speeds[0] + p.plain.mem_speeds[1]) / 2.0,
        jobs as f64,
    ];
    assert_eq!(values.len(), PER_LAYER.len());
    values
}

/// Host-time probes that call a lower module's public functions
/// directly, outside any workload.
pub struct Probes {
    pub kv_set_hns: f64,
    pub kv_get_hns: f64,
    pub kv_multiget_hns_per_key: f64,
    pub wal_append_hns: f64,
    pub mq_hns_per_msg: f64,
    pub dfs_apply_batch_hns_per_op: f64,
}

fn per_item(started: Instant, items: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / items.max(1) as f64
}

impl Probes {
    /// `keys` is the workload's key stream (paths in op-list order).
    pub fn run(keys: &[String], out_dir: &Path) -> Probes {
        let profile = Arc::new(LatencyProfile::default());

        // memkv: the key stream against a fresh cluster's client.
        let cluster = KvCluster::new(Topology::new(NODES, CLIENTS_PER_NODE), Arc::clone(&profile));
        let kv = cluster.client(NodeId(0));
        let value = [0x5au8; 96];
        let started = Instant::now();
        for k in keys {
            std::hint::black_box(kv.set(k.as_bytes(), &value));
        }
        let kv_set_hns = per_item(started, keys.len());
        let started = Instant::now();
        for k in keys {
            std::hint::black_box(kv.get(k.as_bytes()));
        }
        let kv_get_hns = per_item(started, keys.len());
        let started = Instant::now();
        for chunk in keys.chunks(STAT_CHUNK) {
            let refs: Vec<&[u8]> = chunk.iter().map(|k| k.as_bytes()).collect();
            std::hint::black_box(kv.multi_gets(&refs));
        }
        let kv_multiget_hns_per_key = per_item(started, keys.len());

        let msg = |i: usize, path: &String| QueueMsg {
            op: CommitOp::Create {
                path: path.clone(),
                mode: 0o644,
            },
            client: 0,
            epoch: 0,
            timestamp: i as u64 + 1,
            id: OpId {
                write_id: i as u64 + 1,
                generation: 1,
            },
            degraded: false,
        };

        // pacon.commit.wal: CommitWal::append directly, group fsync as in
        // `durable_recover`.
        let wal_path = out_dir.join(format!("probe-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal_path);
        let (wal, _) = CommitWal::open(&wal_path, WAL_FSYNC_BATCH).expect("open probe wal");
        let msgs: Vec<QueueMsg> = keys.iter().enumerate().map(|(i, k)| msg(i, k)).collect();
        let started = Instant::now();
        for m in &msgs {
            wal.append(m, None).expect("probe wal append");
        }
        let wal_append_hns = per_item(started, msgs.len());
        drop(wal);
        let _ = std::fs::remove_file(&wal_path);

        // mq: send + receive of one 32-op batch message.
        let mut batches: Vec<QueueMsg> = msgs
            .chunks(COMMIT_BATCH)
            .map(|c| QueueMsg {
                op: CommitOp::Batch(c.to_vec()),
                client: u32::MAX,
                epoch: 0,
                timestamp: 0,
                id: OpId::NONE,
                degraded: false,
            })
            .collect();
        let n_batches = batches.len();
        let (tx, rx) = mq::push_pull::<QueueMsg>(1 << 16);
        let started = Instant::now();
        for b in batches.drain(..) {
            tx.send(b).expect("probe queue open");
            std::hint::black_box(rx.try_recv().expect("message just sent"));
        }
        let mq_hns_per_msg = per_item(started, n_batches);

        // dfs: idempotent batched namespace updates, 32 per RPC.
        let dfs = DfsCluster::with_default_config(profile);
        let client = dfs.client();
        client.mkdir(ROOT, &CRED, 0o777).expect("probe mkdir");
        let probe_paths: Vec<String> = (0..keys.len())
            .map(|i| format!("{ROOT}/probe-{i:07}"))
            .collect();
        let ops: Vec<BatchOp> = probe_paths
            .iter()
            .map(|p| BatchOp::Create {
                path: p.clone(),
                mode: 0o644,
            })
            .collect();
        let ids: Vec<OpId> = (0..ops.len())
            .map(|i| OpId {
                write_id: i as u64 + 1,
                generation: 1,
            })
            .collect();
        let started = Instant::now();
        for (o, i) in ops.chunks(COMMIT_BATCH).zip(ids.chunks(COMMIT_BATCH)) {
            let res = client.apply_batch_idempotent(o, i, &CRED);
            assert!(res.iter().all(|r| r.is_ok()), "probe batch must apply");
        }
        let dfs_apply_batch_hns_per_op = per_item(started, ops.len());

        Probes {
            kv_set_hns,
            kv_get_hns,
            kv_multiget_hns_per_key,
            wal_append_hns,
            mq_hns_per_msg,
            dfs_apply_batch_hns_per_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program uses. They must say the same thing.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");

        let e2e = spec.get("end_to_end").expect("end_to_end").items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(direction(m.better))
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        let layers = spec.get("per_layer").expect("per_layer").items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(direction(m.better))
            );
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
