//! memaslap-style raw KV load against the memcached-like cache
//! (the baseline of Figure 10: "we ran memaslap with single client to
//! evaluate the throughput of item insertion").

use memkv::KvClient;
use qsim::{Process, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::with_recording;

/// One raw cache operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Insert `value_len` bytes under the key.
    Set(String, usize),
    Get(String),
}

/// memaslap's default-ish item shape: small keys, ~64 B values.
pub fn insertion_workload(prefix: &str, count: u32, value_len: usize) -> Vec<KvOp> {
    (0..count).map(|i| KvOp::Set(format!("{prefix}/k{i:08}"), value_len)).collect()
}

/// A 9:1 get/set mix over a fixed key population.
pub fn mixed_workload(prefix: &str, count: u32, population: u32, seed: u64) -> Vec<KvOp> {
    assert!(population > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let key = format!("{prefix}/k{:08}", rng.gen_range(0..population));
            if rng.gen_range(0..10) == 0 {
                KvOp::Set(key, 64)
            } else {
                KvOp::Get(key)
            }
        })
        .collect()
}

/// Closed-loop DES client issuing raw KV ops.
pub struct KvOpClient {
    kv: KvClient,
    ops: std::vec::IntoIter<KvOp>,
    payload: Vec<u8>,
}

impl KvOpClient {
    pub fn new(kv: KvClient, ops: Vec<KvOp>) -> Self {
        Self { kv, ops: ops.into_iter(), payload: vec![0xA5; 4096] }
    }
}

impl Process for KvOpClient {
    fn next(&mut self, _now: u64) -> Step {
        match self.ops.next() {
            Some(op) => {
                // No fault plan drives this raw-KV baseline; an op that
                // fails would make the reported throughput meaningless.
                let ((), trace) = with_recording(|| match &op {
                    KvOp::Set(key, len) => {
                        let len = (*len).min(self.payload.len());
                        self.kv
                            .set(key.as_bytes(), &self.payload[..len])
                            .expect("memaslap runs on a healthy cluster");
                    }
                    KvOp::Get(key) => {
                        self.kv.get(key.as_bytes()).expect("memaslap runs on a healthy cluster");
                    }
                });
                let class = match &op {
                    KvOp::Set(..) => 0,
                    KvOp::Get(..) => 1,
                };
                Step::Work { trace, ops: 1, class }
            }
            None => Step::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memkv::KvCluster;
    use qsim::Simulation;
    use simnet::{LatencyProfile, NodeId, Topology};
    use std::sync::Arc;

    #[test]
    fn insertion_workload_runs_to_completion() {
        let profile = Arc::new(LatencyProfile::default());
        let cluster = KvCluster::new(Topology::new(2, 1), profile.clone());
        let ops = insertion_workload("/m", 100, 64);
        let mut procs: Vec<Box<dyn qsim::Process>> =
            vec![Box::new(KvOpClient::new(cluster.client(NodeId(0)), ops))];
        let res = Simulation::new().run(&mut procs);
        assert_eq!(res.measured_ops, 100);
        assert_eq!(cluster.len(), 100);
        // Single client: serial latency ≈ hop + shard service per op.
        let per_op = res.makespan_ns as f64 / 100.0;
        assert!(per_op >= profile.kv_op as f64);
    }

    #[test]
    fn mixed_workload_shape() {
        let ops = mixed_workload("/m", 1000, 50, 1);
        let sets = ops.iter().filter(|o| matches!(o, KvOp::Set(..))).count();
        assert!(sets > 50 && sets < 200, "roughly 10% sets, got {sets}");
    }
}
