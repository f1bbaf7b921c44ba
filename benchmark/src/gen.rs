//! Seeded input generation for the four workloads.
//!
//! Everything the program under test receives comes from here: the
//! `--seed` reaches the names of the files the clients create (and
//! through them their cache-shard placement), the Zipf ranks each client
//! draws, and the position of every mutation in its stream — and nothing
//! else. Op *counts* are constants of the benchmark, so virtual-clock
//! results of one seed compare exactly across commits.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{FsOp, Zipf};

/// Virtual cluster shape shared by every workload: 8 nodes x 20 clients.
pub const NODES: u32 = 8;
pub const CLIENTS_PER_NODE: u32 = 20;
pub const CLIENTS: u32 = NODES * CLIENTS_PER_NODE;

/// Region root of every workload.
pub const ROOT: &str = "/app";

/// Paths per `StatMany` (mdtest stats in chunks; well above the node
/// count so every batch fills each shard-node group).
pub const STAT_CHUNK: usize = 64;
/// A file created by a mutation draw is unlinked this many draws later.
pub const UNLINK_DELAY: u32 = 64;
/// Inline payload of every small-file write.
pub const INLINE_BYTES: usize = 64;
pub const ZIPF_THETA: f64 = 0.99;

/// `create_storm`: creates per client in the shared parent.
pub const STORM_FILES_PER_CLIENT: u32 = 3_000;
/// `stat_hot`: three directory levels of this fanout, files at depth 4.
pub const HOT_FANOUT: u32 = 8;
pub const HOT_FILES_PER_LEAF: u32 = 100;
pub const HOT_DRAWS: u32 = 12_000;
/// Mutation share of `stat_hot` draws, per mille.
pub const HOT_MUTATION_PERMILLE: u32 = 5;
/// Files each client creates in `stat_hot`'s closing checkpoint run.
pub const HOT_CHECKPOINT_FILES: u32 = 16;
/// `cold_evict`: universe pre-populated directly on the DFS.
pub const COLD_DIRS: u32 = 256;
pub const COLD_FILES_PER_DIR: u32 = 100;
pub const COLD_DRAWS: u32 = 1_000;
pub const COLD_MUTATION_PERMILLE: u32 = 100;
/// About half of what `cold_evict` caches when unbounded.
pub const COLD_EVICTION_THRESHOLD: usize = 1_200_000;
/// `durable_recover`: files per client per phase (create + inline write).
pub const DURABLE_FILES_PER_CLIENT: u32 = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CreateStorm,
    StatHot,
    ColdEvict,
    DurableRecover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CreateStorm,
        Workload::StatHot,
        Workload::ColdEvict,
        Workload::DurableRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CreateStorm => "create_storm",
            Workload::StatHot => "stat_hot",
            Workload::ColdEvict => "cold_evict",
            Workload::DurableRecover => "durable_recover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything one fresh-state repetition needs, generated before timing.
pub struct Inputs {
    /// Directories created before the region launches (directly on the
    /// DFS for `cold_evict`, through Pacon for `stat_hot`), parents first.
    pub pre_dirs: Vec<String>,
    /// Files created before timing, same split as `pre_dirs`.
    pub pre_files: Vec<String>,
    /// Timed op list of each client; `phases[p][client]`, one engine run
    /// per phase. `stat_hot` and `durable_recover` have two.
    pub phases: Vec<Vec<Vec<FsOp>>>,
}

impl Inputs {
    /// Heap bytes held by the timed op lists (paths + payloads + enum
    /// slots) — the `workloads.oplist_mib` numerator.
    pub fn oplist_bytes(&self) -> usize {
        let op_bytes = |op: &FsOp| {
            std::mem::size_of::<FsOp>()
                + match op {
                    FsOp::Write { path, data, .. } => path.len() + data.len(),
                    FsOp::StatMany(paths) => paths
                        .iter()
                        .map(|p| std::mem::size_of::<String>() + p.len())
                        .sum(),
                    FsOp::Create(p, _) | FsOp::Stat(p) | FsOp::Unlink(p) => p.len(),
                    _ => 0,
                }
        };
        self.phases.iter().flatten().flatten().map(op_bytes).sum()
    }

    /// Logical client ops in the timed lists (a `StatMany` counts one per
    /// path, as the engine does).
    pub fn timed_ops(&self) -> u64 {
        self.phases
            .iter()
            .flatten()
            .flatten()
            .map(FsOp::weight)
            .sum()
    }

    /// Files per directory the DFS must hold once everything drained:
    /// the pre-populated universe plus what the timed lists create and do
    /// not unlink.
    pub fn expected_namespace(&self) -> BTreeMap<String, i64> {
        let mut counts: BTreeMap<String, i64> = BTreeMap::new();
        for d in &self.pre_dirs {
            counts.entry(d.clone()).or_insert(0);
        }
        let mut bump = |path: &str, by: i64| {
            let parent = &path[..path.rfind('/').expect("absolute path")];
            *counts.entry(parent.to_string()).or_insert(0) += by;
        };
        for f in &self.pre_files {
            bump(f, 1);
        }
        for op in self.phases.iter().flatten().flatten() {
            match op {
                FsOp::Create(p, _) => bump(p, 1),
                FsOp::Unlink(p) => bump(p, -1),
                _ => {}
            }
        }
        counts
    }
}

pub fn is_mutation(op: &FsOp) -> bool {
    matches!(
        op,
        FsOp::Create(..) | FsOp::Unlink(..) | FsOp::Write { .. } | FsOp::Mkdir(..)
    )
}

/// SplitMix64 finalizer: decorrelates the user seed from per-client
/// streams and from the name tag.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn name_tag(seed: u64) -> String {
    format!("{:08x}", mix(seed) as u32)
}

fn client_rng(seed: u64, client: u32) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(client as u64 + 1)))
}

/// Generate the inputs of `workload`; `div` divides every op count
/// (1 = full size, 50 = `--smoke`).
pub fn generate(workload: Workload, seed: u64, div: u32) -> Inputs {
    assert!(div >= 1);
    let scaled = |n: u32| (n / div).max(1);
    match workload {
        Workload::CreateStorm => create_storm(seed, scaled(STORM_FILES_PER_CLIENT)),
        Workload::StatHot => stat_hot(
            seed,
            scaled(HOT_FILES_PER_LEAF),
            scaled(HOT_DRAWS),
            scaled(HOT_CHECKPOINT_FILES),
        ),
        Workload::ColdEvict => cold_evict(seed, scaled(COLD_FILES_PER_DIR), scaled(COLD_DRAWS)),
        Workload::DurableRecover => durable_recover(seed, scaled(DURABLE_FILES_PER_CLIENT)),
    }
}

fn create_storm(seed: u64, per_client: u32) -> Inputs {
    let tag = name_tag(seed);
    let clients = (0..CLIENTS)
        .map(|c| {
            (0..per_client)
                .map(|i| FsOp::Create(format!("{ROOT}/{tag}.{c:03}.{i:05}"), 0o644))
                .collect()
        })
        .collect();
    Inputs {
        pre_dirs: Vec::new(),
        pre_files: Vec::new(),
        phases: vec![clients],
    }
}

fn durable_recover(seed: u64, per_client: u32) -> Inputs {
    let tag = name_tag(seed);
    let phase = |p: u32| -> Vec<Vec<FsOp>> {
        (0..CLIENTS)
            .map(|c| {
                let mut rng = client_rng(seed, c);
                let mut ops = Vec::with_capacity(2 * per_client as usize);
                for i in 0..per_client {
                    let path = format!("{ROOT}/{tag}.p{p}.{c:03}.{i:04}");
                    ops.push(FsOp::Create(path.clone(), 0o644));
                    ops.push(FsOp::Write {
                        path,
                        offset: 0,
                        data: payload(&mut rng),
                    });
                }
                ops
            })
            .collect()
    };
    Inputs {
        pre_dirs: Vec::new(),
        pre_files: Vec::new(),
        phases: vec![phase(1), phase(2)],
    }
}

fn payload(rng: &mut StdRng) -> Vec<u8> {
    (0..INLINE_BYTES)
        .map(|_| rng.gen_range(0u8..=255))
        .collect()
}

/// The stat universe in Zipf-rank order: a fixed shuffle of the
/// pre-populated files. The universe and its ranking do not depend on
/// the seed — which cache shard holds the hottest keys is a property of
/// the workload, not run-to-run noise (it moves virtual throughput by
/// several percent); the seed decides which ranks each client draws and
/// where its mutations fall.
fn ranked(files: &[String]) -> Vec<String> {
    let mut v = files.to_vec();
    let mut rng = StdRng::seed_from_u64(0x5EED_0F2A);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// The read/mutate stream shared by `stat_hot` and `cold_evict`: per
/// draw, a mutation with probability `mutation_permille`/1000, otherwise
/// a Zipf-ranked stat. A mutation creates a fresh file in `own_dir` (and
/// writes it when `with_write`), and schedules its unlink `UNLINK_DELAY`
/// draws later; files still scheduled when the draws run out stay.
/// Reads go half to single `Stat`s and half into `StatMany` chunks when
/// `batch_reads`, all to single `Stat`s otherwise.
#[allow(clippy::too_many_arguments)]
fn mixed_stream(
    rng: &mut StdRng,
    universe: &[String],
    zipf: &Zipf,
    draws: u32,
    mutation_permille: u32,
    new_file: impl Fn(&mut StdRng, u32) -> String,
    with_write: bool,
    batch_reads: bool,
) -> Vec<FsOp> {
    let mut ops = Vec::with_capacity(draws as usize);
    let mut chunk: Vec<String> = Vec::with_capacity(STAT_CHUNK);
    let mut due: VecDeque<(u32, String)> = VecDeque::new();
    for d in 0..draws {
        while due.front().is_some_and(|(at, _)| *at <= d) {
            let (_, path) = due.pop_front().expect("front checked");
            ops.push(FsOp::Unlink(path));
        }
        if rng.gen_range(0u32..1000) < mutation_permille {
            let path = new_file(rng, d);
            ops.push(FsOp::Create(path.clone(), 0o644));
            if with_write {
                ops.push(FsOp::Write {
                    path: path.clone(),
                    offset: 0,
                    data: payload(rng),
                });
            }
            due.push_back((d + UNLINK_DELAY, path));
            continue;
        }
        let key = universe[zipf.sample(rng)].clone();
        if batch_reads && rng.gen_range(0u32..2) == 1 {
            chunk.push(key);
            if chunk.len() == STAT_CHUNK {
                ops.push(FsOp::StatMany(std::mem::take(&mut chunk)));
            }
        } else {
            ops.push(FsOp::Stat(key));
        }
    }
    if !chunk.is_empty() {
        ops.push(FsOp::StatMany(chunk));
    }
    ops
}

fn stat_hot(seed: u64, files_per_leaf: u32, draws: u32, closing: u32) -> Inputs {
    let tag = name_tag(seed);
    let mut pre_dirs = Vec::new();
    let mut leaves = Vec::new();
    for a in 0..HOT_FANOUT {
        pre_dirs.push(format!("{ROOT}/a{a}"));
        for b in 0..HOT_FANOUT {
            pre_dirs.push(format!("{ROOT}/a{a}/b{b}"));
        }
    }
    for a in 0..HOT_FANOUT {
        for b in 0..HOT_FANOUT {
            for c in 0..HOT_FANOUT {
                let leaf = format!("{ROOT}/a{a}/b{b}/c{c}");
                pre_dirs.push(leaf.clone());
                leaves.push(leaf);
            }
        }
    }
    let pre_files: Vec<String> = leaves
        .iter()
        .flat_map(|leaf| (0..files_per_leaf).map(move |f| format!("{leaf}/f{f:03}")))
        .collect();
    let universe = ranked(&pre_files);
    let zipf = Zipf::new(universe.len(), ZIPF_THETA);
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rng = client_rng(seed, c);
            let new_file = |rng: &mut StdRng, d: u32| {
                let leaf = &leaves[rng.gen_range(0..leaves.len())];
                format!("{leaf}/{tag}-m{c:03}-{d:05}")
            };
            mixed_stream(
                &mut rng,
                &universe,
                &zipf,
                draws,
                HOT_MUTATION_PERMILLE,
                new_file,
                false,
                true,
            )
        })
        .collect();
    // A checkpoint after the read phase, as a second engine run: every
    // client creates a few files at once. The drain lag of the read phase
    // alone is one commit-poll interval and sub-millisecond; the burst
    // shows how long the idle pipeline needs to absorb a checkpoint.
    let checkpoint = (0..CLIENTS)
        .map(|c| {
            let leaf = &leaves[(mix(seed ^ c as u64) % leaves.len() as u64) as usize];
            (0..closing)
                .map(|k| FsOp::Create(format!("{leaf}/{tag}-ck{c:03}-{k:02}"), 0o644))
                .collect()
        })
        .collect();
    Inputs {
        pre_dirs,
        pre_files,
        phases: vec![clients, checkpoint],
    }
}

fn cold_evict(seed: u64, files_per_dir: u32, draws: u32) -> Inputs {
    let tag = name_tag(seed);
    let pre_dirs: Vec<String> = (0..COLD_DIRS).map(|d| format!("{ROOT}/d{d:03}")).collect();
    let pre_files: Vec<String> = pre_dirs
        .iter()
        .flat_map(|dir| (0..files_per_dir).map(move |f| format!("{dir}/f{f:03}")))
        .collect();
    let universe = ranked(&pre_files);
    let zipf = Zipf::new(universe.len(), ZIPF_THETA);
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rng = client_rng(seed, c);
            let own = &pre_dirs[c as usize];
            let new_file = |_: &mut StdRng, d: u32| format!("{own}/{tag}-w{c:03}-{d:05}");
            mixed_stream(
                &mut rng,
                &universe,
                &zipf,
                draws,
                COLD_MUTATION_PERMILLE,
                new_file,
                true,
                false,
            )
        })
        .collect();
    Inputs {
        pre_dirs,
        pre_files,
        phases: vec![clients],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = generate(w, 7, 50);
            let b = generate(w, 7, 50);
            let c = generate(w, 8, 50);
            assert_eq!(a.phases, b.phases, "{}", w.name());
            assert_ne!(a.phases, c.phases, "{}", w.name());
        }
    }

    #[test]
    fn every_scheduled_unlink_targets_an_earlier_create() {
        let inputs = generate(Workload::ColdEvict, 3, 1);
        for ops in &inputs.phases[0] {
            let mut live = std::collections::HashSet::new();
            for op in ops {
                match op {
                    FsOp::Create(p, _) => assert!(live.insert(p.clone())),
                    FsOp::Write { path, .. } => assert!(live.contains(path)),
                    FsOp::Unlink(p) => assert!(live.remove(p)),
                    _ => {}
                }
            }
        }
        let counts = inputs.expected_namespace();
        assert_eq!(counts.len(), COLD_DIRS as usize);
        assert!(counts.values().all(|n| *n >= COLD_FILES_PER_DIR as i64));
    }

    #[test]
    fn stat_hot_draws_are_exact_and_mostly_reads() {
        let inputs = generate(Workload::StatHot, 1, 10);
        let draws = (HOT_DRAWS / 10) as u64;
        for ops in &inputs.phases[0] {
            let unlinks = ops.iter().filter(|o| matches!(o, FsOp::Unlink(..))).count() as u64;
            let total: u64 = ops.iter().map(FsOp::weight).sum();
            assert_eq!(total, draws + unlinks);
        }
        let mutations = inputs
            .phases
            .iter()
            .flatten()
            .flatten()
            .filter(|op| is_mutation(op))
            .count() as u64;
        assert!(mutations > 0 && (mutations as f64) < 0.02 * inputs.timed_ops() as f64);
    }
}
