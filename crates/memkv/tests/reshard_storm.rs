//! Elastic-membership storm: join-leave-join churn with interleaved
//! writers from every node, scripted crashes (including of the migrating
//! node itself), fenced CAS across reshards, and bounded migration pumps
//! — all driven deterministically from one seed and checked against a
//! static oracle of acknowledged writes.
//!
//! Invariants (the ISSUE 10 correctness bar):
//!
//! * **No stale reads, ever.** A read returns either exactly the last
//!   acknowledged `(value, version)` for the key or a miss — never an
//!   older value or version, through any number of migrations.
//! * **No lost keys without a crash.** If the storm contained no crash,
//!   every acknowledged write survives to the end with its exact
//!   version; a miss is legal only after a crash (wiped shard, aborted
//!   join, force-completed leave — all documented loss windows).
//! * **No duplicated keys.** At every checkpoint each key lives on at
//!   most one shard (`migrate_out` removes-behind-a-marker before
//!   `install`, so copies never coexist).
//! * **Epoch monotonicity.** `ring_epoch` never decreases, and every
//!   membership event strictly increases it.
//! * **Fenced CAS is safe and live.** A CAS carrying a pre-reshard epoch
//!   is rejected with `WrongEpoch` (never silently applied to a stale
//!   owner), and one refresh (re-read value, version, epoch) suffices to
//!   land it, because migration preserves versions.
//!
//! Three pinned seeds guard previously-interesting interleavings; the
//! proptest sweeps fresh seeds on every run.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use memkv::{CasOutcome, KvClient, KvCluster, KvError};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use simnet::{LatencyProfile, NodeId, Topology};

const KEYS: usize = 48;
const STEPS: usize = 700;

fn key(i: usize) -> Vec<u8> {
    format!("/storm/k{i:02}").into_bytes()
}

/// Last acknowledged write per key: exactly what any non-miss read must
/// return, bit for bit and version for version.
type Oracle = HashMap<usize, (Vec<u8>, u64)>;

/// A fenced CAS captured in an earlier step (routing view included) and
/// fired later — the stale-owner window the epoch fence must close.
struct PendingCas {
    key: usize,
    version: u64,
    seen_epoch: u64,
    value: Vec<u8>,
}

struct Storm {
    cluster: Arc<KvCluster>,
    clients: Vec<KvClient>,
    oracle: Oracle,
    /// Nodes currently crashed.
    down: BTreeSet<u32>,
    /// Any crash happened: acknowledged writes may legally be missing.
    lossy: bool,
    last_epoch: u64,
    pending: Option<PendingCas>,
    wrong_epoch_seen: u64,
}

impl Storm {
    fn client(&self, rng: &mut StdRng) -> &KvClient {
        &self.clients[rng.gen_range(0..self.clients.len())]
    }

    /// Epoch never decreases (the mid-run satellite-2 assertion).
    fn check_epoch(&mut self) {
        let e = self.cluster.ring_epoch();
        assert!(e >= self.last_epoch, "ring epoch regressed: {} -> {e}", self.last_epoch);
        self.last_epoch = e;
    }

    /// Apply a CAS outcome to the oracle, with safety asserts. `Stored`
    /// is only legal when the attempted version IS the latest
    /// acknowledged one — anything else means a stale token landed.
    fn settle_cas(
        &mut self,
        key: usize,
        attempted_version: u64,
        value: &[u8],
        out: CasOutcome,
    ) {
        match out {
            CasOutcome::Stored { new_version } => {
                let (_, latest) = self.oracle.get(&key).expect("cas target was read");
                assert_eq!(
                    *latest, attempted_version,
                    "stale CAS token landed on key {key} (latest {latest})"
                );
                self.oracle.insert(key, (value.to_vec(), new_version));
            }
            CasOutcome::Conflict { .. } | CasOutcome::NotFound => {}
        }
    }

    /// Verify one read against the oracle: exact match or a
    /// (crash-justified) miss.
    fn check_read(&self, i: usize, got: Option<(memkv::Value, u64)>) {
        match got {
            Some((v, ver)) => {
                let (ov, over) = self.oracle.get(&i).expect("only seeded keys are read");
                assert_eq!(&*v, &ov[..], "stale value on key {i}");
                assert_eq!(ver, *over, "stale version on key {i}: {ver} vs {over}");
            }
            None => {
                assert!(
                    self.lossy || !self.oracle.contains_key(&i),
                    "key {i} lost without any crash"
                );
            }
        }
    }

    /// No key may live on two shards at once.
    fn check_no_duplicates(&self) {
        let all = self.cluster.keys_with_prefix(b"/storm/");
        for w in all.windows(2) {
            assert_ne!(w[0], w[1], "key duplicated across shards: {:?}", w[0]);
        }
    }
}

/// Run one deterministic storm. Same seed, same storm, same verdict.
fn run_storm(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = rng.gen_range(3u32..6);
    let cluster =
        KvCluster::new(Topology::new(nodes, 2), Arc::new(LatencyProfile::zero()));
    let clients: Vec<KvClient> =
        (0..nodes).map(|n| cluster.client(NodeId(n))).collect();
    let mut s = Storm {
        cluster,
        clients,
        oracle: HashMap::new(),
        down: BTreeSet::new(),
        lossy: false,
        last_epoch: 0,
        pending: None,
        wrong_epoch_seen: 0,
    };

    // Seed every key while the cluster is quiet, so "miss" is initially
    // never legal.
    for i in 0..KEYS {
        let v = format!("seed-{i}").into_bytes();
        let ver = s.clients[0].set(&key(i), &v).expect("quiet cluster");
        s.oracle.insert(i, (v, ver));
    }

    for step in 0..STEPS {
        s.check_epoch();
        match rng.gen_range(0u32..100) {
            // ---- interleaved writers from random nodes --------------
            0..=39 => {
                let i = rng.gen_range(0..KEYS);
                let v = format!("s{seed:x}-w{step}").into_bytes();
                let c = s.client(&mut rng);
                if let Ok(ver) = c.set(&key(i), &v) {
                    s.oracle.insert(i, (v, ver));
                }
            }
            // ---- reads verified against the oracle ------------------
            40..=59 => {
                let i = rng.gen_range(0..KEYS);
                if let Ok(got) = s.client(&mut rng).get(&key(i)) {
                    s.check_read(i, got);
                }
            }
            // ---- capture a fenced CAS (fired in a later step) -------
            60..=64 => {
                if s.pending.is_none() {
                    let i = rng.gen_range(0..KEYS);
                    let seen_epoch = s.cluster.ring_epoch();
                    if let Ok(Some((_, version))) =
                        s.clients[0].get(&key(i))
                    {
                        s.pending = Some(PendingCas {
                            key: i,
                            version,
                            seen_epoch,
                            value: format!("s{seed:x}-cas{step}").into_bytes(),
                        });
                    }
                }
            }
            // ---- fire the captured CAS through the fence ------------
            65..=74 => {
                if let Some(p) = s.pending.take() {
                    let c = &s.clients[0];
                    match c.cas(&key(p.key), p.version, &p.value, p.seen_epoch) {
                        Ok(out) => s.settle_cas(p.key, p.version, &p.value, out),
                        Err(KvError::WrongEpoch { seen, current }) => {
                            assert_eq!(seen, p.seen_epoch);
                            assert!(current > seen, "fence fired without an epoch bump");
                            s.wrong_epoch_seen += 1;
                            // The documented recovery: one refresh (fresh
                            // value, version AND epoch), one retry.
                            let fresh_epoch = s.cluster.ring_epoch();
                            if let Ok(Some((_, ver))) = c.get(&key(p.key)) {
                                if let Ok(out) = c.cas(&key(p.key), ver, &p.value, fresh_epoch)
                                {
                                    s.settle_cas(p.key, ver, &p.value, out);
                                }
                            }
                        }
                        Err(KvError::NodeDown(_)) => {}
                    }
                }
            }
            // ---- membership churn -----------------------------------
            75..=82 => {
                let n = NodeId(rng.gen_range(0..nodes));
                let before = s.cluster.ring_epoch();
                let started = if s.cluster.members().contains(&n) {
                    s.cluster.begin_leave(n)
                } else {
                    s.cluster.begin_join(n)
                };
                if started {
                    assert!(
                        s.cluster.ring_epoch() > before,
                        "membership event must bump the epoch"
                    );
                }
            }
            // ---- drive the transfer in bounded batches --------------
            83..=91 => {
                s.cluster.migration_step(rng.gen_range(1usize..12));
            }
            // ---- crash (sometimes exactly the migrating node) -------
            92..=95 => {
                let n = if rng.gen_bool(0.5) {
                    // CrashDuringMigration: hit the joiner/leaver itself.
                    s.cluster.migrating_node()
                } else {
                    Some(NodeId(rng.gen_range(0..nodes)))
                };
                if let Some(n) = n {
                    if !s.down.contains(&n.0) {
                        let active = s.cluster.migration_active();
                        s.cluster.crash(n);
                        s.lossy = true;
                        s.down.insert(n.0);
                        if active {
                            assert!(
                                !s.cluster.migration_active(),
                                "crash must resolve an in-flight migration"
                            );
                        }
                    }
                }
            }
            // ---- restart ---------------------------------------------
            _ => {
                if let Some(&n) = s.down.iter().next() {
                    s.cluster.restart(NodeId(n));
                    s.down.remove(&n);
                }
            }
        }
        if step % 64 == 0 {
            s.check_no_duplicates();
        }
    }

    // ---- teardown: heal everything, finish any migration ------------
    let still_down: Vec<u32> = s.down.iter().copied().collect();
    for n in still_down {
        s.cluster.restart(NodeId(n));
        s.down.remove(&n);
    }
    let mut spins = 0;
    while s.cluster.migration_active() {
        s.cluster.migration_step(16);
        spins += 1;
        assert!(spins < 50_000, "migration never converged after the storm");
    }
    s.check_epoch();
    s.check_no_duplicates();

    // ---- final state vs the oracle -----------------------------------
    let reader = &s.clients[0];
    let mut present = 0usize;
    for i in 0..KEYS {
        let got = reader.get(&key(i)).expect("all nodes are up");
        if got.is_some() {
            present += 1;
        }
        s.check_read(i, got);
    }
    if !s.lossy {
        assert_eq!(present, KEYS, "keys lost in a crash-free storm");
    }
    // Reshard work actually happened (the storm is not vacuous) and the
    // counters moved with it.
    let st = s.cluster.reshard_stats();
    assert!(
        st.reshard_started > 0,
        "seed {seed:#x} scheduled no membership change; widen the script"
    );
}

// ---- pinned regression seeds (replay exact historical storms) --------

#[test]
fn reshard_storm_pinned_seed_1() {
    run_storm(0x0E5A_4D001);
}

#[test]
fn reshard_storm_pinned_seed_2() {
    run_storm(0x0E5A_4D002);
}

#[test]
fn reshard_storm_pinned_seed_3() {
    run_storm(0x0E5A_4D003);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh seeds every run; any failure reproduces from the printed
    /// seed via `run_storm(seed)`.
    #[test]
    fn reshard_storm_holds_invariants(seed in any::<u64>()) {
        run_storm(seed);
    }
}
