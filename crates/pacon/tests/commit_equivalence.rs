//! Property test of the paper's independent-commit theorem
//! (Section III.E-1): for operation sequences that obey the namespace
//! conventions, committing the non-dependent operations in *any*
//! interleaving across queues — with resubmission on rejection — yields
//! the same final namespace as applying them in program order.
//!
//! Group-commit extension: the same workloads run once unbatched and once
//! through the batched, coalescing publish buffer (random batch sizes and
//! flush boundaries, barrier/rmdir interleavings, injected MDS faults) —
//! the final DFS namespaces must be identical.
//!
//! The batch-1 runs are the uncoalesced reference although they take the
//! same route as every other batch size (publish buffer → redelivery
//! window → queue): at threshold 1 every push flushes, so on these
//! single-threaded drivers no two ops ever meet in the buffer, and the
//! worker still commits the resulting one-op messages as runs of one,
//! through the single-op DFS entry points.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsResult};
use pacon::commit::worker::WorkerStep;
use pacon::{PaconConfig, PaconRegion};
use proptest::prelude::*;
use simnet::{ClientId, LatencyProfile, Topology};
use workloads::history::{drain, observe, History, Seen};
use workloads::FsOp;

/// Rounds a generated sequence's commit pipeline gets to settle.
const DRAIN_ROUNDS: u32 = 100_000;

/// A drained volatile region owes nothing per path: every writeback slot
/// released, every pending-unlink stamp retired, every staged byte flushed
/// or dropped, and so no record left (only the removed-directory list
/// outlives its ops).
fn assert_quiescent(region: &PaconRegion) {
    assert!(region.core().drained());
    let c = region.core().in_flight().counts();
    let left = pacon::inflight::InFlightCounts { removed_dirs: c.removed_dirs, ..Default::default() };
    assert_eq!(c, left, "{c:?}");
}

/// Path universe: 4 directories, each with 3 file slots.
fn dir_path(d: usize) -> String {
    format!("/w/d{d}")
}
fn file_path(i: usize) -> String {
    format!("/w/d{}/f{}", (i / 3) % 4, i % 3)
}
fn universe() -> Vec<String> {
    (0..4).map(dir_path).chain((0..12).map(file_path)).collect()
}

/// Small deterministic payload: length and bytes depend only on the
/// step, never on commit timing.
fn payload(b: u8) -> Vec<u8> {
    vec![b; (b as usize % 24) + 1]
}
fn write_of(path: String, b: u8) -> FsOp {
    FsOp::Write { path, offset: 0, data: payload(b) }
}

/// Per-directory node affinity (the paper's N-N pattern): every op under
/// `/w/d{k}` goes through node `k % nodes`, so per-path commit order is
/// program order. Cross-node ops on the same path would race
/// commit-vs-retry even without batching, making the final state depend
/// on thread timing rather than on the batching mode under test.
fn node_of(op: &FsOp, nodes: usize) -> usize {
    let path = match op {
        FsOp::Mkdir(p, _) | FsOp::Create(p, _) | FsOp::Unlink(p) | FsOp::Rmdir(p) => p,
        FsOp::Write { path, .. } => path,
        _ => unreachable!("no such step: {op:?}"),
    };
    (path.as_bytes()[4] - b'0') as usize % nodes
}

fn step_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        2 => (0usize..4).prop_map(|d| FsOp::Mkdir(dir_path(d), 0o755)),
        4 => (0usize..12).prop_map(|i| FsOp::Create(file_path(i), 0o644)),
        3 => (0usize..12).prop_map(|i| FsOp::Unlink(file_path(i))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_500))]
    #[test]
    fn any_worker_interleaving_converges_to_program_order(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        schedule in proptest::collection::vec(0usize..3, 1..200),
    ) {
        let cred = Credentials::new(1, 1);

        // Pacon clients spread over 3 nodes, answering every op as a
        // plain DFS does in program order (an op the cache rejects never
        // reaches the queue)...
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let region = PaconRegion::launch_paused(
            PaconConfig::new("/w", Topology::new(3, 1), cred),
            &dfs,
        ).unwrap();
        let clients: Vec<_> = (0..3).map(|i| region.client(ClientId(i))).collect();
        let mut history = History::new("/w");
        for (n, op) in steps.into_iter().enumerate() {
            let _ = history.issue(&clients[n % 3], &cred, op);
        }
        history.assert_answers_match(&cred);

        // ...the commit processes stepped in their slots in a
        // proptest-chosen interleaving, then drained round-robin.
        for &w in &schedule {
            let _ = region.core().step_worker(w);
        }
        drain(&region, DRAIN_ROUNDS);
        assert_quiescent(&region);

        // The final namespace is program order's, and the primary copy
        // agrees with it for every path in the universe.
        let universe = universe();
        let reference = history.assert_backup_matches(&dfs, &cred, &universe);
        prop_assert_eq!(
            observe(&clients[0], &cred, &universe),
            observe(&reference.client(), &cred, &universe)
        );
    }
}

/// The shape of `any_worker_interleaving_converges_to_program_order`'s
/// case 754 at 1 500 cases: node 1 creates `/w/f`, node 0 unlinks it,
/// node 1 creates it again, node 0 unlinks that, and node 2 creates it
/// last. Node 2's creation reaches its commit process before the first
/// file is on the DFS and would land first; node 0's first unlink would
/// then remove it, and the re-creation would meet the first file and pass
/// for a duplicate while the second unlink removed that file: the path
/// lost. Each namespace op waits for the unlinks of its path stamped
/// before it, so the path ends as program order says, at batch 1 and 4.
#[test]
fn a_later_creation_waits_for_the_unlinks_before_it_on_other_nodes() {
    let cred = Credentials::new(1, 1);
    for batch in [1, 4] {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let config = PaconConfig::new("/w", Topology::new(3, 1), cred).with_commit_batch(batch);
        let region = PaconRegion::launch_paused(config, &dfs).unwrap();
        let clients: Vec<_> = (0..3).map(|i| region.client(ClientId(i))).collect();
        let mut history = History::new("/w").labelled(format!("batch {batch}"));
        let (create, unlink) = (FsOp::Create("/w/f".into(), 0o644), FsOp::Unlink("/w/f".into()));
        for (node, op) in [(1, &create), (0, &unlink), (1, &create), (0, &unlink), (2, &create)] {
            history.issue(&clients[node], &cred, op.clone()).unwrap();
        }
        for node in [2, 0, 1, 1, 0] {
            let _ = region.core().step_worker(node);
        }
        drain(&region, DRAIN_ROUNDS);
        assert_quiescent(&region);
        history.assert_backup_matches(&dfs, &cred, &["/w/f".to_string()]);
    }
}

/// A generated step for the group-commit equivalence tests: an op
/// (mkdir, create, unlink, inline write — writeback coalescing — or rmdir
/// — barrier commit) or a point in the stream where something else
/// happens.
#[derive(Debug, Clone)]
enum BStep {
    Op(FsOp),
    /// Region-wide sync barrier: forces every publish buffer out at a
    /// proptest-chosen point, randomizing flush boundaries.
    SyncBarrier,
    /// Arm `n` transient MDS failures at this point in the stream.
    InjectFaults(u8),
}

fn bstep_strategy(with_rmdir: bool, with_faults: bool) -> impl Strategy<Value = BStep> {
    let rmdir_weight = if with_rmdir { 2 } else { 0 };
    let fault_weight = if with_faults { 2 } else { 0 };
    prop_oneof![
        3 => (0usize..4).prop_map(|d| BStep::Op(FsOp::Mkdir(dir_path(d), 0o755))),
        5 => (0usize..12).prop_map(|i| BStep::Op(FsOp::Create(file_path(i), 0o644))),
        3 => (0usize..12).prop_map(|i| BStep::Op(FsOp::Unlink(file_path(i)))),
        4 => ((0usize..12), any::<u8>()).prop_map(|(i, b)| BStep::Op(write_of(file_path(i), b))),
        rmdir_weight => (0usize..4).prop_map(|d| BStep::Op(FsOp::Rmdir(dir_path(d)))),
        1 => Just(BStep::SyncBarrier),
        fault_weight => (1u8..6).prop_map(BStep::InjectFaults),
    ]
}

/// Final DFS state: the full namespace snapshot plus what [`observe`]
/// reads over the universe.
type DfsState = (Vec<(String, fsapi::FileKind, u64)>, Vec<(String, FsResult<Seen>)>);

/// Run `steps` on a threaded region with the given group-commit batch
/// size and return the final [`DfsState`].
fn run_grouped(steps: &[BStep], batch: usize) -> DfsState {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config =
        PaconConfig::new("/w", Topology::new(3, 1), cred).with_commit_batch(batch.max(1));
    let region = PaconRegion::launch(config, &dfs).unwrap();
    let clients: Vec<_> = (0..3).map(|i| region.client(ClientId(i))).collect();
    for s in steps.iter() {
        let _ = match s {
            BStep::Op(op) => op.exec(&clients[node_of(op, 3)], &cred),
            BStep::SyncBarrier => region.sync_barrier(),
            BStep::InjectFaults(n) => {
                dfs.inject_mds_failures(0, *n as u64);
                Ok(())
            }
        };
    }
    region.shutdown().unwrap();
    // Disarm injected faults the pipeline did not consume: whether any
    // are left over depends on commit/retry interleaving, and the state
    // reads below must observe the namespace, not eat a stale fault.
    dfs.inject_mds_failures(0, 0);
    (dfs.snapshot(), observe(&dfs.client(), &cred, &universe()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole equivalence: batched, coalescing group commit (random
    /// batch sizes, random sync-barrier flush boundaries, rmdir barrier
    /// interleavings) ends in a DFS namespace identical to the unbatched
    /// seed path.
    #[test]
    fn batched_commit_equivalent_to_unbatched(
        steps in proptest::collection::vec(bstep_strategy(true, false), 1..60),
        batch in 2usize..9,
    ) {
        let (want_snap, want_data) = run_grouped(&steps, 1);
        let (got_snap, got_data) = run_grouped(&steps, batch);
        prop_assert_eq!(&got_snap, &want_snap, "namespace diverged (batch={})", batch);
        prop_assert_eq!(&got_data, &want_data, "file contents diverged (batch={})", batch);
    }

    /// Same equivalence under transient MDS outages injected mid-stream:
    /// partial batch failures disaggregate into single-op retries and the
    /// final namespace still matches the unbatched run. (Barrier ops are
    /// excluded here: a fault during rmdir's synchronous subtree removal
    /// surfaces to the caller and legitimately depends on timing.)
    #[test]
    fn batched_commit_equivalent_under_mds_faults(
        steps in proptest::collection::vec(bstep_strategy(false, true), 1..60),
        batch in 2usize..9,
    ) {
        let (want_snap, want_data) = run_grouped(&steps, 1);
        let (got_snap, got_data) = run_grouped(&steps, batch);
        prop_assert_eq!(&got_snap, &want_snap, "namespace diverged (batch={})", batch);
        prop_assert_eq!(&got_data, &want_data, "file contents diverged (batch={})", batch);
    }
}

// ---------------------------------------------------------------------------
// Data-plane group commit: a batch's writebacks as one vectored write
// ---------------------------------------------------------------------------

/// The largest universe a case draws from: files in two pre-made
/// directories.
const WFILES: usize = 24;

fn wfile(i: usize) -> String {
    format!("/w/d{}/f{}", (i / 3) % 2, i % 3 + i / 6 * 3)
}

/// Steps over the first `files` files with the given weights: an op, or
/// `None` to run the commit pipeline dry, so later steps meet committed
/// files.
fn wsteps(
    files: usize,
    [create, write, unlink, drain]: [u32; 4],
    len: usize,
) -> impl Strategy<Value = Vec<Option<FsOp>>> {
    let step = prop_oneof![
        create => (0..files).prop_map(|i| Some(FsOp::Create(wfile(i), 0o644))),
        write => ((0..files), any::<u8>()).prop_map(|(i, b)| Some(write_of(wfile(i), b))),
        unlink => (0..files).prop_map(|i| Some(FsOp::Unlink(wfile(i)))),
        drain => Just(None),
    ];
    proptest::collection::vec(step, 1..len)
}

/// A case draws its shape, and with it the namespace : data mix of the
/// commit traffic: six files, balanced, with drains — small enough that
/// one batch regularly carries two writebacks of the same path (write ·
/// unlink · re-create · write) — or all the files and hardly a drain, so
/// that a plane of a node's publish buffer fills to the batch size while
/// the other holds ops too and messages of more than `batch` ops occur:
/// one to one, namespace-heavy, data-heavy.
fn wsteps_strategy() -> impl Strategy<Value = Vec<Option<FsOp>>> {
    prop_oneof![
        2 => wsteps(6, [4, 6, 3, 1], 80),
        1 => wsteps(WFILES, [32, 32, 4, 1], 120),
        1 => wsteps(WFILES, [32, 12, 8, 1], 120),
        1 => wsteps(WFILES, [16, 48, 4, 1], 120),
    ]
}

/// What one run leaves behind: the DFS (namespace with sizes, what
/// [`observe`] reads over every slot) and the per-op accounting of the
/// commit pipeline.
#[derive(Debug, PartialEq)]
struct WOutcome {
    snapshot: Vec<(String, fsapi::FileKind, u64)>,
    contents: Vec<(String, FsResult<Seen>)>,
    /// Ops that settled as committed or never needed the queue (cancelled
    /// or collapsed in the publish buffer).
    settled: u64,
    writeback_skipped: u64,
    discarded: u64,
    small_batches: u64,
    /// Ops in the largest batched message a worker handled.
    largest_message: u32,
}

/// Run `steps` on a paused two-node region, the commit processes stepped
/// round-robin in their slots at every drain and at the end, and check
/// the client's answers and the DFS against program order on a plain DFS.
/// Deterministic: the same steps drain at the same points whatever the
/// batch size.
fn run_writebacks(steps: &[Option<FsOp>], batch: usize) -> WOutcome {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config = PaconConfig::new("/w", Topology::new(2, 1), cred).with_commit_batch(batch);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let clients: Vec<_> = (0..2).map(|i| region.client(ClientId(i))).collect();
    let mut largest_message = 0;
    let mut run_dry = || {
        let mut spins = 0;
        while !region.core().drained() {
            for n in 0..2 {
                if let Some((WorkerStep::Batch { committed, retried, discarded }, _)) =
                    region.core().step_worker(n)
                {
                    largest_message = largest_message.max(committed + retried + discarded);
                }
            }
            spins += 1;
            assert!(spins < 100_000, "commit did not converge");
        }
        assert_quiescent(&region);
    };
    let mut history = History::new("/w");
    for (d, client) in clients.iter().enumerate() {
        history.issue(client, &cred, FsOp::Mkdir(format!("/w/d{d}"), 0o755)).unwrap();
    }
    run_dry();
    for step in steps {
        match step {
            Some(op) => {
                let _ = history.issue(&clients[node_of(op, 2)], &cred, op.clone());
            }
            None => run_dry(),
        }
    }
    run_dry();
    let universe: Vec<String> = (0..WFILES).map(wfile).collect();
    history.assert_answers_match(&cred);
    history.assert_backup_matches(&dfs, &cred, &universe);
    let report = region.report();
    let counters = &region.core().counters;
    WOutcome {
        snapshot: dfs.snapshot(),
        contents: observe(&dfs.client(), &cred, &universe),
        settled: report.committed + report.coalesced_cancel + report.coalesced_collapse,
        writeback_skipped: counters.get("writeback_skipped"),
        discarded: report.discarded + counters.get("commit_errors"),
        small_batches: dfs.mds_counter("size_batch"),
        largest_message,
    }
}

thread_local! {
    /// Per batch size of [`grouped_writebacks_cases`]: the largest message
    /// any case produced, in ops.
    static LARGEST_MESSAGE: std::cell::Cell<[u32; 3]> = const { std::cell::Cell::new([0; 3]) };
}

const WBATCHES: [usize; 3] = [2, 8, 32];

/// Grouping a batch's writebacks changes how many requests carry them,
/// never what they do: at batch 2, 8 and 32 the DFS ends with the
/// namespace, file sizes and file contents of the one-at-a-time path,
/// and every run ends with what the same ops leave on a plain DFS in
/// program order; every op settles exactly once; and a writeback is
/// skipped only where the single path skips it too (a create cancelled in
/// the publish buffer takes its queued writebacks with it, so there may
/// be fewer).
#[test]
fn grouped_writebacks_equivalent_to_single_writebacks() {
    grouped_writebacks_cases();
    // Not vacuous for the per-plane budget: messages of more than `batch`
    // ops — a full plane plus whatever the other held — were among them.
    // (Filling a 32-op plane takes more steps than a case has; the
    // occupancy budget in `client_edges` covers that size directly.)
    let largest = LARGEST_MESSAGE.get();
    for (batch, largest) in WBATCHES.into_iter().zip(largest).take(2) {
        assert!(largest as usize > batch, "batch {batch}: largest message {largest} ops");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn grouped_writebacks_cases(steps in wsteps_strategy()) {
        let single = run_writebacks(&steps, 1);
        prop_assert_eq!(single.small_batches, 0, "batch 1 is the one-at-a-time path");
        prop_assert_eq!(single.discarded, 0);

        for (slot, batch) in WBATCHES.into_iter().enumerate() {
            let grouped = run_writebacks(&steps, batch);
            let mut largest = LARGEST_MESSAGE.get();
            largest[slot] = largest[slot].max(grouped.largest_message);
            LARGEST_MESSAGE.set(largest);
            prop_assert_eq!(&grouped.snapshot, &single.snapshot, "namespace/sizes (batch={})", batch);
            prop_assert_eq!(&grouped.contents, &single.contents, "contents (batch={})", batch);
            prop_assert_eq!(grouped.settled, single.settled, "settled ops (batch={})", batch);
            prop_assert_eq!(grouped.discarded, 0, "discarded (batch={})", batch);
            prop_assert!(
                grouped.writeback_skipped <= single.writeback_skipped,
                "skipped {} > {} (batch={})", grouped.writeback_skipped, single.writeback_skipped, batch
            );
        }
    }
}

/// The shape the proptest is built to reach, pinned: one message carrying
/// two writebacks of the same path around an unlink and a re-create. A run
/// holds one namespace op of a path, so the first writeback goes with the
/// bystander's, the unlink alone in the next run and the re-create with
/// its writeback in the last. Both writebacks settle, and the DFS copy
/// holds the re-created file's bytes.
#[test]
fn two_writebacks_of_one_path_around_a_recreation_both_land() {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config = PaconConfig::new("/w", Topology::new(1, 1), cred).with_commit_batch(32);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    c.create("/w/f", &cred, 0o644).unwrap();
    c.create("/w/g", &cred, 0o644).unwrap();
    drain(&region, DRAIN_ROUNDS);
    // The creates are committed, so the unlink below cannot cancel one.
    c.write("/w/f", &cred, 0, b"first incarnation").unwrap();
    c.unlink("/w/f", &cred).unwrap();
    c.create("/w/f", &cred, 0o644).unwrap();
    c.write("/w/f", &cred, 0, b"second").unwrap();
    c.write("/w/g", &cred, 0, b"bystander").unwrap();
    let steps: Vec<_> =
        (0..3).map(|_| region.core().step_worker(0).map(|(step, _)| step)).collect();
    let batch = |committed| Some(WorkerStep::Batch { committed, retried: 0, discarded: 0 });
    assert_eq!(
        steps,
        [batch(2), Some(WorkerStep::Committed), batch(2)],
        "[write f, unlink f, create f, write f, write g] in one message: \
         [write f, write g], then [unlink f], then [create f, write f]"
    );
    assert!(region.core().drained());
    assert_eq!(dfs.mds_counter("size_batch"), 2, "one size request per group");
    assert_eq!(dfs.mds_counter("size_batch_ops"), 3, "both writebacks of /w/f are in them");
    assert_eq!(region.core().counters.get("writeback_skipped"), 0);
    let fs = dfs.client();
    assert_eq!(fs.read("/w/f", &cred, 0, 64).unwrap(), b"second");
    assert_eq!(fs.read("/w/g", &cred, 0, 64).unwrap(), b"bystander");
}

// ---------------------------------------------------------------------------
// Own-write memo: mutations that skip the read, worker at every position
// ---------------------------------------------------------------------------

/// One client working on one file — the shape in which every write and
/// unlink starts from the record the client remembers having stored. The
/// commit process runs (one step, or to idle) after any subset of the ops:
/// each mark-committed, deferred delete and writeback claim in between
/// moves the record under the remembered copy or leaves it valid. Whatever
/// the interleaving, the client must answer as a plain DFS given the same
/// ops in program order, the DFS must end as that one, and the primary
/// copy must read the same.
#[test]
fn remembered_records_commit_like_a_plain_dfs_at_every_worker_position() {
    let create = || FsOp::Create("/w/f".into(), 0o644);
    let write = |offset, data: &[u8]| FsOp::Write { path: "/w/f".into(), offset, data: data.to_vec() };
    let unlink = || FsOp::Unlink("/w/f".into());
    let sequences = [
        vec![create(), write(0, b"aaaaaa"), write(2, b"bb"), unlink()],
        vec![create(), write(0, b"aaaaaa"), write(2, b"bb")],
        vec![create(), write(0, b"aaaaaa"), unlink(), create(), write(1, b"c"), write(3, b"dd")],
        vec![create(), unlink(), write(0, b"late"), create(), write(0, b"e"), unlink()],
    ];
    let cred = Credentials::new(1, 1);
    let universe = ["/w".to_string(), "/w/f".to_string()];
    for ops in sequences {
        for batch in [1usize, 4] {
            for to_idle in [false, true] {
                for worker_after in 0u32..1 << ops.len() {
                    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
                    let config =
                        PaconConfig::new("/w", Topology::new(1, 1), cred).with_commit_batch(batch);
                    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
                    let c = region.client(ClientId(0));
                    let step = || region.core().step_worker(0);
                    let at =
                        format!("batch={batch} to_idle={to_idle} worker_after={worker_after:#b}");
                    let mut history = History::new("/w").labelled(&at);
                    for (i, op) in ops.iter().enumerate() {
                        let _ = history.issue(&c, &cred, op.clone());
                        if worker_after & (1 << i) != 0 {
                            step();
                            while to_idle && !region.core().drained() {
                                step();
                            }
                        }
                    }
                    let primary = observe(&c, &cred, &universe);
                    drain(&region, DRAIN_ROUNDS);
                    assert_quiescent(&region);
                    history.assert_answers_match(&cred);
                    let reference = history.assert_backup_matches(&dfs, &cred, &universe);
                    assert_eq!(primary, observe(&reference.client(), &cred, &universe), "primary copy, {at}");
                    assert_eq!(region.report().discarded, 0, "{at}");
                }
            }
        }
    }
}
