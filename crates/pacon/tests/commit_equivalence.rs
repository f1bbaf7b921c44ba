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
use fsapi::{Credentials, FileSystem, FsError};
use pacon::commit::worker::WorkerStep;
use pacon::{PaconConfig, PaconRegion};
use proptest::prelude::*;
use simnet::{ClientId, LatencyProfile, Topology};

/// A drained volatile region owes nothing per path: every writeback slot
/// released, every pending-unlink stamp retired, every staged byte flushed
/// or dropped, and so no record left (births live by inode, outside the
/// records; only the removed-directory list outlives its ops).
fn assert_quiescent(region: &PaconRegion) {
    assert!(region.core().drained());
    let c = region.core().in_flight().counts();
    let left = pacon::inflight::InFlightCounts { removed_dirs: c.removed_dirs, ..Default::default() };
    assert_eq!(c, left, "{c:?}");
}

/// A generated workload step over a small path universe.
#[derive(Debug, Clone)]
enum Step {
    Mkdir(usize),
    Create(usize),
    Unlink(usize),
}

/// Path universe: 4 directories, each with 3 file slots.
fn dir_path(d: usize) -> String {
    format!("/w/d{d}")
}
fn file_path(d: usize, f: usize) -> String {
    format!("/w/d{}/f{}", d % 4, f % 3)
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (0usize..4).prop_map(Step::Mkdir),
        4 => (0usize..12).prop_map(Step::Create),
        3 => (0usize..12).prop_map(Step::Unlink),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn any_worker_interleaving_converges_to_program_order(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        schedule in proptest::collection::vec(0usize..3, 1..200),
    ) {
        let profile = Arc::new(LatencyProfile::zero());
        let cred = Credentials::new(1, 1);

        // Reference: apply accepted ops in program order directly to a DFS.
        let ref_dfs = DfsCluster::with_default_config(Arc::clone(&profile));
        {
            let fs = ref_dfs.client();
            fs.mkdir("/w", &cred, 0o777).unwrap();
            for s in &steps {
                // Mirror Pacon's client-side admission: an op the cache
                // rejects never reaches the queue.
                let _ = match s {
                    Step::Mkdir(d) => fs.mkdir(&dir_path(*d), &cred, 0o755),
                    Step::Create(i) => fs.create(&file_path(i / 3, i % 3), &cred, 0o644),
                    Step::Unlink(i) => fs.unlink(&file_path(i / 3, i % 3), &cred),
                };
            }
        }

        // System under test: Pacon clients spread over 3 nodes, workers
        // stepped in a proptest-chosen interleaving.
        let dfs = DfsCluster::with_default_config(Arc::clone(&profile));
        let region = PaconRegion::launch_paused(
            PaconConfig::new("/w", Topology::new(3, 1), cred),
            &dfs,
        ).unwrap();
        let clients: Vec<_> = (0..3).map(|i| region.client(ClientId(i))).collect();
        for (n, s) in steps.iter().enumerate() {
            let c = &clients[n % 3];
            let _ = match s {
                Step::Mkdir(d) => c.mkdir(&dir_path(*d), &cred, 0o755),
                Step::Create(i) => c.create(&file_path(i / 3, i % 3), &cred, 0o644),
                Step::Unlink(i) => c.unlink(&file_path(i / 3, i % 3), &cred),
            };
        }

        let mut workers: Vec<_> = (0..3).map(|n| region.take_worker(n)).collect();
        // Follow the random schedule first...
        for &w in &schedule {
            let _ = workers[w].step();
        }
        // ...then drain round-robin until everything is handled.
        let mut spins = 0;
        while !region.core().drained() {
            let mut progress = false;
            for w in workers.iter_mut() {
                match w.step() {
                    WorkerStep::Idle | WorkerStep::Disconnected | WorkerStep::Blocked(_) => {}
                    _ => progress = true,
                }
            }
            spins += 1;
            prop_assert!(spins < 100_000, "commit did not converge");
            let _ = progress;
        }
        assert_quiescent(&region);

        // Final namespaces must be identical.
        let got = dfs.snapshot();
        let want = ref_dfs.snapshot();
        let got_paths: Vec<&str> = got.iter().map(|(p, _, _)| p.as_str()).collect();
        let want_paths: Vec<&str> = want.iter().map(|(p, _, _)| p.as_str()).collect();
        prop_assert_eq!(got_paths, want_paths);

        // And the primary copy agrees with the reference for every path in
        // the universe.
        let probe = region.client(ClientId(0));
        let ref_fs = ref_dfs.client();
        for d in 0..4 {
            for f in 0..3 {
                let p = file_path(d, f);
                let want = ref_fs.stat(&p, &cred).map(|s| s.kind);
                let got = probe.stat(&p, &cred).map(|s| s.kind);
                // NotFound must match; kinds must match when both exist.
                match (&want, &got) {
                    (Err(FsError::NotFound), Err(FsError::NotFound)) => {}
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    other => prop_assert!(false, "divergence at {}: {:?}", p, other),
                }
            }
        }
    }
}

/// A generated workload step for the group-commit equivalence tests:
/// additionally exercises inline writes (writeback coalescing), barrier
/// commits (rmdir) and explicit flush boundaries (sync barriers).
#[derive(Debug, Clone)]
enum BStep {
    Mkdir(usize),
    Create(usize),
    Unlink(usize),
    /// Inline write to file slot `.0`; payload derived from `.1`.
    Write(usize, u8),
    Rmdir(usize),
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
        3 => (0usize..4).prop_map(BStep::Mkdir),
        5 => (0usize..12).prop_map(BStep::Create),
        3 => (0usize..12).prop_map(BStep::Unlink),
        4 => ((0usize..12), any::<u8>()).prop_map(|(i, b)| BStep::Write(i, b)),
        rmdir_weight => (0usize..4).prop_map(BStep::Rmdir),
        1 => Just(BStep::SyncBarrier),
        fault_weight => (1u8..6).prop_map(BStep::InjectFaults),
    ]
}

/// Final DFS state: the full namespace snapshot plus the committed
/// contents of every file slot in the universe.
type DfsState = (Vec<(String, fsapi::FileKind, u64)>, Vec<Option<Vec<u8>>>);

/// Run `steps` on a threaded region with the given group-commit batch
/// size and return the final [`DfsState`].
fn run_grouped(steps: &[BStep], batch: usize) -> DfsState {
    let profile = Arc::new(LatencyProfile::zero());
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::clone(&profile));
    let config =
        PaconConfig::new("/w", Topology::new(3, 1), cred).with_commit_batch(batch.max(1));
    let region = PaconRegion::launch(config, &dfs).unwrap();
    let clients: Vec<_> = (0..3).map(|i| region.client(ClientId(i))).collect();
    for s in steps.iter() {
        // Per-directory node affinity (the paper's N-N pattern): every op
        // on one subtree goes through one queue, so per-path commit order
        // is program order in *both* runs. Cross-node ops on the same
        // path would race commit-vs-retry even without batching, making
        // the final state depend on thread timing rather than on the
        // batching mode under test.
        let c = match s {
            BStep::Mkdir(d) | BStep::Rmdir(d) => &clients[d % 3],
            BStep::Create(i) | BStep::Unlink(i) | BStep::Write(i, _) => &clients[(i / 3) % 3],
            BStep::SyncBarrier | BStep::InjectFaults(_) => &clients[0],
        };
        let _ = match s {
            BStep::Mkdir(d) => c.mkdir(&dir_path(*d), &cred, 0o755),
            BStep::Create(i) => c.create(&file_path(i / 3, i % 3), &cred, 0o644),
            BStep::Unlink(i) => c.unlink(&file_path(i / 3, i % 3), &cred),
            BStep::Write(i, b) => {
                // Small deterministic payload: length and bytes depend
                // only on the step, never on commit timing.
                let data = vec![*b; (*b as usize % 24) + 1];
                c.write(&file_path(i / 3, i % 3), &cred, 0, &data).map(|_| ())
            }
            BStep::Rmdir(d) => c.rmdir(&dir_path(*d), &cred),
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
    let snap = dfs.snapshot();
    let fs = dfs.client();
    let mut contents = Vec::new();
    for d in 0..4 {
        for f in 0..3 {
            contents.push(fs.read(&file_path(d, f), &cred, 0, 4096).ok());
        }
    }
    (snap, contents)
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

/// A step over a universe of files in two pre-made directories.
#[derive(Debug, Clone)]
enum WStep {
    Create(usize),
    /// Inline write (or overwrite) at offset 0; payload derived from `.1`.
    Write(usize, u8),
    Unlink(usize),
    /// Run the commit pipeline dry, so later steps meet committed files.
    Drain,
}

/// The largest universe a case draws from.
const WFILES: usize = 24;

fn wfile(i: usize) -> String {
    format!("/w/d{}/f{}", (i / 3) % 2, i % 3 + i / 6 * 3)
}

fn wpayload(b: u8) -> Vec<u8> {
    vec![b; (b as usize % 24) + 1]
}

/// Steps over the first `files` files with the given weights.
fn wsteps(
    files: usize,
    [create, write, unlink, drain]: [u32; 4],
    len: usize,
) -> impl Strategy<Value = Vec<WStep>> {
    let step = prop_oneof![
        create => (0..files).prop_map(WStep::Create),
        write => ((0..files), any::<u8>()).prop_map(|(i, b)| WStep::Write(i, b)),
        unlink => (0..files).prop_map(WStep::Unlink),
        drain => Just(WStep::Drain),
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
fn wsteps_strategy() -> impl Strategy<Value = Vec<WStep>> {
    prop_oneof![
        2 => wsteps(6, [4, 6, 3, 1], 80),
        1 => wsteps(WFILES, [32, 32, 4, 1], 120),
        1 => wsteps(WFILES, [32, 12, 8, 1], 120),
        1 => wsteps(WFILES, [16, 48, 4, 1], 120),
    ]
}

/// What one run leaves behind: the DFS (namespace with sizes, contents of
/// every slot) and the per-op accounting of the commit pipeline.
#[derive(Debug, PartialEq)]
struct WOutcome {
    snapshot: Vec<(String, fsapi::FileKind, u64)>,
    contents: Vec<Option<Vec<u8>>>,
    /// Ops that settled as committed or never needed the queue (cancelled
    /// or collapsed in the publish buffer).
    settled: u64,
    writeback_skipped: u64,
    discarded: u64,
    small_batches: u64,
    /// Ops in the largest batched message a worker handled.
    largest_message: u32,
}

/// Run `steps` on a paused two-node region, workers stepped round-robin
/// at every `Drain` and at the end. Deterministic: the same steps drain
/// at the same points whatever the batch size.
fn run_writebacks(steps: &[WStep], batch: usize) -> WOutcome {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config = PaconConfig::new("/w", Topology::new(2, 1), cred).with_commit_batch(batch);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let clients: Vec<_> = (0..2).map(|i| region.client(ClientId(i))).collect();
    let mut workers: Vec<_> = (0..2).map(|n| region.take_worker(n)).collect();
    let mut largest_message = 0;
    let mut drain = || {
        let mut spins = 0;
        while !region.core().drained() {
            for w in workers.iter_mut() {
                if let WorkerStep::Batch { committed, retried, discarded } = w.step() {
                    largest_message = largest_message.max(committed + retried + discarded);
                }
            }
            spins += 1;
            assert!(spins < 100_000, "commit did not converge");
        }
        assert_quiescent(&region);
    };
    for (d, client) in clients.iter().enumerate() {
        client.mkdir(&format!("/w/d{d}"), &cred, 0o755).unwrap();
    }
    drain();
    for s in steps {
        // Directory affinity: every op on one file goes through one queue.
        let _ = match s {
            WStep::Create(i) => clients[(i / 3) % 2].create(&wfile(*i), &cred, 0o644),
            WStep::Write(i, b) => {
                clients[(i / 3) % 2].write(&wfile(*i), &cred, 0, &wpayload(*b)).map(|_| ())
            }
            WStep::Unlink(i) => clients[(i / 3) % 2].unlink(&wfile(*i), &cred),
            WStep::Drain => {
                drain();
                Ok(())
            }
        };
    }
    drain();
    let fs = dfs.client();
    let report = region.report();
    let counters = &region.core().counters;
    WOutcome {
        snapshot: dfs.snapshot(),
        contents: (0..WFILES).map(|i| fs.read(&wfile(i), &cred, 0, 4096).ok()).collect(),
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
/// which in turn are what the same steps leave on a plain DFS; every
/// op settles exactly once; and a writeback is skipped only where the
/// single path skips it too (a create cancelled in the publish buffer
/// takes its queued writebacks with it, so there may be fewer).
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
        let cred = Credentials::new(1, 1);
        let single = run_writebacks(&steps, 1);
        prop_assert_eq!(single.small_batches, 0, "batch 1 is the one-at-a-time path");
        prop_assert_eq!(single.discarded, 0);

        let oracle = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let fs = oracle.client();
        for dir in ["/w", "/w/d0", "/w/d1"] {
            fs.mkdir(dir, &cred, if dir == "/w" { 0o777 } else { 0o755 }).unwrap();
        }
        for s in &steps {
            let _ = match s {
                WStep::Create(i) => fs.create(&wfile(*i), &cred, 0o644),
                WStep::Write(i, b) => fs.write(&wfile(*i), &cred, 0, &wpayload(*b)).map(|_| ()),
                WStep::Unlink(i) => fs.unlink(&wfile(*i), &cred),
                WStep::Drain => Ok(()),
            };
        }
        prop_assert_eq!(&single.snapshot, &oracle.snapshot(), "batch 1 vs plain DFS");
        let want: Vec<_> = (0..WFILES).map(|i| fs.read(&wfile(i), &cred, 0, 4096).ok()).collect();
        prop_assert_eq!(&single.contents, &want, "batch 1 vs plain DFS");

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

/// The shape the proptest is built to reach, pinned: one batch carrying
/// two writebacks of the same path around an unlink and a re-create. Both
/// settle, and the DFS copy holds the re-created file's bytes.
#[test]
fn one_batch_with_two_writebacks_of_one_path_settles_both() {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config = PaconConfig::new("/w", Topology::new(1, 1), cred).with_commit_batch(32);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    let mut w = region.take_worker(0);
    c.create("/w/f", &cred, 0o644).unwrap();
    c.create("/w/g", &cred, 0o644).unwrap();
    while !region.core().drained() {
        w.step();
    }
    // The creates are committed, so the unlink below cannot cancel one.
    c.write("/w/f", &cred, 0, b"first incarnation").unwrap();
    c.unlink("/w/f", &cred).unwrap();
    c.create("/w/f", &cred, 0o644).unwrap();
    c.write("/w/f", &cred, 0, b"second").unwrap();
    c.write("/w/g", &cred, 0, b"bystander").unwrap();
    assert_eq!(
        w.step(),
        WorkerStep::Batch { committed: 5, retried: 0, discarded: 0 },
        "[write f, unlink f, create f, write f, write g] in one message"
    );
    assert!(region.core().drained());
    assert_eq!(dfs.mds_counter("size_batch"), 1, "one size request for the group");
    assert_eq!(dfs.mds_counter("size_batch_ops"), 3, "both writebacks of /w/f are in it");
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
/// commit worker runs (one step, or to idle) after any subset of the ops:
/// each mark-committed, deferred delete and writeback claim in between
/// moves the record under the remembered copy or leaves it valid. Whatever
/// the interleaving, the DFS must end as a plain DFS given the same ops in
/// program order, and the primary copy must read the same.
#[test]
fn remembered_records_commit_like_a_plain_dfs_at_every_worker_position() {
    #[derive(Clone, Copy)]
    enum Op {
        Create,
        Write(u64, &'static [u8]),
        Unlink,
    }
    use Op::*;
    let sequences: [&[Op]; 4] = [
        &[Create, Write(0, b"aaaaaa"), Write(2, b"bb"), Unlink],
        &[Create, Write(0, b"aaaaaa"), Write(2, b"bb")],
        &[Create, Write(0, b"aaaaaa"), Unlink, Create, Write(1, b"c"), Write(3, b"dd")],
        &[Create, Unlink, Write(0, b"late"), Create, Write(0, b"e"), Unlink],
    ];
    let cred = Credentials::new(1, 1);
    let apply = |fs: &dyn FileSystem, op: Op| match op {
        Create => fs.create("/w/f", &cred, 0o644),
        Write(offset, data) => fs.write("/w/f", &cred, offset, data).map(|_| ()),
        Unlink => fs.unlink("/w/f", &cred),
    };
    for ops in sequences {
        let oracle = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let plain = oracle.client();
        plain.mkdir("/w", &cred, 0o777).unwrap();
        let want_acks: Vec<_> = ops.iter().map(|&op| apply(&plain, op)).collect();
        let want = (oracle.snapshot(), plain.read("/w/f", &cred, 0, 64));

        for batch in [1usize, 4] {
            for to_idle in [false, true] {
                for worker_after in 0u32..1 << ops.len() {
                    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
                    let config =
                        PaconConfig::new("/w", Topology::new(1, 1), cred).with_commit_batch(batch);
                    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
                    let c = region.client(ClientId(0));
                    let mut w = region.take_worker(0);
                    let mut acks = Vec::new();
                    for (i, &op) in ops.iter().enumerate() {
                        acks.push(apply(&c, op));
                        if worker_after & (1 << i) != 0 {
                            w.step();
                            while to_idle && !region.core().drained() {
                                w.step();
                            }
                        }
                    }
                    let primary = c.read("/w/f", &cred, 0, 64);
                    while !region.core().drained() {
                        w.step();
                    }
                    assert_quiescent(&region);
                    let at =
                        format!("batch={batch} to_idle={to_idle} worker_after={worker_after:#b}");
                    assert_eq!(acks, want_acks, "acknowledgements, {at}");
                    assert_eq!(primary, want.1, "primary copy, {at}");
                    let got = (dfs.snapshot(), dfs.client().read("/w/f", &cred, 0, 64));
                    assert_eq!(got, want, "DFS end state, {at}");
                    assert_eq!(region.report().discarded, 0, "{at}");
                }
            }
        }
    }
}
