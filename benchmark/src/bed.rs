//! Test bed, the benchmark's own engine processes, and one fresh-state
//! repetition of a workload with its output checks.
//!
//! Load shape of every workload: closed loop, zero think time, 160
//! virtual clients + 8 commit workers as background processes of the
//! discrete-event engine, all on one host thread. Barrier ops
//! (rmdir/readdir) never appear: `BarrierGuard::wait_workers` would block
//! the single-threaded engine.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use dfs::DfsCluster;
use fsapi::{Credentials, FileKind, FileSystem};
use pacon::commit::{CommitWorker, WorkerStep};
use pacon::{PaconClient, PaconConfig, PaconRegion, RegionReport};
use qsim::{Process, RunOptions, RunResult, Simulation, Step};
use simnet::{with_recording, ClientId, CostTrace, LatencyProfile, Station, Topology};
use workloads::FsOp;

use crate::gen::{self, Inputs, Workload, CLIENTS_PER_NODE, NODES, ROOT};
use crate::trace::{SpanName, Tracer};

/// The application credential (one system user per HPC application).
pub const CRED: Credentials = Credentials {
    uid: 1000,
    gid: 1000,
};
/// Group-commit batch size of every workload.
pub const COMMIT_BATCH: usize = 32;
pub const WAL_FSYNC_BATCH: usize = 32;
/// Poll interval of an idle commit process, in virtual ns (the value the
/// repository's own DES driver uses).
const WORKER_IDLE_POLL_NS: u64 = 20_000;

pub type SharedTracer = Rc<RefCell<Tracer>>;

/// What the process wrappers do besides running the program.
#[derive(Clone, Default)]
pub struct Probe {
    /// Record a span around every call into the program.
    pub tracer: Option<SharedTracer>,
    /// Keep every step's cost trace for the engine-only replay.
    pub record_steps: bool,
}

/// One engine step as the program produced it, kept for replay.
pub enum Recorded {
    Work {
        trace: CostTrace,
        ops: u64,
        class: u16,
    },
    Idle(u64),
}

/// A measured closed-loop client: span around `FsOp::exec`.
pub struct ClientProc {
    fs: PaconClient,
    ops: std::vec::IntoIter<FsOp>,
    attempted: u64,
    failed: u64,
    probe: Probe,
    recorded: Vec<Recorded>,
}

/// A background commit process: span around `CommitWorker::step`.
pub struct WorkerProc {
    worker: CommitWorker,
    idle_polls: u64,
    probe: Probe,
    recorded: Vec<Recorded>,
}

pub enum Proc {
    Client(ClientProc),
    Worker(WorkerProc),
}

impl ClientProc {
    fn step(&mut self) -> Step {
        let Some(op) = self.ops.next() else {
            return Step::Done;
        };
        let started = self.probe.tracer.as_ref().map(|t| t.borrow().now());
        let (res, trace) = with_recording(|| op.exec(&self.fs, &CRED));
        let weight = op.weight();
        if let (Some(t), Some(started)) = (&self.probe.tracer, started) {
            t.borrow_mut()
                .client_call(op.class(), weight, started, &trace);
        }
        self.attempted += weight;
        if res.is_err() {
            self.failed += weight;
        }
        if self.probe.record_steps {
            self.recorded.push(Recorded::Work {
                trace: trace.clone(),
                ops: weight,
                class: op.class(),
            });
        }
        Step::Work {
            trace,
            ops: weight,
            class: op.class(),
        }
    }
}

impl WorkerProc {
    fn step(&mut self) -> Step {
        let started = self.probe.tracer.as_ref().map(|t| t.borrow().now());
        let (outcome, mut trace) = with_recording(|| self.worker.step());
        if let (Some(t), Some(started)) = (&self.probe.tracer, started) {
            t.borrow_mut().worker_step(started, &trace);
        }
        // Guarantee virtual-time progress even for a zero-cost step.
        if trace.is_empty() {
            trace.push(Station::ClientCpu, 1);
        }
        let step = match outcome {
            WorkerStep::Committed | WorkerStep::Discarded => Step::Work {
                trace,
                ops: 1,
                class: 0,
            },
            WorkerStep::Batch {
                committed,
                discarded,
                ..
            } => Step::Work {
                trace,
                ops: (committed + discarded) as u64,
                class: 0,
            },
            WorkerStep::Retried | WorkerStep::BarrierReported => Step::Work {
                trace,
                ops: 0,
                class: 0,
            },
            WorkerStep::Crashed => Step::Idle {
                ns: WORKER_IDLE_POLL_NS,
            },
            WorkerStep::Blocked(_) | WorkerStep::Idle | WorkerStep::Disconnected => {
                if self.worker.backlog_empty() {
                    self.idle_polls += 1;
                    Step::Idle {
                        ns: WORKER_IDLE_POLL_NS,
                    }
                } else {
                    // Backlog waits on a commit from another queue: stay
                    // alive through the engine's drain phase.
                    let mut wait = CostTrace::new();
                    wait.push(Station::ClientCpu, WORKER_IDLE_POLL_NS);
                    Step::Work {
                        trace: wait,
                        ops: 0,
                        class: 0,
                    }
                }
            }
        };
        if self.probe.record_steps {
            self.recorded.push(match &step {
                Step::Work { trace, ops, class } => Recorded::Work {
                    trace: trace.clone(),
                    ops: *ops,
                    class: *class,
                },
                Step::Idle { ns } => Recorded::Idle(*ns),
                Step::Done => unreachable!("workers never finish on their own"),
            });
        }
        step
    }
}

impl Process for Proc {
    fn next(&mut self, _now: u64) -> Step {
        match self {
            Proc::Client(c) => c.step(),
            Proc::Worker(w) => w.step(),
        }
    }

    fn measured(&self) -> bool {
        matches!(self, Proc::Client(_))
    }
}

/// A process that replays recorded steps with no functional work: what
/// the engine alone costs for the same event sequence.
pub struct ReplayProc {
    steps: std::vec::IntoIter<Recorded>,
    measured: bool,
}

impl Process for ReplayProc {
    fn next(&mut self, _now: u64) -> Step {
        match self.steps.next() {
            Some(Recorded::Work { trace, ops, class }) => Step::Work { trace, ops, class },
            Some(Recorded::Idle(ns)) => Step::Idle { ns },
            None if self.measured => Step::Done,
            None => Step::Idle {
                ns: WORKER_IDLE_POLL_NS,
            },
        }
    }

    fn measured(&self) -> bool {
        self.measured
    }
}

fn simulation() -> Simulation {
    // Raw per-job response times: end-to-end percentiles are exact order
    // statistics, not histogram buckets.
    Simulation::with_options(RunOptions {
        record_latency: true,
        ..RunOptions::default()
    })
}

/// Replay recorded step lists through the engine; returns the run and
/// the host ns it took.
pub fn replay(recorded: Vec<(bool, Vec<Recorded>)>) -> (RunResult, u64) {
    let mut procs: Vec<ReplayProc> = recorded
        .into_iter()
        .map(|(measured, steps)| ReplayProc {
            steps: steps.into_iter(),
            measured,
        })
        .collect();
    let started = Instant::now();
    let run = simulation().run_procs(&mut procs);
    (run, started.elapsed().as_nanos() as u64)
}

/// Everything one repetition measured.
pub struct Rep {
    /// Memory speed of the machine relative to the calibration reference
    /// (`calib::mem_speed`), right before and right after the timed
    /// region.
    pub mem_speeds: [f64; 2],
    /// Host ns before the timed region: op generation + bed build +
    /// pre-population.
    pub setup_ns: u64,
    /// Of which op generation.
    pub gen_ns: u64,
    /// Host ns of the timed region: every engine run through drain, plus
    /// the relaunch in `durable_recover`.
    pub timed_ns: u64,
    /// Host ns of the first engine run alone.
    pub phase1_ns: u64,
    pub relaunch_ns: u64,
    /// Client ops over the whole timed region.
    pub attempted: u64,
    pub failed: u64,
    /// First engine run (every `virt.*` metric but the drain lag comes
    /// from it).
    pub run: RunResult,
    /// Response time of every engine job of the first run, ascending.
    pub latencies: Vec<u64>,
    /// Events dispatched over all engine runs.
    pub events: u64,
    /// Virtual ns the commit pipeline kept running after the clients had
    /// stopped (`drained_ns - makespan_ns`), summed over the engine runs
    /// that have commit workers attached.
    pub lag_ns: u64,
    /// Ops the commit workers applied to the DFS during the first run.
    pub committed: u64,
    /// Region counters at the start and end of the timed region.
    pub before: RegionReport,
    pub after: RegionReport,
    /// Report of the relaunched region (`durable_recover`).
    pub recovered: Option<RegionReport>,
    pub mds_before: MdsCounts,
    pub mds_after: MdsCounts,
    pub idle_polls: u64,
    pub oplist_bytes: usize,
    /// Commit-log bytes on disk just before the kill.
    pub wal_bytes: u64,
    /// Acknowledged inline writes whose payload never reached the DFS.
    pub lost_writebacks: u64,
    /// Output-check failures (empty = correct).
    pub errors: Vec<String>,
    /// Recorded steps per process `(measured, steps)` of the first run.
    pub recorded: Vec<(bool, Vec<Recorded>)>,
}

impl Rep {
    /// Change of a region counter over the timed region.
    pub fn delta(&self, f: impl Fn(&RegionReport) -> u64) -> u64 {
        f(&self.after) - f(&self.before)
    }

    /// Everything that must repeat exactly: virtual clock results and
    /// the program's own exact counts.
    pub fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("makespan_ns", self.run.makespan_ns),
            ("drained_ns", self.run.drained_ns),
            ("drain_lag_ns", self.lag_ns),
            ("measured_ops", self.run.measured_ops),
            ("latency_sum_ns", self.latencies.iter().sum()),
            ("events_dispatched", self.events),
            ("committed", self.committed),
            ("evicted", self.delta(|r| r.evicted)),
            ("wal_fsyncs", self.delta(|r| r.wal_fsyncs)),
            ("batches_flushed", self.delta(|r| r.batches_flushed)),
            ("lost_writebacks", self.lost_writebacks),
        ]
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct MdsCounts {
    pub batch_rpcs: u64,
    pub batch_ops: u64,
    pub lookups: u64,
}

impl MdsCounts {
    fn read(dfs: &DfsCluster) -> Self {
        Self {
            batch_rpcs: dfs.mds_counter("batch"),
            batch_ops: dfs.mds_counter("batch_ops"),
            lookups: dfs.mds_counter("lookup") + dfs.mds_counter("lookup_stat"),
        }
    }
}

struct Bed {
    dfs: Arc<DfsCluster>,
    region: Arc<PaconRegion>,
    workers: Vec<CommitWorker>,
    config: PaconConfig,
}

fn topology() -> Topology {
    Topology::new(NODES, CLIENTS_PER_NODE)
}

fn take_workers(region: &PaconRegion) -> Vec<CommitWorker> {
    (0..NODES as usize).map(|n| region.take_worker(n)).collect()
}

/// Step the commit workers functionally (no engine, no cost recording)
/// until everything published so far is applied to the DFS.
fn drain(region: &PaconRegion, workers: &mut [CommitWorker]) {
    let mut rounds = 0u64;
    while !region.core().drained() {
        for w in workers.iter_mut() {
            w.step();
        }
        rounds += 1;
        assert!(rounds < 100_000_000, "setup commit never converged");
    }
}

fn build(workload: Workload, inputs: &Inputs, div: u32, wal_dir: &Path) -> Bed {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::default()));
    let direct = dfs.client();
    direct.mkdir(ROOT, &CRED, 0o777).expect("mkdir workspace");
    let mut config = PaconConfig::new(ROOT, topology(), CRED).with_commit_batch(COMMIT_BATCH);
    match workload {
        Workload::CreateStorm | Workload::StatHot => {}
        Workload::ColdEvict => {
            // Cache cold: the universe exists only on the DFS.
            for d in &inputs.pre_dirs {
                direct.mkdir(d, &CRED, 0o755).expect("pre-populate mkdir");
            }
            for f in &inputs.pre_files {
                direct.create(f, &CRED, 0o644).expect("pre-populate create");
            }
            config = config.with_eviction_threshold(gen::COLD_EVICTION_THRESHOLD / div as usize);
        }
        Workload::DurableRecover => {
            let _ = std::fs::remove_dir_all(wal_dir);
            config = config
                .with_durability(wal_dir)
                .with_wal_fsync_batch(WAL_FSYNC_BATCH);
        }
    }
    let region = PaconRegion::launch_paused(config.clone(), &dfs).expect("pacon launch");
    let mut workers = take_workers(&region);
    if workload == Workload::StatHot {
        // Cache warm: the universe is created through Pacon and drained.
        let setup = region.client(ClientId(0));
        for d in &inputs.pre_dirs {
            setup.mkdir(d, &CRED, 0o755).expect("setup mkdir");
        }
        for f in &inputs.pre_files {
            setup.create(f, &CRED, 0o644).expect("setup create");
        }
        drain(&region, &mut workers);
    }
    Bed {
        dfs,
        region,
        workers,
        config,
    }
}

struct Phase {
    run: RunResult,
    host_ns: u64,
    procs: Vec<Proc>,
}

/// One engine run: every client executes its op list; `workers` run in
/// the background and the engine keeps going until they drain.
fn run_phase(
    region: &Arc<PaconRegion>,
    client_ops: Vec<Vec<FsOp>>,
    workers: Vec<CommitWorker>,
    probe: &Probe,
) -> Phase {
    let mut procs: Vec<Proc> = Vec::with_capacity(client_ops.len() + workers.len());
    for (c, ops) in client_ops.into_iter().enumerate() {
        procs.push(Proc::Client(ClientProc {
            fs: region.client(ClientId(c as u32)),
            recorded: Vec::with_capacity(if probe.record_steps { ops.len() } else { 0 }),
            ops: ops.into_iter(),
            attempted: 0,
            failed: 0,
            probe: probe.clone(),
        }));
    }
    for worker in workers {
        procs.push(Proc::Worker(WorkerProc {
            worker,
            idle_polls: 0,
            probe: probe.clone(),
            recorded: Vec::new(),
        }));
    }
    let (run, host_ns) = with_span(probe, SpanName::EngineRun, || {
        let started = Instant::now();
        let run = simulation().run_procs(&mut procs);
        (run, started.elapsed().as_nanos() as u64)
    });
    Phase {
        run,
        host_ns,
        procs,
    }
}

fn with_span<R>(probe: &Probe, name: SpanName, f: impl FnOnce() -> R) -> R {
    let span = probe.tracer.as_ref().map(|t| t.borrow_mut().begin(name));
    let out = f();
    if let (Some(t), Some(id)) = (&probe.tracer, span) {
        t.borrow_mut().end(id);
    }
    out
}

/// Files per directory under the workspace, as the DFS holds them now.
fn dfs_namespace(dfs: &DfsCluster) -> BTreeMap<String, i64> {
    let mut counts = BTreeMap::new();
    let prefix = format!("{ROOT}/");
    for (path, kind, _) in dfs.snapshot() {
        if !path.starts_with(&prefix) {
            continue;
        }
        match kind {
            FileKind::Dir => {
                counts.entry(path).or_insert(0);
            }
            FileKind::File => {
                let parent = path[..path.rfind('/').expect("absolute path")].to_string();
                *counts.entry(parent).or_insert(0) += 1;
            }
        }
    }
    counts
}

fn check_namespace(dfs: &DfsCluster, want: &Expected, errors: &mut Vec<String>) {
    let mut expected = want.namespace.clone();
    let mut actual = dfs_namespace(dfs);
    // A directory that ends up empty is listed only if the inputs
    // pre-created it (the shared parent itself never is).
    expected.retain(|dir, n| *n != 0 || want.pre_dirs.contains(dir));
    actual.retain(|dir, n| *n != 0 || want.pre_dirs.contains(dir));
    if expected != actual {
        let diff = expected
            .iter()
            .find(|(d, n)| actual.get(*d) != Some(n))
            .map(|(d, n)| format!("{d}: expected {n}, found {:?}", actual.get(d)))
            .or_else(|| {
                actual
                    .iter()
                    .find(|(d, _)| !expected.contains_key(*d))
                    .map(|(d, n)| format!("{d}: unexpected directory with {n} files"))
            })
            .unwrap_or_default();
        errors.push(format!(
            "DFS namespace differs from what the op list implies ({diff})"
        ));
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What the output checks compare against, derived from the op lists
/// before the timed region consumes them.
struct Expected {
    timed_ops: u64,
    /// Mutations each phase publishes to the commit path.
    phase_mutations: Vec<u64>,
    namespace: BTreeMap<String, i64>,
    pre_dirs: Vec<String>,
    /// `(path, bytes)` of every written file that is never unlinked: the
    /// DFS must hold each with its full payload once everything drained.
    written: Vec<(String, u64)>,
    writes: u64,
}

impl Expected {
    fn of(inputs: &Inputs) -> Self {
        let mut written: BTreeMap<String, u64> = BTreeMap::new();
        let mut writes = 0;
        for op in inputs.phases.iter().flatten().flatten() {
            match op {
                FsOp::Write { path, data, .. } => {
                    writes += 1;
                    written.insert(path.clone(), data.len() as u64);
                }
                FsOp::Unlink(path) => {
                    written.remove(path);
                }
                _ => {}
            }
        }
        Self {
            timed_ops: inputs.timed_ops(),
            phase_mutations: inputs
                .phases
                .iter()
                .map(|p| p.iter().flatten().filter(|op| gen::is_mutation(op)).count() as u64)
                .collect(),
            namespace: inputs.expected_namespace(),
            pre_dirs: inputs.pre_dirs.clone(),
            written: written.into_iter().collect(),
            writes,
        }
    }
}

/// Fold the finished processes of a phase into the rep's tallies; the
/// worker processes are handed back because they own the queue
/// consumers and must outlive later phases.
fn tally(procs: Vec<Proc>, rep: &mut Tally) -> Vec<WorkerProc> {
    let mut workers = Vec::new();
    for p in procs {
        match p {
            Proc::Client(c) => {
                rep.attempted += c.attempted;
                rep.failed += c.failed;
                rep.recorded.push((true, c.recorded));
            }
            Proc::Worker(mut w) => {
                rep.idle_polls += w.idle_polls;
                rep.recorded.push((false, std::mem::take(&mut w.recorded)));
                workers.push(w);
            }
        }
    }
    workers
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    idle_polls: u64,
    recorded: Vec<(bool, Vec<Recorded>)>,
}

/// Run one fresh-state repetition of `workload` and check its outputs.
pub fn run_rep(workload: Workload, seed: u64, div: u32, probe: &Probe, wal_dir: &Path) -> Rep {
    let rep_span = probe
        .tracer
        .as_ref()
        .map(|t| t.borrow_mut().begin(SpanName::Rep));
    let setup_started = Instant::now();
    let (inputs, gen_ns, bed, expected) = with_span(probe, SpanName::Setup, || {
        let inputs = gen::generate(workload, seed, div);
        let gen_ns = setup_started.elapsed().as_nanos() as u64;
        let bed = build(workload, &inputs, div, wal_dir);
        let expected = Expected::of(&inputs);
        (inputs, gen_ns, bed, expected)
    });
    let Bed {
        dfs,
        region,
        workers,
        config,
    } = bed;
    let oplist_bytes = inputs.oplist_bytes();
    let before = region.report();
    let mds_before = MdsCounts::read(&dfs);
    let setup_ns = setup_started.elapsed().as_nanos() as u64;
    let speed_before = crate::calib::mem_speed();
    let mut errors = Vec::new();
    let mut t = Tally::default();

    // ---- timed region ----
    // One engine run per phase. The commit workers are attached to every
    // run except phase 2 of `durable_recover`; between runs they stay
    // alive here because they own the queue consumers.
    let mut workers = workers;
    let mut first: Option<Phase> = None;
    let mut recorded = Vec::new();
    let (mut timed_ns, mut events, mut lag_ns, mut committed) = (0, 0, 0, 0);
    let mut attached_mutations = 0;
    for (i, ops) in inputs.phases.into_iter().enumerate() {
        let attach = !(workload == Workload::DurableRecover && i == 1);
        let attached = if attach {
            std::mem::take(&mut workers)
        } else {
            Vec::new()
        };
        let mut phase = run_phase(&region, ops, attached, probe);
        timed_ns += phase.host_ns;
        events += phase.run.events_dispatched;
        if attach {
            lag_ns += phase.run.drained_ns - phase.run.makespan_ns;
            attached_mutations += expected.phase_mutations[i];
            if !region.core().drained() {
                errors.push(format!(
                    "commit queues not drained after engine run {}",
                    i + 1
                ));
            }
        }
        workers.extend(
            tally(std::mem::take(&mut phase.procs), &mut t)
                .into_iter()
                .map(|w| w.worker),
        );
        if i == 0 {
            committed = region.report().committed - before.committed;
            // Only the first run is replayed by the engine-only probe.
            recorded = std::mem::take(&mut t.recorded);
            first = Some(phase);
        }
        t.recorded.clear();
    }
    let mut first = first.expect("every workload has a first phase");

    let mut relaunch_ns = 0;
    let mut wal_bytes = 0;
    let mut recovered = None;
    let after = region.report();
    let mds_after = MdsCounts::read(&dfs);
    let region = if workload == Workload::DurableRecover {
        // Everything phase 2 published is journaled and unapplied: kill
        // the region and time the relaunch that replays the logs.
        wal_bytes = dir_bytes(wal_dir);
        region.abort();
        drop(workers);
        drop(region);
        let started = Instant::now();
        let relaunched = with_span(probe, SpanName::Relaunch, || {
            PaconRegion::launch_paused(config, &dfs).expect("recovery launch")
        });
        relaunch_ns = started.elapsed().as_nanos() as u64;
        timed_ns += relaunch_ns;
        recovered = Some(relaunched.report());
        relaunched
    } else {
        drop(workers);
        region
    };
    // ---- end of timed region ----
    let speed_after = crate::calib::mem_speed();

    let Tally {
        attempted,
        failed,
        idle_polls,
        ..
    } = t;
    let mut lost_writebacks = 0u64;
    with_span(probe, SpanName::Check, || {
        if failed != 0 {
            errors.push(format!(
                "{failed} of {attempted} client ops returned an error"
            ));
        }
        if attempted != expected.timed_ops {
            errors.push(format!(
                "{attempted} client ops ran, the op lists hold {}",
                expected.timed_ops
            ));
        }
        // Every mutation is published to the commit path, except that a
        // write to a file evicted since its create goes straight to the
        // DFS data plane (the reloaded record is a large file).
        let published = after.ops_enqueued - before.ops_enqueued;
        let mutations: u64 = expected.phase_mutations.iter().sum();
        let direct_writes = mutations.saturating_sub(published);
        let may_bypass = if workload == Workload::ColdEvict {
            expected.writes
        } else {
            0
        };
        if published > mutations || direct_writes > may_bypass {
            errors.push(format!(
                "{published} ops published, the op lists hold {mutations} mutations"
            ));
        }
        let coalesced = (after.coalesced_cancel - before.coalesced_cancel)
            + (after.coalesced_collapse - before.coalesced_collapse);
        let applied = after.committed - before.committed;
        if applied + coalesced + direct_writes != attached_mutations {
            errors.push(format!(
                "{applied} committed + {coalesced} coalesced + {direct_writes} direct != \
                 {attached_mutations} mutations"
            ));
        }
        if after.discarded != 0 {
            errors.push(format!(
                "{} ops discarded by the commit workers",
                after.discarded
            ));
        }
        let (hits, gets) = (
            after.cache_hits - before.cache_hits,
            after.cache_gets - before.cache_gets,
        );
        if workload == Workload::StatHot && hits != gets {
            errors.push(format!(
                "stat_hot hit ratio is {hits}/{gets}, must be exactly 1"
            ));
        }
        if let Some(r) = &recovered {
            if r.wal_replayed != r.recovery_applied + r.recovery_skipped {
                errors.push(format!(
                    "wal_replayed {} != applied {} + skipped {}",
                    r.wal_replayed, r.recovery_applied, r.recovery_skipped
                ));
            }
            if r.wal_replayed != expected.phase_mutations[1] {
                errors.push(format!(
                    "{} ops replayed, phase 2 journaled {}",
                    r.wal_replayed, expected.phase_mutations[1]
                ));
            }
        }
        let direct = dfs.client();
        let mut missing = 0;
        for (path, bytes) in &expected.written {
            match direct.stat(path, &CRED) {
                Ok(s) if s.size == *bytes => {}
                Ok(_) => lost_writebacks += 1,
                Err(_) => missing += 1,
            }
        }
        if missing != 0 {
            errors.push(format!("{missing} written files missing on the DFS"));
        }
        // Known defect of the program, reported as a count instead of
        // failing the run: eviction may drop a committed record whose
        // inline writeback is still queued, and the worker then skips the
        // writeback, so the DFS copy stays empty. Only `cold_evict` evicts.
        if lost_writebacks != 0 && workload != Workload::ColdEvict {
            errors.push(format!("{lost_writebacks} written files short on the DFS"));
        }
        check_namespace(&dfs, &expected, &mut errors);
    });
    drop(region);
    if workload == Workload::DurableRecover {
        let _ = std::fs::remove_dir_all(wal_dir);
    }
    if let (Some(t), Some(id)) = (&probe.tracer, rep_span) {
        t.borrow_mut().end(id);
    }

    let mut latencies = std::mem::take(&mut first.run.latencies_ns);
    latencies.sort_unstable();
    Rep {
        mem_speeds: [speed_before, speed_after],
        setup_ns,
        gen_ns,
        timed_ns,
        phase1_ns: first.host_ns,
        relaunch_ns,
        attempted,
        failed,
        run: first.run,
        latencies,
        events,
        lag_ns,
        committed,
        before,
        after,
        recovered,
        mds_before,
        mds_after,
        idle_polls,
        oplist_bytes,
        wal_bytes,
        lost_writebacks,
        errors,
        recorded,
    }
}

/// `benchmark/out` by default; every file the benchmark writes goes here.
pub fn wal_dir(out_dir: &Path, workload: Workload, rep: usize) -> PathBuf {
    out_dir.join(format!(
        "wal-{}-{}-{rep}",
        workload.name(),
        std::process::id()
    ))
}
