//! Closed-loop discrete-event drivers.
//!
//! Each virtual client owns a backend handle (its own `DfsClient`,
//! `IndexFsClient`, or `PaconClient`) and a pre-generated op list. On
//! every [`qsim::Process::next`] call it executes one *functional*
//! operation under `simnet::with_recording` and returns the recorded
//! trace, which the engine replays against the contended stations in
//! virtual time. Pacon's commit processes are background DES processes,
//! each stepping its node's [`pacon::commit::worker::CommitWorker`] in the
//! region's slot. A barrier op (rmdir, readdir) steps them too, inside
//! its own job: the drain it waits for is charged to it.

use std::sync::Arc;

use fsapi::{Credentials, FileSystem};
use pacon::commit::worker::WorkerStep;
use pacon::region::RegionCore;
use pacon::PaconRegion;
use qsim::{Process, RunResult, Simulation, Step};
use simnet::with_recording;

use crate::ops::FsOp;

/// A measured closed-loop client executing a fixed op list.
pub struct FsOpClient {
    fs: Box<dyn FileSystem>,
    cred: Credentials,
    ops: std::vec::IntoIter<FsOp>,
    /// Ops that returned an error (diagnostics; still counted as work).
    pub errors: u64,
}

impl FsOpClient {
    pub fn new(fs: Box<dyn FileSystem>, cred: Credentials, ops: Vec<FsOp>) -> Self {
        Self { fs, cred, ops: ops.into_iter(), errors: 0 }
    }
}

impl Process for FsOpClient {
    fn next(&mut self, _now: u64) -> Step {
        match self.ops.next() {
            Some(op) => {
                let (res, trace) = with_recording(|| op.exec(self.fs.as_ref(), &self.cred));
                if res.is_err() {
                    self.errors += 1;
                }
                // Batched ops count every logical operation they carry so
                // batched and unbatched runs report comparable totals.
                Step::Work { trace, ops: op.weight(), class: op.class() }
            }
            None => Step::Done,
        }
    }
}

/// Poll interval for an idle commit process, in virtual ns.
const WORKER_IDLE_POLL_NS: u64 = 20_000;

/// Background DES process stepping node `n`'s Pacon commit worker.
///
/// The worker stays in the region's slot, so the same commit process can
/// be re-attached to several consecutive simulation runs (multi-phase
/// experiments keep one long-lived commit process per node, like the real
/// deployment) and a barrier op can step it too.
#[derive(Clone)]
pub struct PaconWorkerProc {
    core: Arc<RegionCore>,
    node: usize,
}

impl PaconWorkerProc {
    pub fn new(region: &PaconRegion, node: usize) -> Self {
        Self { core: Arc::clone(region.core()), node }
    }
}

impl Process for PaconWorkerProc {
    fn next(&mut self, _now: u64) -> Step {
        let (stepped, mut trace) = with_recording(|| self.core.step_worker(self.node));
        // A worker the region no longer holds makes no progress here:
        // park it like a crashed one.
        let Some((step, backlog_empty)) = stepped else {
            return Step::Idle { ns: WORKER_IDLE_POLL_NS };
        };
        // Guarantee virtual-time progress even under a zero-cost profile;
        // otherwise a retry loop could spin at one instant forever.
        if trace.is_empty() {
            trace.push(simnet::Station::ClientCpu, 1);
        }
        match step {
            WorkerStep::Committed | WorkerStep::Discarded => {
                Step::Work { trace, ops: 1, class: 0 }
            }
            WorkerStep::Batch { committed, discarded, .. } => {
                // One batched message settles many ops at once; retried
                // ones re-count when their resubmission lands.
                Step::Work { trace, ops: (committed + discarded) as u64, class: 0 }
            }
            WorkerStep::Retried | WorkerStep::BarrierReported => {
                Step::Work { trace, ops: 0, class: 0 }
            }
            // A crashed node makes no further progress; park it like an
            // idle worker so the engine can drain the rest of the run.
            WorkerStep::Crashed => Step::Idle { ns: WORKER_IDLE_POLL_NS },
            WorkerStep::Blocked(_) | WorkerStep::Idle | WorkerStep::Disconnected => {
                if backlog_empty {
                    Step::Idle { ns: WORKER_IDLE_POLL_NS }
                } else {
                    // Backlog waits on a commit from another queue: stay
                    // alive through the engine's drain phase.
                    let mut t = simnet::CostTrace::new();
                    t.push(simnet::Station::ClientCpu, WORKER_IDLE_POLL_NS);
                    Step::Work { trace: t, ops: 0, class: 0 }
                }
            }
        }
    }

    fn measured(&self) -> bool {
        false
    }
}

/// Run measured clients plus background processes to completion and
/// return the engine result. Background processes keep running until the
/// commit queues drain (the engine's drain phase).
pub fn run_closed_loop(
    clients: Vec<FsOpClient>,
    background: Vec<PaconWorkerProc>,
) -> RunResult {
    let mut procs: Vec<Box<dyn Process>> = Vec::with_capacity(clients.len() + background.len());
    for c in clients {
        procs.push(Box::new(c));
    }
    for b in background {
        procs.push(Box::new(b));
    }
    Simulation::new().run(&mut procs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::DfsCluster;
    use pacon::{PaconConfig, PaconRegion};
    use simnet::{ClientId, LatencyProfile, Station, Topology};
    use std::sync::Arc;

    #[test]
    fn dfs_clients_contend_on_the_mds_in_virtual_time() {
        let profile = Arc::new(LatencyProfile::default());
        let dfs = DfsCluster::with_default_config(profile.clone());
        let cred = Credentials::new(1, 1);
        dfs.client().mkdir("/w", &cred, 0o777).unwrap();

        let per_client = 50u32;
        let n_clients = 8u32;
        let clients: Vec<FsOpClient> = (0..n_clients)
            .map(|c| {
                FsOpClient::new(
                    Box::new(dfs.client()),
                    cred,
                    crate::mdtest::create_phase("/w", c, per_client),
                )
            })
            .collect();
        let res = run_closed_loop(clients, Vec::new());
        assert_eq!(res.measured_ops, (n_clients * per_client) as u64);
        // The single MDS serializes creates: throughput caps at
        // 1/mds_create, so the makespan is at least ops * service.
        let min_ns = res.measured_ops * profile.mds_create;
        assert!(res.makespan_ns >= min_ns);
        assert!(res.utilization(Station::Mds(0)) > 0.9, "MDS should saturate");
        // All ops really executed.
        assert_eq!(
            dfs.client().readdir("/w", &cred).unwrap().len(),
            (n_clients * per_client) as usize
        );
    }

    #[test]
    fn pacon_clients_commit_in_background_virtual_time() {
        let profile = Arc::new(LatencyProfile::default());
        let dfs = DfsCluster::with_default_config(profile.clone());
        let cred = Credentials::new(1, 1);
        let topo = Topology::new(2, 4);
        let region =
            PaconRegion::launch_paused(PaconConfig::new("/app", topo, cred), &dfs).unwrap();

        let per_client = 40u32;
        let clients: Vec<FsOpClient> = topo
            .clients()
            .map(|cid| {
                FsOpClient::new(
                    Box::new(region.client(cid)),
                    cred,
                    crate::mdtest::create_phase("/app", cid.0, per_client),
                )
            })
            .collect();
        let background: Vec<PaconWorkerProc> =
            (0..topo.nodes as usize).map(|n| PaconWorkerProc::new(&region, n)).collect();

        let res = run_closed_loop(clients, background);
        let total = (topo.total_clients() * per_client) as u64;
        assert_eq!(res.measured_ops, total);
        // Clients never wait for the MDS: the measured makespan is far
        // below the serialized MDS time...
        assert!(res.makespan_ns < total * profile.mds_create);
        // ...but the background drain applied every create to the DFS.
        assert_eq!(res.background_ops, total, "all commits must drain");
        assert_eq!(dfs.client().readdir("/app", &cred).unwrap().len(), total as usize);
        assert!(res.drained_ns >= res.makespan_ns);
    }

    #[test]
    fn errors_are_counted() {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let ops = vec![FsOp::Stat("/nope".into()), FsOp::Stat("/nope2".into())];
        let mut client = FsOpClient::new(Box::new(dfs.client()), cred, ops);
        let mut procs: Vec<Box<dyn Process>> = Vec::new();
        // Drive manually to keep ownership for the error assertion.
        loop {
            if let Step::Done = client.next(0) { break }
        }
        assert_eq!(client.errors, 2);
        let _ = &mut procs;
    }

    /// Table I on the virtual clock: a DES client's `readdir` is a barrier
    /// op, so it lists every create another client's ops published before
    /// it ran — the commit processes drain inside the readdir's own job.
    #[test]
    fn a_des_readdir_lists_every_create_published_before_it() {
        use std::cell::{Cell, RefCell};
        use std::rc::Rc;

        /// A client whose executed ops are counted where the lister sees
        /// them.
        struct Counted(FsOpClient, Rc<Cell<u32>>);
        impl Process for Counted {
            fn next(&mut self, now: u64) -> Step {
                let step = self.0.next(now);
                if matches!(step, Step::Work { .. }) {
                    self.1.set(self.1.get() + 1);
                }
                step
            }
        }
        /// How many creates had run, and what the listing held.
        type Listing = Rc<RefCell<Option<(u32, Vec<String>)>>>;
        /// Stats the workspace `stats` times, then lists it once, noting
        /// how many creates the other client had run by then.
        struct Lister {
            client: pacon::PaconClient,
            stats: u32,
            creates: Rc<Cell<u32>>,
            listed: Listing,
        }
        impl Process for Lister {
            fn next(&mut self, _now: u64) -> Step {
                let cred = Credentials::new(1, 1);
                let trace = if self.stats > 0 {
                    self.stats -= 1;
                    with_recording(|| self.client.stat("/app", &cred).map(|_| ())).1
                } else if self.listed.borrow().is_none() {
                    let before = self.creates.get();
                    let (names, trace) = with_recording(|| self.client.readdir("/app", &cred));
                    *self.listed.borrow_mut() = Some((before, names.unwrap()));
                    trace
                } else {
                    return Step::Done;
                };
                Step::Work { trace, ops: 1, class: 0 }
            }
        }

        let profile = Arc::new(LatencyProfile::default());
        let dfs = DfsCluster::with_default_config(profile);
        let cred = Credentials::new(1, 1);
        let topo = Topology::new(2, 1);
        let region =
            PaconRegion::launch_paused(PaconConfig::new("/app", topo, cred), &dfs).unwrap();
        let creates = 60u32;
        let stats = 20u32;
        let created = Rc::new(Cell::new(0));
        let listed = Rc::new(RefCell::new(None));
        let mut procs: Vec<Box<dyn Process>> = vec![
            Box::new(Counted(
                FsOpClient::new(
                    Box::new(region.client(ClientId(0))),
                    cred,
                    crate::mdtest::create_phase("/app", 0, creates),
                ),
                Rc::clone(&created),
            )),
            Box::new(Lister {
                client: region.client(ClientId(1)),
                stats,
                creates: Rc::clone(&created),
                listed: Rc::clone(&listed),
            }),
        ];
        procs.extend(
            (0..topo.nodes as usize)
                .map(|n| Box::new(PaconWorkerProc::new(&region, n)) as Box<dyn Process>),
        );
        let res = Simulation::new().run(&mut procs);

        let (before, mut names) = listed.borrow_mut().take().expect("the lister listed");
        assert!(0 < before && before < creates, "the readdir ran mid-stream: {before}");
        let mut want: Vec<String> = crate::mdtest::created_files("/app", 0, before)
            .into_iter()
            .map(|p| p.trim_start_matches("/app/").to_string())
            .collect();
        names.sort();
        want.sort();
        assert_eq!(names, want, "the listing holds exactly the creates published before it");
        assert_eq!(res.measured_ops, (creates + stats + 1) as u64);
        assert!(region.core().drained(), "every create committed");
        assert_eq!(dfs.client().readdir("/app", &cred).unwrap().len(), creates as usize);
    }

    #[test]
    fn pacon_region_with_des_workers_end_state_matches() {
        // Out-of-order cross-node commits converge under DES scheduling.
        let profile = Arc::new(LatencyProfile::default());
        let dfs = DfsCluster::with_default_config(profile);
        let cred = Credentials::new(1, 1);
        let topo = Topology::new(3, 1);
        let region = PaconRegion::launch_paused(
            PaconConfig::new("/app", topo, cred).without_parent_check(),
            &dfs,
        )
        .unwrap();
        // Client 2 creates children of a dir client 0 makes — queues
        // differ, order in virtual time is arbitrary.
        let c0 = vec![FsOp::Mkdir("/app/d".into(), 0o755)];
        let c2 = vec![
            FsOp::Create("/app/d/x".into(), 0o644),
            FsOp::Create("/app/d/y".into(), 0o644),
        ];
        let clients = vec![
            FsOpClient::new(Box::new(region.client(ClientId(0))), cred, c0),
            FsOpClient::new(Box::new(region.client(ClientId(2))), cred, c2),
        ];
        let background: Vec<PaconWorkerProc> =
            (0..3).map(|n| PaconWorkerProc::new(&region, n)).collect();
        let res = run_closed_loop(clients, background);
        assert_eq!(res.measured_ops, 3);
        let mut names = dfs.client().readdir("/app/d", &cred).unwrap();
        names.sort();
        assert_eq!(names, vec!["x", "y"]);
    }
}
