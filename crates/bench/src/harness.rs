//! Shared experiment assembly.
//!
//! Every figure experiment follows the paper's deployment (Section IV):
//! a BeeGFS-like cluster with 1 MDS + 3 data servers; IndexFS co-located
//! on every client node (LevelDB tables "stored on BeeGFS", modeled by
//! its service profile); Pacon launched per application over the
//! application's nodes. All three backends expose `fsapi::FileSystem`,
//! so one generic phase runner drives them in the discrete-event engine.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsError};
use indexfs::IndexFsCluster;
use pacon::{PaconConfig, PaconRegion};
use qsim::RunResult;
use simnet::{ClientId, LatencyProfile, NodeId, Topology};
use workloads::driver::{FsOpClient, PaconWorkerProc};
use workloads::ops::FsOp;

/// The application credential used by every experiment (one system user
/// per HPC application, Section II.A).
pub const CRED: Credentials = Credentials { uid: 1000, gid: 1000 };

/// Which metadata system a test bed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    BeeGfs,
    IndexFs,
    Pacon,
}

impl Backend {
    pub const ALL: [Backend; 3] = [Backend::BeeGfs, Backend::IndexFs, Backend::Pacon];

    pub fn label(&self) -> &'static str {
        match self {
            Backend::BeeGfs => "BeeGFS",
            Backend::IndexFs => "IndexFS",
            Backend::Pacon => "Pacon",
        }
    }
}

/// A deployed backend able to mint per-process clients.
pub struct TestBed {
    pub kind: Backend,
    pub topo: Topology,
    pub dfs: Arc<DfsCluster>,
    indexfs: Option<Arc<IndexFsCluster>>,
    /// One Pacon region per application; `app_of_client` maps a global
    /// client id to (app index, app-local client id).
    regions: Vec<Arc<PaconRegion>>,
    app_dirs: Vec<String>,
    nodes_per_app: u32,
}

impl TestBed {
    /// Deploy `kind` for `apps.len()` applications over `topo`, nodes
    /// split evenly between applications (the paper's multi-application
    /// setup; single-application experiments pass one dir).
    pub fn new(kind: Backend, profile: Arc<LatencyProfile>, topo: Topology, apps: &[&str]) -> Self {
        assert!(!apps.is_empty());
        assert_eq!(
            topo.nodes % apps.len() as u32,
            0,
            "nodes must divide evenly among applications"
        );
        let nodes_per_app = topo.nodes / apps.len() as u32;
        let dfs = DfsCluster::with_default_config(Arc::clone(&profile));

        // Working directories exist on the DFS in every deployment.
        let setup = dfs.client();
        for dir in apps {
            match setup.mkdir(dir, &CRED, 0o777) {
                Ok(()) | Err(FsError::AlreadyExists) => {}
                Err(e) => panic!("setup mkdir {dir}: {e}"),
            }
        }

        let mut indexfs = None;
        let mut regions = Vec::new();
        match kind {
            Backend::BeeGfs => {}
            Backend::IndexFs => {
                let cluster = IndexFsCluster::with_default_config(topo, Arc::clone(&profile));
                // Mirror the working directories inside IndexFS's own
                // namespace (it manages metadata itself).
                let c = cluster.client(NodeId(0));
                for dir in apps {
                    match c.mkdir(dir, &CRED, 0o777) {
                        Ok(()) | Err(FsError::AlreadyExists) => {}
                        Err(e) => panic!("indexfs setup mkdir {dir}: {e}"),
                    }
                }
                indexfs = Some(cluster);
            }
            Backend::Pacon => {
                for (a, dir) in apps.iter().enumerate() {
                    // Each application's region runs on its own block of
                    // physical nodes; the station base keeps the regions'
                    // cache shards and commit processes distinct in the
                    // queueing model.
                    let config = PaconConfig::new(
                        dir,
                        Topology::new(nodes_per_app, topo.clients_per_node),
                        CRED,
                    )
                    .with_station_base(a as u32 * nodes_per_app);
                    regions.push(
                        PaconRegion::launch_paused(config, &dfs).expect("pacon launch"),
                    );
                }
            }
        }
        Self {
            kind,
            topo,
            dfs,
            indexfs,
            regions,
            app_dirs: apps.iter().map(|s| s.to_string()).collect(),
            nodes_per_app,
        }
    }

    /// Which application a global client id belongs to, plus its
    /// app-local client id. Nodes are assigned to applications in
    /// contiguous blocks (the paper: "client nodes are evenly assigned to
    /// individual applications").
    pub fn app_of_client(&self, c: ClientId) -> (usize, ClientId) {
        let node = self.topo.node_of(c);
        let app = (node.0 / self.nodes_per_app) as usize;
        let local =
            ClientId(c.0 - app as u32 * self.nodes_per_app * self.topo.clients_per_node);
        (app, local)
    }

    /// The working directory of a client's application.
    pub fn dir_of_client(&self, c: ClientId) -> &str {
        let (app, _) = self.app_of_client(c);
        &self.app_dirs[app]
    }

    /// Mint the backend handle for one global client id.
    pub fn client(&self, c: ClientId) -> Box<dyn FileSystem> {
        match self.kind {
            Backend::BeeGfs => Box::new(self.dfs.client()),
            Backend::IndexFs => {
                let node = self.topo.node_of(c);
                Box::new(self.indexfs.as_ref().unwrap().client(node))
            }
            Backend::Pacon => {
                let (app, local) = self.app_of_client(c);
                Box::new(self.regions[app].client(local))
            }
        }
    }

    /// A DES process per Pacon commit worker, stepping it in its region's
    /// slot (empty for other backends).
    pub fn worker_procs(&self) -> Vec<PaconWorkerProc> {
        self.regions
            .iter()
            .flat_map(|r| {
                (0..self.nodes_per_app as usize).map(move |n| PaconWorkerProc::new(r, n))
            })
            .collect()
    }

    /// Pacon regions (ablations and diagnostics).
    pub fn regions(&self) -> &[Arc<PaconRegion>] {
        &self.regions
    }
}

/// A variant of [`TestBed::new`] that forwards a Pacon config tweak
/// (ablation experiments).
pub fn pacon_testbed_with(
    profile: Arc<LatencyProfile>,
    topo: Topology,
    dir: &str,
    tweak: impl Fn(PaconConfig) -> PaconConfig,
) -> TestBed {
    let dfs = DfsCluster::with_default_config(Arc::clone(&profile));
    let setup = dfs.client();
    match setup.mkdir(dir, &CRED, 0o777) {
        Ok(()) | Err(FsError::AlreadyExists) => {}
        Err(e) => panic!("setup mkdir {dir}: {e}"),
    }
    let config = tweak(PaconConfig::new(dir, topo, CRED));
    let region = PaconRegion::launch_paused(config, &dfs).expect("pacon launch");
    TestBed {
        kind: Backend::Pacon,
        topo,
        dfs,
        indexfs: None,
        regions: vec![region],
        app_dirs: vec![dir.to_string()],
        nodes_per_app: topo.nodes,
    }
}

/// Result of one measured phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub ops_per_sec: f64,
    pub run: RunResult,
}

/// The long-lived commit processes of a Pacon test bed. Cloneable:
/// a [`PaconWorkerProc`] steps the worker in its region's slot, so each
/// phase can attach fresh process handles to the same commit state.
#[derive(Clone, Default)]
pub struct WorkerPool {
    workers: Vec<PaconWorkerProc>,
}

impl WorkerPool {
    /// Every commit process of the bed (empty pool for BeeGFS/IndexFS).
    pub fn claim(bed: &TestBed) -> Self {
        Self { workers: bed.worker_procs() }
    }

    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Boxed process handles sharing the pool's workers (multi-phase
    /// experiments that drive the engine themselves).
    pub fn boxed(&self) -> Vec<Box<dyn qsim::Process>> {
        self.workers.iter().map(|w| Box::new(w.clone()) as Box<dyn qsim::Process>).collect()
    }
}

/// Run one phase: `ops_for(client)` yields each client's op list; the
/// pool's commit processes run in the background and fully drain before
/// the call returns.
pub fn run_phase(
    bed: &TestBed,
    pool: &WorkerPool,
    ops_for: impl Fn(ClientId) -> Vec<FsOp>,
) -> PhaseResult {
    let clients: Vec<FsOpClient> = bed
        .topo
        .clients()
        .map(|c| FsOpClient::new(bed.client(c), CRED, ops_for(c)))
        .collect();
    run_phase_with_clients(clients, pool)
}

/// As [`run_phase`] but with pre-built clients (callers that need client
/// handles with particular placement build their own).
pub fn run_phase_with_clients(clients: Vec<FsOpClient>, pool: &WorkerPool) -> PhaseResult {
    let mut procs: Vec<Box<dyn qsim::Process>> = Vec::new();
    for c in clients {
        procs.push(Box::new(c));
    }
    for w in &pool.workers {
        procs.push(Box::new(w.clone()));
    }
    let run = qsim::Simulation::new().run(&mut procs);
    PhaseResult { ops_per_sec: run.ops_per_sec(), run }
}

/// Format a nanosecond latency compactly (`850ns`, `12.4us`, `3.01ms`).
pub fn fmt_ns(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.2}ms", v as f64 / 1e6)
    } else if v >= 10_000 {
        format!("{:.1}us", v as f64 / 1e3)
    } else {
        format!("{v}ns")
    }
}

/// The tail-latency columns every figure bench appends: p50/p99/p999
/// over all op classes of a run, from the always-on engine histograms.
pub fn latency_cells(run: &RunResult) -> Vec<String> {
    let h = run.merged_hist();
    [0.50, 0.99, 0.999]
        .iter()
        .map(|&q| h.percentile(q).map(fmt_ns).unwrap_or_else(|| "-".into()))
        .collect()
}

/// Header labels matching [`latency_cells`].
pub fn latency_header() -> Vec<String> {
    vec!["p50".into(), "p99".into(), "p999".into()]
}

/// Print the per-op-class latency breakdown of a run: one row per op
/// class that completed at least one job, with count and p50/p99/p999.
/// `names[class]` labels the classes (falls back to the class index).
pub fn print_class_latency(title: &str, run: &RunResult, names: &[&str]) {
    let mut rows = Vec::new();
    for (class, hist) in run.class_hists.iter().enumerate() {
        if hist.is_empty() {
            continue;
        }
        let name = names.get(class).copied().map(String::from).unwrap_or_else(|| format!("class{class}"));
        rows.push(vec![
            name,
            hist.count().to_string(),
            fmt_ns(hist.percentile(0.50).unwrap_or(0)),
            fmt_ns(hist.percentile(0.99).unwrap_or(0)),
            fmt_ns(hist.percentile(0.999).unwrap_or(0)),
            fmt_ns(hist.max().unwrap_or(0)),
        ]);
    }
    if rows.is_empty() {
        return;
    }
    let header: Vec<String> =
        ["op", "count", "p50", "p99", "p999", "max"].iter().map(|s| s.to_string()).collect();
    print_table(title, &header, &rows);
}

/// Format ops/s compactly.
pub fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Print an aligned table: header row + data rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}
