//! `pacon-repro` — command-line front end of the reproduction.
//!
//! ```text
//! pacon-repro replay <trace-file> [options]   replay a text trace
//!     --backend pacon|beegfs|indexfs          (default: pacon)
//!     --workspace <dir>                       consistent region root
//!                                             (default: /w)
//!     --nodes <n> --clients-per-node <m>      cluster shape (default 2x2)
//!     --des                                   drive through the
//!                                             discrete-event testbed and
//!                                             report virtual throughput
//!                                             (barrier ops included)
//! pacon-repro trace-example                   print a sample trace
//! ```
//!
//! Trace format: see `workloads::trace`.

use std::process::ExitCode;
use std::sync::Arc;

use fsapi::{Credentials, FileSystem};
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, NodeId, Topology};
use workloads::driver::{run_closed_loop, FsOpClient, PaconWorkerProc};
use workloads::trace;

const SAMPLE_TRACE: &str = "\
# Sample trace: two clients building a small workspace.
mkdir /w/out 0755
@0 create /w/out/alpha.dat 0644
@0 write /w/out/alpha.dat 0 2048
@1 create /w/out/beta.dat 0644
@1 write /w/out/beta.dat 0 2048
@1 stat /w/out/alpha.dat
@0 read /w/out/beta.dat 0 2048
readdir /w/out
";

struct Args {
    trace_path: String,
    backend: String,
    workspace: String,
    nodes: u32,
    clients_per_node: u32,
    des: bool,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let trace_path = argv.next().ok_or("missing trace file")?;
    let mut args = Args {
        trace_path,
        backend: "pacon".into(),
        workspace: "/w".into(),
        nodes: 2,
        clients_per_node: 2,
        des: false,
    };
    while let Some(flag) = argv.next() {
        let mut val = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--backend" => args.backend = val("--backend")?,
            "--workspace" => args.workspace = val("--workspace")?,
            "--nodes" => {
                args.nodes = val("--nodes")?.parse().map_err(|_| "bad --nodes")?;
            }
            "--clients-per-node" => {
                args.clients_per_node =
                    val("--clients-per-node")?.parse().map_err(|_| "bad --clients-per-node")?;
            }
            "--des" => args.des = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn replay(args: Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.trace_path)
        .map_err(|e| format!("read {}: {e}", args.trace_path))?;
    let parsed = trace::parse_trace(&text).map_err(|e| e.to_string())?;
    let total_ops = parsed.len();
    let lists = trace::per_client(parsed);
    let needed = lists.len() as u32;
    let topo = Topology::new(args.nodes, args.clients_per_node);
    if needed > topo.total_clients() {
        return Err(format!(
            "trace uses {needed} clients but the cluster has {}; raise --nodes/--clients-per-node",
            topo.total_clients()
        ));
    }

    let cred = Credentials::new(1000, 1000);
    let profile = Arc::new(if args.des {
        LatencyProfile::default()
    } else {
        LatencyProfile::zero()
    });
    let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));

    // Build per-client backend handles (+ background workers for pacon).
    let mut region: Option<Arc<PaconRegion>> = None;
    let mut indexfs_cluster = None;
    let mut workers: Vec<PaconWorkerProc> = Vec::new();
    let mk_setup_dirs = |fs: &dyn FileSystem| {
        let _ = fs.mkdir(&args.workspace, &cred, 0o777);
    };
    match args.backend.as_str() {
        "beegfs" => mk_setup_dirs(&dfs.client()),
        "indexfs" => {
            let c = indexfs::IndexFsCluster::with_default_config(topo, Arc::clone(&profile));
            mk_setup_dirs(&c.client(NodeId(0)));
            indexfs_cluster = Some(c);
        }
        "pacon" => {
            let r = if args.des {
                PaconRegion::launch_paused(
                    PaconConfig::new(&args.workspace, topo, cred),
                    &dfs,
                )
            } else {
                PaconRegion::launch(PaconConfig::new(&args.workspace, topo, cred), &dfs)
            }
            .map_err(|e| e.to_string())?;
            if args.des {
                workers = (0..topo.nodes as usize).map(|n| PaconWorkerProc::new(&r, n)).collect();
            }
            region = Some(r);
        }
        other => return Err(format!("unknown backend: {other}")),
    }
    let client_for = |i: u32| -> Box<dyn FileSystem> {
        match args.backend.as_str() {
            "beegfs" => Box::new(dfs.client()),
            "indexfs" => Box::new(
                indexfs_cluster.as_ref().expect("indexfs deployed").client(topo.node_of(ClientId(i))),
            ),
            _ => Box::new(region.as_ref().expect("pacon launched").client(ClientId(i))),
        }
    };

    if args.des {
        let clients: Vec<FsOpClient> = lists
            .into_iter()
            .enumerate()
            .map(|(i, ops)| FsOpClient::new(client_for(i as u32), cred, ops))
            .collect();
        let res = run_closed_loop(clients, workers);
        println!(
            "replayed {total_ops} ops on {} ({} clients): {:.0} ops/s virtual, makespan {:.3} ms",
            args.backend,
            needed,
            res.ops_per_sec(),
            res.makespan_ns as f64 / 1e6
        );
        // Counted by the region: a barrier op drives part of the drain
        // inside its own job, not on the background processes.
        if let Some(r) = &region {
            println!(
                "commit processes applied {} ops; drained by {:.3} ms virtual",
                r.report().committed,
                res.drained_ns as f64 / 1e6
            );
        }
    } else {
        let run = workloads::threaded::run_threads(
            |i| client_for(i as u32),
            cred,
            lists,
        );
        println!(
            "replayed {} ops on {} ({} ok, {} errors) in {:?}",
            total_ops, args.backend, run.ok_ops, run.err_ops, run.wall
        );
        if let Some(r) = &region {
            r.quiesce();
            println!("pacon commit queues drained; backup copy is current");
        }
    }
    if let Some(r) = region {
        if !args.des {
            r.shutdown().map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    let _bin = argv.next();
    match argv.next().as_deref() {
        Some("replay") => match parse_args(argv) {
            Ok(args) => match replay(args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\nrun `pacon-repro` for usage");
                ExitCode::FAILURE
            }
        },
        Some("trace-example") => {
            print!("{SAMPLE_TRACE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage:\n  pacon-repro replay <trace-file> [--backend pacon|beegfs|indexfs] \
                 [--workspace <dir>] [--nodes N] [--clients-per-node M] [--des]\n  \
                 pacon-repro trace-example"
            );
            ExitCode::FAILURE
        }
    }
}
