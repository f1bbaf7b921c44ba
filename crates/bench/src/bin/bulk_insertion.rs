//! Bulk insertion (beyond the paper's figures, from its Section II.B):
//! BatchFS/DeltaFS "can be approximated as an IndexFS deployed on the
//! client nodes while leveraging the bulk insertion of IndexFS". This
//! experiment compares file creation through:
//!
//! * IndexFS, per-op inserts (the general-purpose baseline),
//! * IndexFS in bulk mode (the BatchFS/DeltaFS approximation — clients
//!   buffer locally and merge sorted batches; no shared consistent view
//!   until the flush),
//! * Pacon (consistent view *and* asynchronous commit).
//!
//! The point the paper argues: bulk insertion wins throughput by giving
//! up inter-client consistency, Pacon keeps the consistency and still
//! lands near it.

use std::sync::Arc;

use fsapi::FileSystem;
use pacon_bench::*;
use qsim::{Process, Simulation, Step};
use simnet::{with_recording, LatencyProfile, NodeId, Topology};
use workloads::driver::FsOpClient;
use workloads::mdtest;

/// A DES client that runs a create workload in IndexFS bulk mode and
/// flushes at the end (BatchFS's end-of-job merge).
struct BulkClient {
    fs: indexfs::IndexFsClient,
    ops: std::vec::IntoIter<workloads::ops::FsOp>,
    flushed: bool,
}

impl Process for BulkClient {
    fn next(&mut self, _now: u64) -> Step {
        match self.ops.next() {
            Some(op) => {
                let (res, trace) = with_recording(|| op.exec(&self.fs, &CRED));
                res.expect("bulk create");
                Step::Work { trace, ops: 1, class: op.class() }
            }
            None if !self.flushed => {
                self.flushed = true;
                let (res, trace) = with_recording(|| self.fs.bulk_flush());
                res.expect("bulk flush");
                // The flush is part of the measured job (BatchFS merges
                // before the job completes).
                Step::Work { trace, ops: 0, class: 0 }
            }
            None => Step::Done,
        }
    }
}

fn main() {
    let profile = Arc::new(LatencyProfile::default());
    let topo = Topology::new(8, 20);
    let items = 200u32;
    let mut rows = Vec::new();

    // IndexFS per-op.
    {
        let bed = TestBed::new(Backend::IndexFs, Arc::clone(&profile), topo, &["/app"]);
        let pool = WorkerPool::claim(&bed);
        let res = run_phase(&bed, &pool, |c| mdtest::create_phase("/app", c.0, items));
        let mut row = vec!["IndexFS (per-op)".into(), fmt_ops(res.ops_per_sec)];
        row.extend(latency_cells(&res.run));
        rows.push(row);
    }

    // IndexFS bulk (BatchFS/DeltaFS approximation).
    {
        let cluster = indexfs::IndexFsCluster::with_default_config(topo, Arc::clone(&profile));
        cluster.client(NodeId(0)).mkdir("/app", &CRED, 0o777).unwrap();
        let mut procs: Vec<Box<dyn Process>> = topo
            .clients()
            .map(|c| {
                let fs = cluster.client(topo.node_of(c));
                fs.bulk_begin();
                Box::new(BulkClient {
                    fs,
                    ops: mdtest::create_phase("/app", c.0, items).into_iter(),
                    flushed: false,
                }) as Box<dyn Process>
            })
            .collect();
        let res = Simulation::new().run(&mut procs);
        let mut row = vec![
            "IndexFS bulk (BatchFS-like)".into(),
            fmt_ops(res.ops_per_sec()),
        ];
        row.extend(latency_cells(&res));
        rows.push(row);
        // Everything must be queryable after the flush.
        let probe = cluster.client(NodeId(0));
        assert_eq!(
            probe.readdir("/app", &CRED).unwrap().len(),
            (topo.total_clients() * items) as usize
        );
    }

    // Pacon.
    {
        let bed = TestBed::new(Backend::Pacon, Arc::clone(&profile), topo, &["/app"]);
        let pool = WorkerPool::claim(&bed);
        let res = run_phase(&bed, &pool, |c| mdtest::create_phase("/app", c.0, items));
        let mut row = vec!["Pacon".into(), fmt_ops(res.ops_per_sec)];
        row.extend(latency_cells(&res.run));
        rows.push(row);
        let _ = FsOpClient::new(bed.client(simnet::ClientId(0)), CRED, Vec::new());
    }

    let mut header: Vec<String> = ["system", "create ops/s"].map(String::from).to_vec();
    header.extend(latency_header());
    print_table(
        "Bulk insertion: file creation, 160 clients (Section II.B discussion)",
        &header,
        &rows,
    );
    println!(
        "\nBulk mode trades the shared consistent view for throughput (clients\n\
         cannot see each other's files until the flush); Pacon keeps strong\n\
         in-region consistency and asynchronous commit."
    );
}
