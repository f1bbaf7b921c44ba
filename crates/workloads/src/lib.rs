//! Workload generators and closed-loop drivers for the Pacon evaluation.
//!
//! The paper drives its experiments with three tools, all rebuilt here:
//!
//! * [`mdtest`] — the LLNL metadata benchmark's phases: concurrent
//!   mkdir/create in a shared parent, random stat, and fanout/depth
//!   namespace trees (Figures 1, 2, 7, 8, 9, 10, 11);
//! * [`memaslap`] — raw KV load against the memcached-like cache
//!   (Figure 10's baseline);
//! * [`madbench`] — the MADbench2-style out-of-core matrix workload:
//!   per-process file creation, 4 MiB writes, then read/write/compute
//!   loops (Figure 12).
//!
//! Two drivers execute them:
//!
//! * [`driver`] — closed-loop virtual clients for the `qsim`
//!   discrete-event engine: each client executes its next *functional*
//!   operation under a cost recorder and hands the trace to the engine;
//!   Pacon's commit processes run as background DES processes;
//! * [`threaded`] — a small real-thread driver used by smoke tests.
//!
//! [`history`] is the program-order reference the equivalence tests
//! check a region against; [`crash`] enumerates the crash points of the
//! durable commit log against it.

#![forbid(unsafe_code)]

pub mod crash;
pub mod driver;
pub mod history;
pub mod madbench;
pub mod mdtest;
pub mod memaslap;
pub mod ops;
pub mod threaded;
pub mod trace;
pub mod zipf;

pub use driver::{run_closed_loop, FsOpClient, PaconWorkerProc};
pub use ops::{FsOp, CLASS_NAMES};
pub use zipf::Zipf;
