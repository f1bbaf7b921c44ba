//! Simulated-cluster substrate for the Pacon reproduction.
//!
//! The paper evaluated Pacon on a 16-node client cluster of the TIANHE-II
//! supercomputer. This reproduction replaces that hardware with a *cost
//! accounting* layer: every functional backend (the BeeGFS-like `dfs`
//! crate, the IndexFS baseline, the memcached-like cache, Pacon itself)
//! calls [`charge`] at each point where a real deployment would spend time
//! on the network or inside a server. The charges are collected into a
//! [`CostTrace`] which the `qsim` discrete-event simulator replays against
//! contended station queues in virtual time.
//!
//! Three pieces live here:
//!
//! * [`topology`] — node/client naming for a simulated cluster,
//! * [`station`] + [`trace`] — service stations and per-operation cost
//!   traces with a thread-local recorder,
//! * [`profiles`] — the calibrated latency constants (documented in
//!   `EXPERIMENTS.md`) shared by every experiment.
//!
//! Beside them, [`hash`] is the keyed hasher of every path-keyed table.
//!
//! When no recorder is installed, [`charge`] is a cheap no-op, so the
//! functional code paths can also be used directly by unit tests and
//! real-thread examples.

#![forbid(unsafe_code)]

pub mod fault;
pub mod hash;
pub mod profiles;
pub mod station;
pub mod stats;
pub mod topology;
pub mod trace;

pub use fault::{FaultEvent, FaultPlan};
pub use hash::{FastMap, FastSet, PathHasher};
pub use profiles::LatencyProfile;
pub use station::Station;
pub use stats::{Counters, LatencyHistogram};
pub use topology::{ClientId, NodeId, Topology};
pub use trace::{charge, is_recording, recorded_total_ns, with_recording, CostTrace, Seg};
