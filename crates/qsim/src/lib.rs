//! Discrete-event closed queueing-network simulator.
//!
//! This crate is the performance substrate of the reproduction: it stands
//! in for the paper's 16-node TIANHE-II client cluster. Virtual clients
//! run in a closed loop — each client issues its next operation as soon as
//! the previous one completes — and every operation is a [`simnet::CostTrace`]
//! produced by *executing the real backend code* (namespace, LSM, cache,
//! commit queue) under a cost recorder. The engine replays those traces
//! against shared station queues in virtual time, so contention at the
//! single BeeGFS MDS, the per-node IndexFS servers, the cache shards, and
//! the commit processes emerges from queueing rather than from a formula.
//!
//! The engine is validated against an exact Mean-Value-Analysis solver
//! ([`mva`]) and the asymptotic operational bounds of closed networks.
//!
//! Event scheduling uses a monotone radix heap ([`radix`]); the original
//! binary-heap scheduler is kept ([`heap`]) as the trace-equivalence
//! oracle and benchmark baseline.

#![forbid(unsafe_code)]

pub mod engine;
pub(crate) mod heap;
pub mod mva;
pub(crate) mod radix;
pub mod sched_bench;

pub use engine::{Process, RunOptions, RunResult, Simulation, Step};
pub use mva::{mva_multiclass, mva_throughput, ClassResult, ClassSpec, MvaResult};
