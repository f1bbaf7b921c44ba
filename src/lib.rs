//! `pacon-repro` — umbrella crate of the Pacon (IPDPS 2020) reproduction.
//!
//! Re-exports every workspace crate so the examples and cross-crate
//! integration tests read naturally. The actual implementation lives in
//! `crates/`:
//!
//! * [`pacon`] — the paper's contribution (partial consistency),
//! * [`dfs`] — the BeeGFS-like underlying DFS,
//! * [`indexfs`] — the IndexFS baseline,
//! * [`memkv`] / [`mq`] — the memcached-like cache and the ZeroMQ-like
//!   commit queue,
//! * [`lsmkv`] — the write-ahead log frame of Pacon's durable commit queue,
//! * [`qsim`] / [`simnet`] — the discrete-event testbed model,
//! * [`workloads`] — mdtest / memaslap / MADbench2 drivers,
//! * [`fsapi`] — the shared file-system interface.

#![forbid(unsafe_code)]

pub use dfs;
pub use fsapi;
pub use indexfs;
pub use lsmkv;
pub use memkv;
pub use mq;
pub use pacon;
pub use qsim;
pub use simnet;
pub use workloads;
