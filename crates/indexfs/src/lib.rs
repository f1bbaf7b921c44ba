//! `indexfs` — the paper's baseline: an IndexFS-like metadata service.
//!
//! IndexFS (Ren et al., SC'14) scales file-system metadata by flattening
//! the namespace into `(parent directory id, name)` records stored in
//! LevelDB tables, partitioning directories across metadata servers, and
//! giving clients a lookup-state cache for path resolution. The paper
//! deploys it co-located with the client nodes, with the LevelDB tables
//! stored *on BeeGFS* — which is why its per-record insert cost
//! (`idx_put` in the latency profile) is the most expensive KV path in
//! the reproduction. LevelDB is modelled by those `idx_*` service
//! demands, as `dfs` models BeeGFS; the records themselves live in one
//! in-memory ordered table per server.
//!
//! Components:
//!
//! * [`codec`] — the binary record format for metadata values,
//! * [`server`] — one per-node metadata server over an ordered table,
//! * [`lease`] — the client-side lookup cache,
//! * [`client`] + [`cluster`] — the [`fsapi::FileSystem`] front end with
//!   directory-hash partitioning and optional bulk insertion
//!   (BatchFS/DeltaFS-style).
//!
//! Simplifications vs. the real system, tolerable because the paper's
//! workloads never exercise them: no rename, no lease expiry (stale
//! client cache entries fail at the final server operation, as in the
//! `dfs` client), and per-component permission checks happen client-side
//! against cached entry attributes.

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod codec;
pub mod lease;
pub mod server;

pub use client::IndexFsClient;
pub use cluster::{IndexFsCluster, IndexFsConfig};
