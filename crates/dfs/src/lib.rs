//! `dfs` — a BeeGFS-like distributed file system substrate.
//!
//! The paper deploys Pacon on BeeGFS: a parallel DFS with a *centralized
//! metadata service* (one or more MDS) and striped data servers. This
//! crate is that substrate, built functionally:
//!
//! * [`namespace`] — the hierarchical inode tree held by the metadata
//!   service, with per-component permission enforcement,
//! * [`mds`] — the metadata server front end that charges per-request
//!   service costs to its [`simnet::Station`],
//! * [`datasrv`] — chunk-striped data servers,
//! * [`client`] — the client library: an LRU dentry cache plus RPC-shaped
//!   calls; it implements [`fsapi::FileSystem`].
//!
//! The client resolves paths component by component exactly like a real
//! DFS client: every dentry-cache miss costs one lookup RPC (network
//! round trip + MDS service). That per-component cost is what the paper's
//! Figures 2 and 9 measure, and what Pacon's batch permission management
//! eliminates.

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod datasrv;
pub mod mds;
pub mod namespace;
pub mod replay;

pub use client::DfsClient;
pub use cluster::{DfsCluster, DfsConfig};
pub use mds::BatchOp;
pub use namespace::Ino;
pub use replay::{OpId, SeenCache};
