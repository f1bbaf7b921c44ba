//! `memkv` — a memcached-like distributed in-memory KV store.
//!
//! Pacon (Section III.A of the paper) builds its distributed metadata
//! cache from a Memcached cluster co-located with the application's
//! client nodes, sharded by a DHT over full-path keys, and relies on
//! Memcached's CAS (check-and-swap) for lock-free concurrent updates
//! (Section III.D-3). This crate is that substrate:
//!
//! * [`ring`] — rendezvous (highest-random-weight) hashing mapping keys
//!   to shard nodes: balanced by key, and a membership change moves only
//!   the keys a joiner wins or a leaver held,
//! * [`shard`] — one in-memory shard: versioned `Arc<[u8]>` entries, CAS,
//!   byte accounting and no eviction of its own (the cache is Pacon's
//!   primary copy; `pacon::eviction` decides what may go); reads share
//!   an `RwLock`,
//! * [`cluster`] — the cluster facade plus the per-node client handle
//!   that charges simulated network/service costs; batched `multi_gets`
//!   and its write-side counterpart `multi_write` (epoch-fenced
//!   conditional stores and deletes) pay one round trip per shard node
//!   per batch. Ring membership is
//!   **live**: `begin_join`/`begin_leave` start an epoch'd migration
//!   (driven by `migration_step`) that moves only remapped keys while
//!   clients keep reading and writing, fenced by epoch-checked CAS.
//!
//! Two small extensions beyond memcached's wire surface exist because
//! Pacon's design needs them: prefix enumeration (for consistent-region
//! eviction and rmdir subtree cleanup, which the paper performs over its
//! own metadata) and byte-usage introspection (for the eviction
//! threshold).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod ring;
pub mod shard;

pub use cluster::{
    EpochRouter, KvClient, KvCluster, KvError, MigrationKind, NodeStatus, Partial,
    PartialMultiGet, PartialMultiWrite, ReshardStats,
};
pub use ring::Ring;
pub use shard::{CasOutcome, CondOutcome, CondWrite, KeyMoved, Shard, ShardStats, Value};
