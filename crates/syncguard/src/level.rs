//! The repo-wide lock hierarchy (outermost first, lower value = outer).
//!
//! A thread may only acquire locks at the *same or a higher* level than
//! every lock it already holds. The tiers, from outermost to innermost:
//!
//! ```text
//! REGION          barrier slot — serializes region-wide dependent
//!                 operations (rmdir/readdir); held across the outbox
//!                 flushes and marker sends of its barrier, the drain its
//!                 caller drives, and the dependent op itself.
//! COMMIT_WORKER   a commit process's slot (pacon commit worker): held
//!                 across one whole step, so it sits outside everything
//!                 the step can touch; a barrier's caller steps it under
//!                 the barrier slot, always by try-lock.
//! CLIENT_VIEW     pacon client merged-region map.
//! CLIENT_MEMO     pacon client memos (parent existence, own last write);
//!                 leaves — never held across a cache RPC.
//! REGION_STATE    region state: the per-path table, the eviction
//!                 cursor, the commit driver's thread handle.
//! WAL             the region's durable commit log (pacon CommitWal). Taken
//!                 before the outbox so an append can be ordered ahead of
//!                 the buffered send it covers.
//! PUBLISH         per-node outbox (pacon commit::outbox): the publish
//!                 buffer and the redelivery window of unacked sends, one
//!                 lock. Held across the barrier-epoch read and the queue
//!                 sends — waiting ones included — so it orders before
//!                 BARRIER and QUEUE; the queue's consumer only ever
//!                 try-locks it.
//! BARRIER         barrier-board state (epoch/reached counters).
//! QUEUE           mq PUSH/PULL queue state.
//! ROUTE           memkv epoch router (ring membership + live-migration
//!                 state); read-held across the shard ops it routes, so
//!                 it sits just outside SHARD.
//! SHARD           memkv cache shards.
//! FS_CLIENT       per-client fs caches: dfs dentry cache, indexfs bulk
//!                 buffer.
//! FS_CLIENT_LEASE indexfs lease cache (locked under the bulk buffer).
//! BACKEND         dfs namespace, data-server chunks, lsmkv database.
//! BACKEND_META    dfs seen-cache (idempotent-replay identities); taken
//!                 per-op while the namespace lock is held.
//! STATS           simnet counters — innermost; safe to touch while
//!                 holding anything.
//! ```
//!
//! Gaps between values are deliberate: new locks slot in without
//! renumbering. `tools/lint` enforces that locks are only constructed
//! through syncguard, so every lock site declares its tier.

pub const REGION: u16 = 10;
pub const COMMIT_WORKER: u16 = 11;
pub const CLIENT_VIEW: u16 = 12;
pub const CLIENT_MEMO: u16 = 14;
pub const REGION_STATE: u16 = 16;
pub const WAL: u16 = 28;
pub const PUBLISH: u16 = 30;
pub const BARRIER: u16 = 40;
pub const QUEUE: u16 = 50;
pub const ROUTE: u16 = 58;
pub const SHARD: u16 = 60;
pub const FS_CLIENT: u16 = 70;
pub const FS_CLIENT_LEASE: u16 = 72;
pub const BACKEND: u16 = 80;
pub const BACKEND_META: u16 = 84;
pub const STATS: u16 = 90;

/// Machine-readable level table, outermost first. This is the metadata
/// export the static analyzer (`tools/lint`) resolves `level::NAME`
/// tokens against, so the declared hierarchy has exactly one source of
/// truth. Keep in sync with the constants above (checked by test).
pub const ALL: &[(&str, u16)] = &[
    ("REGION", REGION),
    ("COMMIT_WORKER", COMMIT_WORKER),
    ("CLIENT_VIEW", CLIENT_VIEW),
    ("CLIENT_MEMO", CLIENT_MEMO),
    ("REGION_STATE", REGION_STATE),
    ("WAL", WAL),
    ("PUBLISH", PUBLISH),
    ("BARRIER", BARRIER),
    ("QUEUE", QUEUE),
    ("ROUTE", ROUTE),
    ("SHARD", SHARD),
    ("FS_CLIENT", FS_CLIENT),
    ("FS_CLIENT_LEASE", FS_CLIENT_LEASE),
    ("BACKEND", BACKEND),
    ("BACKEND_META", BACKEND_META),
    ("STATS", STATS),
];

/// Level value for a constant name (`"WAL"` → `28`).
pub fn value_of(name: &str) -> Option<u16> {
    ALL.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// Constant name for a level value (`28` → `"WAL"`).
pub fn name_of(value: u16) -> Option<&'static str> {
    ALL.iter().find(|(_, v)| *v == value).map(|&(n, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_strictly_ascending_and_total() {
        assert!(ALL.windows(2).all(|w| w[0].1 < w[1].1), "levels must ascend");
        assert_eq!(value_of("WAL"), Some(WAL));
        assert_eq!(name_of(STATS), Some("STATS"));
        assert_eq!(value_of("NOPE"), None);
    }
}
