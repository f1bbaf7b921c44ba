//! Cache space management (Section III.F).
//!
//! Metadata is small, so pressure is rare; the policy is deliberately
//! simple. When region-wide cache usage exceeds the configured threshold,
//! pick one top-level entry under the workspace root — round-robin, so
//! consecutive evictions pick different entries and thrashing is
//! dampened — and evict the *committed* metadata of and under it.
//! Uncommitted or removal-marked records are the only primary copy and
//! are never evicted; neither is a committed record whose inline data
//! still waits in the commit queue. That pin is the record's writeback
//! slot (`RegionCore::pending_writebacks`), whose whole life cycle —
//! [`queue_writeback`], [`claim_writeback`], [`release_writeback`] —
//! lives here next to the eviction check that reads it.

use std::sync::atomic::Ordering;

use fsapi::path as fspath;

use crate::cache::{CacheError, MetaCache};
use crate::metadata::CachedMeta;
use crate::region::RegionCore;

/// Check the threshold and evict one round-robin-selected top-level entry
/// if usage is above it. Returns the number of evicted records.
pub fn maybe_evict(core: &RegionCore, cache: &MetaCache) -> usize {
    let Some(threshold) = core.config.eviction_threshold else {
        return 0;
    };
    if core.cache_cluster.used_bytes() <= threshold {
        return 0;
    }
    evict_one_entry(core, cache)
}

/// Evict the committed records under the next round-robin top-level entry.
pub fn evict_one_entry(core: &RegionCore, cache: &MetaCache) -> usize {
    let tops = top_level_entries(core);
    if tops.is_empty() {
        return 0;
    }
    let idx = core.evict_cursor.fetch_add(1, Ordering::Relaxed) % tops.len();
    let victim = &tops[idx];
    let keys = core.cache_cluster.keys_with_prefix(victim.as_bytes());
    let paths: Vec<&str> = keys
        .iter()
        .filter_map(|k| std::str::from_utf8(k).ok())
        .filter(|p| fspath::is_same_or_ancestor(victim, p))
        .collect();
    // One batched lookup for the whole subtree instead of a round trip
    // per key; only the backup-copy-backed, not-pending entries may go.
    // A cache that cannot answer ends the round: nothing can be judged
    // evictable, and the next write over the threshold tries again.
    let Ok(metas) = cache.multi_get(&paths) else {
        return 0;
    };
    let mut evicted = 0;
    for (path, meta) in paths.iter().zip(metas) {
        // A committed record with a writeback slot holds the only copy of
        // its inline bytes: pinned until `release_writeback`.
        let evictable = meta.is_some_and(|(m, _)| m.committed && !m.removed)
            && !core.pending_writebacks.lock().contains_key(*path);
        if !evictable {
            continue;
        }
        match cache.delete(path) {
            Ok(true) => evicted += 1,
            Ok(false) => {}
            Err(CacheError::Unavailable) => break,
        }
    }
    core.counters.add("evicted", evicted as u64);
    evicted
}

/// An inline write to `path` landed in the cache: take its writeback
/// slot. True when the caller must publish a `WriteInline` — no
/// writeback is queued, or the queued one is already in flight and may
/// have read the older record.
pub(crate) fn queue_writeback(core: &RegionCore, path: &str) -> bool {
    core.pending_writebacks.lock().insert(path.to_string(), false) != Some(false)
}

/// The commit side of a queued inline writeback: read `path`'s record for
/// it. The slot flips to in-flight first, so a write that lands after
/// this read queues a fresh writeback instead of being silently absorbed,
/// and stays in place — still pinning the record against eviction —
/// until [`release_writeback`] once the writeback has settled.
pub(crate) fn claim_writeback(
    core: &RegionCore,
    cache: &MetaCache,
    path: &str,
) -> Result<Option<(CachedMeta, u64)>, CacheError> {
    {
        let mut pending = core.pending_writebacks.lock();
        if let Some(in_flight) = pending.get_mut(path) {
            *in_flight = true;
        }
    }
    cache.get(path)
}

/// The writeback claimed for `path` settled (applied, skipped or
/// dropped — not merely sent back to the retry backlog): unpin the
/// record, unless a write re-queued in the meantime and owns the slot.
pub(crate) fn release_writeback(core: &RegionCore, path: &str) {
    let mut pending = core.pending_writebacks.lock();
    if pending.get(path) == Some(&true) {
        pending.remove(path);
    }
}

/// Distinct first-level entries under the region root that currently have
/// cached records.
fn top_level_entries(core: &RegionCore) -> Vec<String> {
    let root_prefix = if core.root == "/" {
        "/".to_string()
    } else {
        format!("{}/", core.root)
    };
    let mut tops: Vec<String> = Vec::new();
    for key in core.cache_cluster.keys_with_prefix(root_prefix.as_bytes()) {
        let Ok(path) = std::str::from_utf8(&key) else { continue };
        let rest = &path[root_prefix.len()..];
        let first = rest.split('/').next().unwrap_or("");
        if first.is_empty() {
            continue;
        }
        let top = format!("{root_prefix}{first}");
        if tops.last().map(|t| *t != top).unwrap_or(true) && !tops.contains(&top) {
            tops.push(top);
        }
    }
    tops.sort();
    tops.dedup();
    tops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MetaCache;
    use crate::config::PaconConfig;
    use crate::region::PaconRegion;
    use fsapi::{Credentials, FileSystem};
    use simnet::{ClientId, LatencyProfile, Topology};
    use std::sync::Arc;

    fn region_with_threshold(t: Option<usize>) -> (Arc<dfs::DfsCluster>, Arc<PaconRegion>) {
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let mut cfg = PaconConfig::new("/w", Topology::new(1, 1), cred);
        cfg.eviction_threshold = t;
        (Arc::clone(&dfs), PaconRegion::launch_paused(cfg, &dfs).unwrap())
    }

    fn cache_of(region: &PaconRegion) -> MetaCache {
        MetaCache::new(region.core().cache_cluster.client(simnet::NodeId(0)))
    }

    #[test]
    fn no_threshold_means_no_eviction() {
        let (_d, region) = region_with_threshold(None);
        let cred = Credentials::new(1, 1);
        let c = region.client(ClientId(0));
        for i in 0..50 {
            c.create(&format!("/w/f{i:02}"), &cred, 0o644).unwrap();
        }
        assert_eq!(maybe_evict(region.core(), &cache_of(&region)), 0);
        assert_eq!(region.core().cache_cluster.len(), 50);
    }

    #[test]
    fn uncommitted_entries_are_never_evicted() {
        let (_d, region) = region_with_threshold(Some(1));
        let cred = Credentials::new(1, 1);
        let c = region.client(ClientId(0));
        // Workers never run (paused region): everything stays uncommitted.
        for i in 0..20 {
            c.create(&format!("/w/f{i:02}"), &cred, 0o644).unwrap();
        }
        // Way over threshold, but nothing is evictable.
        for _ in 0..30 {
            evict_one_entry(region.core(), &cache_of(&region));
        }
        assert_eq!(region.core().cache_cluster.len(), 20, "primary copies must survive");
        assert_eq!(region.core().counters.get("evicted"), 0);
    }

    /// Regression: an acknowledged inline write on a committed file lives
    /// only in the cache until its queued writeback runs; evicting the
    /// record first made the worker skip the writeback and the bytes
    /// never reached the DFS.
    #[test]
    fn queued_inline_writeback_pins_its_record() {
        let (dfs, region) = region_with_threshold(Some(1));
        let cred = Credentials::new(1, 1);
        let c = region.client(ClientId(0));
        let mut w = region.take_worker(0);
        let mut drain = || {
            for _ in 0..1000 {
                if region.core().drained() {
                    return;
                }
                w.step();
            }
            panic!("commit pipeline did not converge");
        };
        c.create("/w/f", &cred, 0o644).unwrap();
        drain(); // the record is now committed, hence evictable
        // Over the threshold: the write itself triggers an eviction round
        // after it has queued its writeback; force a few more.
        c.write("/w/f", &cred, 0, b"payload").unwrap();
        let cache = cache_of(&region);
        for _ in 0..3 {
            evict_one_entry(region.core(), &cache);
        }
        assert!(cache.get("/w/f").unwrap().is_some(), "pinned while the writeback is queued");
        drain();
        assert_eq!(dfs.client().read("/w/f", &cred, 0, 64).unwrap(), b"payload");
        assert_eq!(region.core().counters.get("writeback_skipped"), 0);
        // Settled: the record is plain committed metadata again.
        assert_eq!(evict_one_entry(region.core(), &cache), 1);
    }

    #[test]
    fn round_robin_rotates_victims() {
        let (_d, region) = region_with_threshold(Some(1));
        let cred = Credentials::new(1, 1);
        let cache = cache_of(&region);
        // Three committed top-level subtrees, planted directly.
        for d in 0..3 {
            for i in 0..4 {
                let mut m = crate::metadata::CachedMeta::new_file(
                    fsapi::Perm::new(0o644, 1, 1),
                    1,
                );
                m.committed = true;
                cache.put(&format!("/w/d{d}/f{i}"), &m).unwrap();
            }
        }
        assert_eq!(region.core().cache_cluster.len(), 12);
        // Each eviction round removes exactly one subtree, rotating.
        let e1 = evict_one_entry(region.core(), &cache);
        assert_eq!(e1, 4);
        assert_eq!(region.core().cache_cluster.len(), 8);
        let e2 = evict_one_entry(region.core(), &cache);
        assert_eq!(e2, 4);
        let e3 = evict_one_entry(region.core(), &cache);
        assert_eq!(e3, 4);
        assert_eq!(region.core().cache_cluster.len(), 0);
        assert_eq!(region.core().counters.get("evicted"), 12);
        let _ = cred;
    }

    #[test]
    fn sibling_prefixes_are_not_confused() {
        let (_d, region) = region_with_threshold(Some(1));
        let cache = cache_of(&region);
        let mut m = crate::metadata::CachedMeta::new_file(fsapi::Perm::new(0o644, 1, 1), 1);
        m.committed = true;
        cache.put("/w/a", &m).unwrap();
        cache.put("/w/ab", &m).unwrap(); // shares the byte prefix of "/w/a"
        let tops = super::top_level_entries(region.core());
        assert_eq!(tops, vec!["/w/a".to_string(), "/w/ab".to_string()]);
        // Evicting "/w/a" must not take "/w/ab" with it.
        region.core().evict_cursor.store(0, std::sync::atomic::Ordering::Relaxed);
        let n = evict_one_entry(region.core(), &cache);
        assert_eq!(n, 1);
        assert!(cache.get("/w/ab").unwrap().is_some());
    }
}
