//! Cache space management (Section III.F).
//!
//! Metadata is small, so pressure is rare; the policy is deliberately
//! simple. When region-wide cache usage exceeds the configured threshold,
//! pick one top-level entry under the workspace root — round-robin, so
//! consecutive evictions pick different entries and thrashing is
//! dampened — and evict the *committed* metadata of and under it.
//! Uncommitted or removal-marked records are the only primary copy and
//! are never evicted; neither is a committed record whose inline data
//! still waits in the commit queue: the path's writeback slot in the
//! region's per-path table ([`crate::inflight`]) pins it.
//!
//! # The cursor is a position in key order
//!
//! Round-robin needs no list of the top-level entries. The cursor
//! (`RegionCore::evict_cursor`) is a byte string; a round
//!
//! 1. seeks the first resident key at or after it under `<root>/`
//!    (wrapping to the start of the root once) — the victim is that
//!    key's top-level entry `top`;
//! 2. range-scans `top/` for the subtree, reads the records in one
//!    batched lookup and deletes the evictable ones;
//! 3. moves the cursor past what it visited.
//!
//! So a round costs O(log N + |victim subtree|) whatever the cache holds
//! and however many top-level entries there are (`evict_scanned_keys` /
//! `evict_rounds` in the region counters is the measured scan cost), and
//! the ordered queries it rides are the only thing that ever builds the
//! cache shards' key index (`memkv::shard`).
//!
//! Step 3 is where fairness lives. `top/…` does not sort right behind
//! `top`: `/w/a-b`, `/w/a.bak` (and then `/w/a/x`, then `/w/ab`) sort
//! between them, because `-` and `.` precede `/`. When the key found was
//! the bare record `top`, the cursor therefore moves to `top\0`, the
//! very next position, and those siblings get their turn; only when the
//! next resident key is already inside `top/` — survivors the round had
//! to leave (pinned or uncommitted) and no sibling in between — does it
//! jump to `top0` (`'/' + 1`), past the subtree, so the same victim is
//! not visited again by the next round. When the key found was inside
//! `top/` (the bare record is absent or behind the cursor), the cursor
//! moves to `top0` directly. The cursor only moves forward until it
//! wraps, every resident key is at or after some cursor position of the
//! lap, and each round moves past the key it found: a lap visits every
//! top-level entry, and an entry nothing can be evicted from costs one
//! round, not a stall. Concurrent rounds read and write the cursor
//! without holding it in between — two may pick the same victim, which
//! wastes a scan and harms nothing.

use crate::cache::{CacheError, MetaCache};
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

/// One eviction round: evict the committed records of the top-level
/// entry the cursor points at and move the cursor past it (module docs).
pub fn evict_one_entry(core: &RegionCore, cache: &MetaCache) -> usize {
    // The round's scan cost is the change of the cluster's own exact
    // count (an ordered query racing in from another thread lands in
    // whichever round observes it).
    let scanned_before = core.cache_cluster.stats().scanned_keys;
    let evicted = evict_at_cursor(core, cache);
    let scanned = core.cache_cluster.stats().scanned_keys - scanned_before;
    core.counters.incr("evict_rounds");
    if evicted == 0 {
        core.counters.incr("evict_empty_rounds");
    }
    core.counters.add("evict_scanned_keys", scanned);
    core.counters.add("evicted", evicted as u64);
    evicted
}

fn evict_at_cursor(core: &RegionCore, cache: &MetaCache) -> usize {
    let cluster = &core.cache_cluster;
    // Everything under the root starts with "<root>/" (the region root is
    // never "/"); the root's own record does not, and is never a victim.
    let root_prefix = format!("{}/", core.root).into_bytes();
    let seek =
        |from: &[u8]| cluster.first_key_at_or_after(from).filter(|k| k.starts_with(&root_prefix));
    let cursor = core.evict_cursor.lock().clone();
    let Some(found) = seek(&cursor).or_else(|| seek(&root_prefix)) else {
        return 0;
    };
    let top_len = found[root_prefix.len()..]
        .iter()
        .position(|&b| b == b'/')
        .map_or(found.len(), |i| root_prefix.len() + i);
    let top = &found[..top_len];
    let found_bare = top_len == found.len();
    let subtree = [top, b"/"].concat();

    let mut keys = cluster.keys_with_prefix(&subtree);
    // A key found inside `top/` says nothing about the bare record: it
    // may sit behind the cursor and belongs to the victim all the same.
    if found_bare || cluster.first_key_at_or_after(top).as_deref() == Some(top) {
        keys.insert(0, top.to_vec());
    }
    let paths: Vec<&str> = keys.iter().filter_map(|k| std::str::from_utf8(k).ok()).collect();
    // One batched lookup for the whole subtree instead of a round trip
    // per key. A cache that cannot answer ends the round where it stands:
    // nothing can be judged evictable, and the next write over the
    // threshold tries again.
    let Ok(metas) = cache.multi_get(&paths) else {
        return 0;
    };
    // Only the backup-copy-backed records may go, and of those not the
    // ones with a writeback slot: a committed record whose inline bytes
    // are still queued holds their only copy until `release_writeback`.
    let mut victims: Vec<(&str, u64)> = paths
        .iter()
        .zip(metas)
        .filter_map(|(path, meta)| {
            let (m, version) = meta?;
            (m.committed && !m.removed).then_some((*path, version))
        })
        .collect();
    core.in_flight().drop_pinned(&mut victims);
    let mut evicted = 0;
    for (path, version) in victims {
        // Only the version judged evictable: a write whose CAS landed
        // since the lookup holds bytes the DFS does not have yet.
        match cache.delete(path, Some(version)) {
            Ok(true) => evicted += 1,
            Ok(false) => {}
            Err(CacheError::Unavailable) => break,
        }
    }

    // Past the bare record if that is what was found — unless what
    // follows it is this subtree's survivors — else past the subtree.
    let just_past_top = [top, b"\0"].concat();
    let skip_subtree = !found_bare
        || cluster.first_key_at_or_after(&just_past_top).is_some_and(|k| k.starts_with(&subtree));
    *core.evict_cursor.lock() =
        if skip_subtree { [top, &[b'/' + 1]].concat() } else { just_past_top };
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MetaCache;
    use crate::config::PaconConfig;
    use crate::metadata::CachedMeta;
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

    fn cursor_of(region: &PaconRegion) -> Vec<u8> {
        region.core().evict_cursor.lock().clone()
    }

    /// Plant committed (evictable) or uncommitted (primary-copy) records.
    fn plant(cache: &MetaCache, paths: &[&str], committed: bool) {
        let mut m = CachedMeta::new_file(fsapi::Perm::new(0o644, 1, 1), 1);
        m.committed = committed;
        for path in paths {
            cache.put(path, &m).unwrap();
        }
    }

    fn resident(region: &PaconRegion) -> Vec<String> {
        let keys = region.core().cache_cluster.keys_with_prefix(b"/w/");
        keys.into_iter().map(|k| String::from_utf8(k).unwrap()).collect()
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
        // Way over threshold (the creates ran their own rounds already),
        // but nothing is evictable: every round costs one visit and moves
        // on, so 20 rounds are one lap over 20 distinct entries.
        let cache = cache_of(&region);
        let start = cursor_of(&region);
        let mut visited = std::collections::BTreeSet::new();
        for _ in 0..20 {
            assert_eq!(evict_one_entry(region.core(), &cache), 0);
            visited.insert(cursor_of(&region));
        }
        assert_eq!(visited.len(), 20, "the cursor must advance every round");
        assert_eq!(cursor_of(&region), start, "and come round after a lap");
        assert_eq!(region.core().cache_cluster.len(), 20, "primary copies must survive");
        let counters = &region.core().counters;
        assert_eq!(counters.get("evicted"), 0);
        assert_eq!(counters.get("evict_rounds"), 40);
        assert_eq!(counters.get("evict_empty_rounds"), 40);
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
        assert_eq!(cursor_of(&region), b"/w/f\0", "a pinned victim still costs its visit");
        drain();
        assert_eq!(dfs.client().read("/w/f", &cred, 0, 64).unwrap(), b"payload");
        assert_eq!(region.core().counters.get("writeback_skipped"), 0);
        // Settled: the record is plain committed metadata again.
        assert_eq!(evict_one_entry(region.core(), &cache), 1);
    }

    /// `-` and `.` sort before `/`, so `/w/a-b` and `/w/a.bak` (and, after
    /// the subtree, `/w/ab`) sit between the record `/w/a` and its children
    /// in key order. Each of them is a top-level entry of its own: a lap
    /// makes every entry the victim exactly once, in key order of their
    /// first keys, and evicting `/w/a` takes `/w/a/x` but none of the
    /// look-alikes.
    #[test]
    fn a_lap_visits_every_top_level_entry_once() {
        let (_d, region) = region_with_threshold(Some(1));
        let cache = cache_of(&region);
        let all = ["/w/a", "/w/a-b", "/w/a.bak", "/w/a/x", "/w/ab", "/w/b/y"];
        let lap: [&[&str]; 5] =
            [&["/w/a", "/w/a/x"], &["/w/a-b"], &["/w/a.bak"], &["/w/ab"], &["/w/b/y"]];
        for _ in 0..2 {
            plant(&cache, &all, true);
            assert_eq!(resident(&region), all);
            let mut left: Vec<String> = all.iter().map(|p| p.to_string()).collect();
            for victim in lap {
                assert_eq!(evict_one_entry(region.core(), &cache), victim.len());
                left.retain(|p| !victim.contains(&p.as_str()));
                assert_eq!(resident(&region), left, "after evicting {victim:?}");
            }
            // The next lap starts over at `/w/a`: the cursor wraps.
        }
        assert_eq!(region.core().counters.get("evicted"), 12);
        assert_eq!(region.core().counters.get("evict_rounds"), 10);
        assert_eq!(region.core().counters.get("evict_empty_rounds"), 0);
    }

    /// An entry whose children survive the round (uncommitted) must not be
    /// the next round's victim again — and must not shadow a sibling that
    /// sorts between its record and its children either.
    #[test]
    fn survivors_neither_stall_the_lap_nor_starve_siblings() {
        let (_d, region) = region_with_threshold(Some(1));
        let cache = cache_of(&region);
        plant(&cache, &["/w/a", "/w/b/y", "/w/c", "/w/c-1"], true);
        plant(&cache, &["/w/a/x", "/w/c/z"], false);
        // `/w/a` goes, `/w/a/x` stays and is next in key order: skipped.
        assert_eq!(evict_one_entry(region.core(), &cache), 1);
        assert_eq!(cursor_of(&region), b"/w/a0");
        assert_eq!(evict_one_entry(region.core(), &cache), 1);
        assert_eq!(resident(&region), ["/w/a/x", "/w/c", "/w/c-1", "/w/c/z"]);
        // `/w/c` goes, `/w/c/z` stays, but `/w/c-1` sorts before it and
        // must get its turn: the cursor may not jump the subtree here.
        assert_eq!(evict_one_entry(region.core(), &cache), 1);
        assert_eq!(cursor_of(&region), b"/w/c\0");
        assert_eq!(evict_one_entry(region.core(), &cache), 1);
        assert_eq!(resident(&region), ["/w/a/x", "/w/c/z"]);
        // A record re-cached behind the cursor still belongs to its entry:
        // the round finds `/w/c/z` and evicts `/w/c`.
        plant(&cache, &["/w/c"], true);
        assert_eq!(evict_one_entry(region.core(), &cache), 1);
        assert_eq!(cursor_of(&region), b"/w/c0");
        // Only survivors left: one empty round each, no 2-cycle.
        assert_eq!(evict_one_entry(region.core(), &cache), 0);
        assert_eq!(cursor_of(&region), b"/w/a0");
        assert_eq!(evict_one_entry(region.core(), &cache), 0);
        assert_eq!(cursor_of(&region), b"/w/c0");
        assert_eq!(resident(&region), ["/w/a/x", "/w/c/z"]);
        assert_eq!(region.core().counters.get("evict_empty_rounds"), 2);
    }

    /// A flat workspace is the worst case of the old policy (every key its
    /// own top-level entry). A round evicts one file and its ordered
    /// queries yield a constant number of keys, whatever the cache holds.
    #[test]
    fn round_cost_is_independent_of_cache_size() {
        let scanned_per_round = |files: usize| {
            let (_d, region) = region_with_threshold(Some(1));
            let cache = cache_of(&region);
            let paths: Vec<String> = (0..files).map(|i| format!("/w/f{i:05}")).collect();
            plant(&cache, &paths.iter().map(String::as_str).collect::<Vec<_>>(), true);
            let cluster = &region.core().cache_cluster;
            evict_one_entry(region.core(), &cache); // builds the index, seeks from ""
            let before = cluster.stats().scanned_keys;
            for round in 1..=100 {
                assert_eq!(evict_one_entry(region.core(), &cache), 1);
                assert_eq!(cluster.len(), files - 1 - round);
            }
            let scanned = cluster.stats().scanned_keys - before;
            assert_eq!(region.core().counters.get("evict_scanned_keys"), before + scanned);
            scanned
        };
        // Per round: the key found, and the key after it (no subtree).
        assert_eq!(scanned_per_round(2_000), 200);
        assert_eq!(scanned_per_round(20_000), 200);
    }
}
