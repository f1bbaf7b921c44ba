//! The distributed metadata cache facade.
//!
//! Thin layer over a [`memkv::KvClient`]: full paths as keys,
//! [`CachedMeta`] records as values, and the lock-free CAS-retry update
//! loop of Section III.D-3 ("when multiple write operations conflict ...
//! Pacon will re-execute it until the update is successful").
//!
//! One surface, fallible throughout: a cache RPC can land on a crashed
//! shard or race a ring-membership change at any time, so every method
//! returns [`CacheError`] through the [`MetaCache::guarded`] envelope and
//! the caller states what `Unavailable` means for it (fall back to the
//! DFS copy, skip a best-effort cleanup, take the degraded write path).
//! On a [`MetaCache`] built with [`MetaCache::with_faults`] the envelope
//! retries: bounded attempts with deterministic jittered exponential
//! backoff (virtual-clock sleeps, see [`RetryPolicy`]), and on exhaustion
//! the *region* enters degraded mode — subsequent calls fail fast, gated
//! by a rate-limited recovery probe ([`crate::degraded`]). A bare handle
//! ([`MetaCache::new`]) makes exactly one attempt.

use std::collections::HashMap;
use std::sync::Arc;

use fsapi::{FsError, FsResult};
use memkv::{CasOutcome, CondOutcome, KvClient, KvError};

use crate::degraded::Mode;
use crate::metadata::CachedMeta;
use crate::region::RegionCore;
use crate::retry::{splitmix64, RetryPolicy};

/// Give up a CAS loop after this many conflicts; reaching it means a
/// livelock-grade pathology rather than normal contention.
const MAX_CAS_ATTEMPTS: u32 = 1_000;

/// A cache RPC gave up: the owning node stayed down through
/// the whole retry budget (or the region is degraded and the probe is
/// not due). The caller falls back to the DFS backup copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    Unavailable,
}

/// A record as its shard held it: the CAS version it was stored (or read)
/// at, and the ring epoch observed *before* that store or read. This is
/// what [`MetaCache::update`] returns and what it can start from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Held {
    pub meta: CachedMeta,
    pub version: u64,
    pub epoch: u64,
}

/// Per path, its record and CAS version (`None`: a miss).
type Records = Vec<Option<(CachedMeta, u64)>>;

/// Per-client handle onto the region's distributed metadata cache.
#[derive(Clone)]
pub struct MetaCache {
    kv: KvClient,
    /// Fault plane: retry policy, degraded-mode state, counters and the
    /// virtual clock all live on the region core. `None` = bare cache
    /// (workers, merged regions, unit tests): every RPC makes exactly one
    /// attempt and never retries or trips degraded mode.
    fault: Option<Arc<RegionCore>>,
}

impl MetaCache {
    pub fn new(kv: KvClient) -> Self {
        Self { kv, fault: None }
    }

    /// Fault-aware handle: RPCs retry with backoff against `core`'s
    /// policy and drive its degraded-mode state machine.
    pub fn with_faults(kv: KvClient, core: Arc<RegionCore>) -> Self {
        Self { kv, fault: Some(core) }
    }

    /// Run one cache RPC under the fault guard. Healthy path: attempt,
    /// and on `NodeDown` sleep (virtual clock) and retry until the
    /// policy's budget/deadline runs out, then flip the region to
    /// Degraded. Degraded path: fail fast unless the recovery probe is
    /// due; a successful probe starts Rewarming.
    fn guarded<T>(&self, f: impl Fn(&KvClient) -> Result<T, KvError>) -> Result<T, CacheError> {
        self.guarded_whole(f, |_| true)
    }

    /// [`Self::guarded`] for a request several nodes answer in parts: a
    /// recovery probe succeeds only if `whole` says every node answered.
    /// A partial answer is returned as it is and starts no rewarming — the
    /// salvage of its missing part would retry a node still down and
    /// enter degraded mode again.
    fn guarded_whole<T>(
        &self,
        f: impl Fn(&KvClient) -> Result<T, KvError>,
        whole: impl Fn(&T) -> bool,
    ) -> Result<T, CacheError> {
        let Some(core) = &self.fault else {
            return f(&self.kv).map_err(|_| CacheError::Unavailable);
        };
        let policy = RetryPolicy::DEFAULT;
        let probe_interval = policy.deadline_ns;
        if core.degraded.mode() == Mode::Degraded {
            if !core.degraded.probe_due(core.sim_ns(), probe_interval) {
                return Err(CacheError::Unavailable);
            }
            core.counters.incr("recovery_probes");
            return match f(&self.kv) {
                Ok(v) if !whole(&v) => Ok(v),
                Ok(v) => {
                    core.degraded.begin_rewarm();
                    core.degraded.note_success(core.sim_ns());
                    Ok(v)
                }
                // NodeDown: still dark. WrongEpoch: the cluster answered
                // but this probe's routing view is stale — let the next
                // probe run with a refreshed epoch rather than declaring
                // recovery on a fenced-off write.
                Err(KvError::NodeDown(_) | KvError::WrongEpoch { .. }) => {
                    Err(CacheError::Unavailable)
                }
            };
        }
        // Deterministic per-call jitter seed: the logical clock tick is
        // unique per call and reproducible under deterministic driving.
        let seed = splitmix64(core.now());
        let mut slept = 0u64;
        let mut attempt = 0u32;
        loop {
            match f(&self.kv) {
                Ok(v) => {
                    if core.degraded.note_success(core.sim_ns()) {
                        core.counters.incr("degraded_recoveries");
                    }
                    return Ok(v);
                }
                Err(e) => {
                    match policy.next_backoff(attempt, slept, seed) {
                        Some(delay) => {
                            match e {
                                KvError::NodeDown(_) => core.counters.incr("rpc_retries"),
                                // A fenced write raced a membership
                                // change; the re-run closure reads a
                                // fresh epoch. Cannot repeat without
                                // another reshard, but it shares the
                                // backoff budget as a churn bound.
                                KvError::WrongEpoch { .. } => {
                                    core.counters.incr("wrong_epoch_retries")
                                }
                            }
                            slept += delay;
                            core.advance(delay);
                            attempt += 1;
                        }
                        None => {
                            core.degraded.enter_degraded(core.sim_ns(), probe_interval);
                            core.counters.incr("degraded_entered");
                            return Err(CacheError::Unavailable);
                        }
                    }
                }
            }
        }
    }

    /// Fetch a record and its CAS version: the one-path request, a
    /// single-key `gets` whose down owner is retried inside the guard.
    pub fn get(&self, path: &str) -> Result<Option<(CachedMeta, u64)>, CacheError> {
        let raw = self.guarded(|kv: &KvClient| kv.get(path.as_bytes()))?;
        Ok(self.decode(path, raw))
    }

    /// What a read returned for `path`, decoded: a miss for an
    /// undecodable record, and for one that survived a degraded-mode
    /// unlink ([`Self::purge_if_stale`]).
    fn decode(&self, path: &str, raw: Option<(memkv::Value, u64)>) -> Option<(CachedMeta, u64)> {
        let hit = raw.and_then(|(bytes, ver)| CachedMeta::decode(&bytes).map(|m| (m, ver)));
        if hit.is_some() && self.purge_if_stale(path) {
            return None;
        }
        hit
    }

    /// Lazy cleanup behind a degraded-mode unlink: the removal committed
    /// against the backup while this record's shard was unreachable, so a
    /// record that survived the outage describes a dead incarnation.
    /// Delete it and report the hit as a miss. Returns true when the hit
    /// must be suppressed.
    fn purge_if_stale(&self, path: &str) -> bool {
        let Some(core) = &self.fault else {
            return false;
        };
        if !core.in_flight().is_stale(path) {
            return false;
        }
        if self.delete(path, None).is_ok() {
            core.in_flight().clear_stale(path);
        }
        true
    }

    /// Batched fetch: one multi-get against the KV cluster — one round
    /// trip per shard node instead of one per path. Results are in input
    /// order, with the node requests the multi-get sent; a missing (or
    /// undecodable) record yields `None`.
    ///
    /// A path named more than once is fetched once: the request carries
    /// each distinct key once, in first-seen order, so an owning node is
    /// charged for the distinct keys and hits only. Decode, stale check and
    /// salvage below also run once per distinct path, and every position
    /// naming the path gets that outcome. The stale check must: it deletes
    /// the record and clears the mark, so a second check of the same path
    /// would pass and hand back the dead record already fetched.
    ///
    /// Fault-isolated per node group: a node crashing mid-batch does not
    /// discard the results already fetched from healthy groups
    /// (`memkv::PartialMultiGet`). Keys owned by a down node are salvaged
    /// through the one-path request ([`Self::get`]); keys that stay
    /// unreachable are reported as misses — the caller's per-path DFS
    /// fallback *is* the degraded read, counted here.
    pub fn multi_get(&self, paths: &[&str]) -> Result<(Records, usize), CacheError> {
        // `slot[i]`: the index of `paths[i]` among the distinct paths.
        let mut first: HashMap<&str, usize> = HashMap::with_capacity(paths.len());
        let mut distinct: Vec<&str> = Vec::with_capacity(paths.len());
        let slot: Vec<usize> = paths
            .iter()
            .map(|&p| {
                *first.entry(p).or_insert_with(|| {
                    distinct.push(p);
                    distinct.len() - 1
                })
            })
            .collect();
        let keys: Vec<&[u8]> = distinct.iter().map(|p| p.as_bytes()).collect();
        let partial = self.guarded_whole(
            |kv: &KvClient| Ok(kv.multi_gets(&keys)),
            |p: &memkv::PartialMultiGet| p.failed.is_empty(),
        )?;
        let mut hits: Vec<_> =
            partial.results.into_iter().zip(&distinct).map(|(r, p)| self.decode(p, r)).collect();
        for &i in partial.failed.iter().flat_map(|(_, idxs)| idxs) {
            hits[i] = self.get(distinct[i]).unwrap_or_else(|CacheError::Unavailable| {
                if let Some(core) = &self.fault {
                    core.counters.incr("degraded_reads");
                }
                None
            });
        }
        if hits.len() == paths.len() {
            return Ok((hits, partial.requests)); // no path repeated: `slot` is the identity
        }
        Ok((slot.into_iter().map(|d| hits[d].clone()).collect(), partial.requests))
    }

    /// Unconditional store (used when loading DFS entries into the cache;
    /// last writer wins is fine because both writers hold the same
    /// DFS-derived truth).
    pub fn put(&self, path: &str, meta: &CachedMeta) -> Result<u64, CacheError> {
        let bytes = meta.encode();
        let ver = self.guarded(|kv: &KvClient| kv.set(path.as_bytes(), &bytes))?;
        // A fresh authoritative record supersedes any stale survivor.
        if let Some(core) = &self.fault {
            core.in_flight().clear_stale(path);
        }
        Ok(ver)
    }

    /// Insert a brand-new record. Outer error = cache unreachable; inner
    /// error = the path is already cached.
    pub fn add_new(&self, path: &str, meta: &CachedMeta) -> Result<FsResult<u64>, CacheError> {
        let bytes = meta.encode();
        let added = self.guarded(|kv: &KvClient| kv.add(path.as_bytes(), &bytes))?;
        if added.is_some() {
            if let Some(core) = &self.fault {
                core.in_flight().clear_stale(path);
            }
        }
        Ok(added.ok_or(FsError::AlreadyExists))
    }

    /// The one read-modify-write primitive: the CAS-retry loop, every get
    /// and CAS individually guarded. `f` is re-run on every conflict
    /// against the freshest record; returning `Err` aborts. Outer error =
    /// cache unreachable mid-loop; inner = the caller's abort, or the
    /// record as the cache now holds it (`None` if the path is not cached).
    ///
    /// `start` is a record the caller already holds ([`Held`]): the first
    /// attempt then skips the `gets` and goes straight to the CAS, whose
    /// version check and epoch fence are the only things that validate a
    /// held copy. Nothing else is concluded from it — if `f` aborts on it
    /// or leaves it unchanged there is no CAS to validate it, so the loop
    /// re-reads and asks `f` again. A stale copy therefore costs one
    /// rejected CAS and then the ordinary `gets` + `cas`.
    ///
    /// An update that leaves a *read* record unchanged returns it without
    /// a CAS: an identical store buys nothing and bumps the version under
    /// every other holder.
    pub fn update<E>(
        &self,
        path: &str,
        mut start: Option<Held>,
        mut f: impl FnMut(&mut CachedMeta) -> Result<(), E>,
    ) -> Result<Result<Option<Held>, E>, CacheError> {
        for _ in 0..MAX_CAS_ATTEMPTS {
            let (mut cur, read) = match start.take() {
                Some(held) => (held, false),
                None => {
                    // Epoch before the get: the fence below is then
                    // conservative — any membership change since this read
                    // (a reshard could have moved the key mid-loop) rejects
                    // the CAS, never the reverse.
                    let epoch = self.kv.cluster().ring_epoch();
                    let Some((meta, version)) = self.get(path)? else {
                        return Ok(Ok(None));
                    };
                    (Held { meta, version, epoch }, true)
                }
            };
            let before = cur.meta.clone();
            let verdict = f(&mut cur.meta);
            let unchanged = cur.meta == before;
            if !read && (verdict.is_err() || unchanged) {
                continue;
            }
            if let Err(e) = verdict {
                return Ok(Err(e));
            }
            if unchanged {
                return Ok(Ok(Some(cur)));
            }
            let bytes = cur.meta.encode();
            let outcome = self.guarded(|kv: &KvClient| {
                match kv.cas(path.as_bytes(), cur.version, &bytes, cur.epoch) {
                    // Stale routing view: surface as a version conflict so
                    // this loop re-reads value, version *and* epoch.
                    // (Retrying inside `guarded` would re-send the same
                    // stale epoch forever.)
                    Err(KvError::WrongEpoch { .. }) => {
                        if let Some(core) = &self.fault {
                            core.counters.incr("wrong_epoch_retries");
                        }
                        Ok(CasOutcome::Conflict { current_version: cur.version })
                    }
                    other => other,
                }
            })?;
            match outcome {
                CasOutcome::Stored { new_version } => {
                    cur.version = new_version;
                    return Ok(Ok(Some(cur)));
                }
                CasOutcome::Conflict { .. } => continue,
                CasOutcome::NotFound => return Ok(Ok(None)),
            }
        }
        panic!("cache CAS loop exceeded {MAX_CAS_ATTEMPTS} attempts on {path}");
    }

    /// Batched conditional store: per item, `Some(meta)` CASes the record
    /// over the version a read returned, `None` deletes exactly that
    /// version — one request per shard node (`memkv::KvClient::multi_write`),
    /// fenced by the ring `epoch` read before those reads. Per item, in
    /// input order: whether the batch *settled* it — stored, deleted, or
    /// found the record gone (what a per-key update or versioned delete
    /// would then also conclude). An unsettled item (another version is
    /// there, the fence fired, its node is unreachable) is the caller's to
    /// redo on the per-key path.
    pub fn multi_write(
        &self,
        items: &[(&str, u64, Option<&CachedMeta>)],
        epoch: u64,
    ) -> Result<Vec<bool>, CacheError> {
        let values: Vec<Option<Vec<u8>>> =
            items.iter().map(|(_, _, meta)| meta.map(CachedMeta::encode)).collect();
        let writes: Vec<memkv::CondWrite<'_>> = items
            .iter()
            .zip(&values)
            .map(|(&(path, version, _), value)| memkv::CondWrite {
                key: path.as_bytes(),
                version,
                value: value.as_deref(),
            })
            .collect();
        // A fenced batch settles nothing: the caller's per-key retries
        // read a fresh epoch. (Retrying inside `guarded` would re-send
        // the same stale one.)
        let written = self.guarded_whole(
            |kv: &KvClient| match kv.multi_write(&writes, epoch) {
                Err(KvError::WrongEpoch { .. }) => Ok(None),
                other => other.map(Some),
            },
            |w: &Option<memkv::PartialMultiWrite>| w.as_ref().is_some_and(|p| p.failed.is_empty()),
        )?;
        let Some(written) = written else {
            return Ok(vec![false; items.len()]);
        };
        Ok(written
            .results
            .into_iter()
            .map(|r| {
                matches!(
                    r,
                    Some(CondOutcome::Stored { .. } | CondOutcome::Deleted | CondOutcome::NotFound)
                )
            })
            .collect())
    }

    /// Delete a record; true if one was removed. A cleanup that judged
    /// the record it *read* passes that read's version as `expected`: the
    /// delete then removes exactly that record and nothing stored since (a
    /// re-create, a write) — `false`, as for a record already gone.
    pub fn delete(&self, path: &str, expected: Option<u64>) -> Result<bool, CacheError> {
        self.guarded(|kv: &KvClient| kv.delete(path.as_bytes(), expected))
    }

    /// The underlying KV client (for cost-sensitive callers that need the
    /// cluster, e.g. eviction).
    pub fn kv(&self) -> &KvClient {
        &self.kv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsapi::Perm;
    use memkv::KvCluster;
    use simnet::{LatencyProfile, NodeId, Topology};
    use std::sync::Arc;

    fn cache() -> MetaCache {
        let cluster = KvCluster::new(Topology::new(2, 1), Arc::new(LatencyProfile::zero()));
        MetaCache::new(cluster.client(NodeId(0)))
    }

    fn meta() -> CachedMeta {
        CachedMeta::new_file(Perm::new(0o644, 1, 1), 1)
    }

    #[test]
    fn add_then_get_then_duplicate_fails() {
        let c = cache();
        c.add_new("/w/f", &meta()).unwrap().unwrap();
        let (m, _) = c.get("/w/f").unwrap().unwrap();
        assert_eq!(m, meta());
        assert_eq!(c.add_new("/w/f", &meta()), Ok(Err(FsError::AlreadyExists)));
    }

    #[test]
    fn multi_get_matches_sequential_gets() {
        let c = cache();
        c.add_new("/w/a", &meta()).unwrap().unwrap();
        c.add_new("/w/b", &meta()).unwrap().unwrap();
        let paths = ["/w/a", "/w/missing", "/w/b"];
        let (batched, _) = c.multi_get(&paths).unwrap();
        for (p, got) in paths.iter().zip(&batched) {
            assert_eq!(got, &c.get(p).unwrap());
        }
        assert!(batched[1].is_none());
    }

    #[test]
    fn update_applies_and_returns_final() {
        let c = cache();
        c.add_new("/w/f", &meta()).unwrap().unwrap();
        let out = c
            .update::<()>("/w/f", None, |m| {
                m.size = 77;
                m.committed = true;
                Ok(())
            })
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(out.meta.size, 77);
        let (m, version) = c.get("/w/f").unwrap().unwrap();
        assert!(m.committed);
        assert_eq!(out.version, version, "update reports the version it stored");
    }

    #[test]
    fn update_missing_returns_none() {
        let c = cache();
        assert_eq!(c.update::<()>("/nope", None, |_| Ok(())), Ok(Ok(None)));
    }

    #[test]
    fn update_error_aborts() {
        let c = cache();
        c.add_new("/w/f", &meta()).unwrap().unwrap();
        assert_eq!(c.update("/w/f", None, |_| Err("nope")), Ok(Err("nope")));
        let (m, _) = c.get("/w/f").unwrap().unwrap();
        assert_eq!(m.size, 0, "aborted update must not mutate");
    }

    #[test]
    fn unchanged_update_does_not_cas() {
        let c = cache();
        c.add_new("/w/f", &meta()).unwrap().unwrap();
        let (_, version) = c.get("/w/f").unwrap().unwrap();
        let before = c.kv().cluster().stats();
        let out = c.update::<()>("/w/f", None, |_| Ok(())).unwrap().unwrap().unwrap();
        let after = c.kv().cluster().stats();
        assert_eq!((after.gets - before.gets, after.cas_ok - before.cas_ok), (1, 0));
        assert_eq!(out.version, version, "nothing stored, so the version stands");
    }

    #[test]
    fn held_start_goes_straight_to_the_cas() {
        let c = cache();
        let epoch = c.kv().cluster().ring_epoch();
        let version = c.add_new("/w/f", &meta()).unwrap().unwrap();
        let before = c.kv().cluster().stats();
        let held = Held { meta: meta(), version, epoch };
        let out = c
            .update::<()>("/w/f", Some(held), |m| {
                m.size += 1;
                Ok(())
            })
            .unwrap()
            .unwrap()
            .unwrap();
        let after = c.kv().cluster().stats();
        assert_eq!((after.gets - before.gets, after.cas_ok - before.cas_ok), (0, 1));
        assert_eq!(c.get("/w/f").unwrap().unwrap(), (out.meta.clone(), out.version));
        assert_eq!(out.meta.size, 1);
    }

    #[test]
    fn stale_held_start_falls_back_to_the_read_loop() {
        let c = cache();
        let epoch = c.kv().cluster().ring_epoch();
        let version = c.add_new("/w/f", &meta()).unwrap().unwrap();
        // Somebody else moves the record on: the held copy is now stale in
        // both content and version.
        c.update::<()>("/w/f", None, |m| {
            m.committed = true;
            Ok(())
        })
        .unwrap()
        .unwrap();
        let before = c.kv().cluster().stats();
        let held = Held { meta: meta(), version, epoch };
        let out = c
            .update::<()>("/w/f", Some(held), |m| {
                m.size = 9;
                Ok(())
            })
            .unwrap()
            .unwrap()
            .unwrap();
        let after = c.kv().cluster().stats();
        assert_eq!(
            (
                after.cas_conflicts - before.cas_conflicts,
                after.gets - before.gets,
                after.cas_ok - before.cas_ok
            ),
            (1, 1, 1)
        );
        assert!(out.meta.committed, "the stale copy's content never landed");
        assert_eq!(out.meta.size, 9);
    }

    /// A held copy is only ever trusted through a CAS. When the closure
    /// aborts on it, or has nothing to change, there is no CAS — so the
    /// verdict must come from a fresh read instead.
    #[test]
    fn held_start_is_never_trusted_without_a_cas() {
        let c = cache();
        let epoch = c.kv().cluster().ring_epoch();
        let version = c.add_new("/w/f", &meta()).unwrap().unwrap();
        c.update::<()>("/w/f", None, |m| {
            m.removed = true;
            Ok(())
        })
        .unwrap()
        .unwrap();
        let held = || Some(Held { meta: meta(), version, epoch });
        // Unchanged on the held copy: the answer is the fresh record.
        let seen = c.update::<()>("/w/f", held(), |_| Ok(())).unwrap().unwrap().unwrap();
        assert!(seen.meta.removed);
        // Abort decided on the held copy: re-decided on the fresh one.
        let mut calls = 0;
        let verdict = c.update("/w/f", held(), |m| {
            calls += 1;
            if m.removed {
                Err("removed")
            } else {
                Err("live")
            }
        });
        assert_eq!((verdict, calls), (Ok(Err("removed")), 2));
    }

    /// Regression (acked update lost): the post-unlink cleanup reads a
    /// record, sees `removed`, then deletes. A re-create that lands between
    /// the two — here as the CAS that replaces the version read — must
    /// survive: the delete carries the version it judged.
    #[test]
    fn delete_carrying_a_replaced_version_removes_nothing() {
        let c = cache();
        c.add_new("/w/f", &meta()).unwrap().unwrap();
        let (_, read) = c.get("/w/f").unwrap().unwrap();
        let stored = c
            .update::<()>("/w/f", None, |m| {
                m.size = 5;
                Ok(())
            })
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(c.delete("/w/f", Some(read)), Ok(false));
        assert_eq!(c.get("/w/f").unwrap(), Some((stored.meta, stored.version)));
        assert_eq!(c.delete("/w/f", Some(stored.version)), Ok(true));
        assert_eq!(c.get("/w/f").unwrap(), None);
    }

    #[test]
    fn concurrent_updates_all_land() {
        let cluster = KvCluster::new(Topology::new(1, 4), Arc::new(LatencyProfile::zero()));
        let c0 = MetaCache::new(cluster.client(NodeId(0)));
        c0.add_new("/ctr", &meta()).unwrap().unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = MetaCache::new(cluster.client(NodeId(0)));
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    c.update::<()>("/ctr", None, |m| {
                        m.size += 1;
                        Ok(())
                    })
                    .unwrap()
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c0.get("/ctr").unwrap().unwrap().0.size, 800);
    }

    /// A fault-aware cache over a real region core (paused — no worker
    /// threads, deterministic single-threaded driving).
    fn faulted() -> (Arc<crate::region::RegionCore>, MetaCache) {
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let region = crate::PaconRegion::launch_paused(
            crate::PaconConfig::new("/w", Topology::new(2, 1), fsapi::Credentials::new(1, 1)),
            &dfs,
        )
        .unwrap();
        let core = Arc::clone(region.core());
        let cache =
            MetaCache::with_faults(core.cache_cluster.client(NodeId(0)), Arc::clone(&core));
        (core, cache)
    }

    #[test]
    fn guarded_rpc_retries_then_degrades_probes_and_rewarms() {
        let (core, c) = faulted();
        c.add_new("/w/f", &meta()).unwrap().unwrap();
        let victim = core.cache_cluster.shard_node(b"/w/f");
        core.cache_cluster.crash(victim);

        // Healthy → bounded retries with backoff → Degraded.
        assert_eq!(c.get("/w/f"), Err(CacheError::Unavailable));
        let policy = RetryPolicy::DEFAULT;
        assert_eq!(core.counters.get("rpc_retries") as u32, policy.budget);
        assert_eq!(core.degraded.mode(), Mode::Degraded);
        assert!(core.sim_ns() > 0, "backoff slept on the virtual clock");

        // Degraded: fail fast, no further retries burned.
        let before = core.counters.get("rpc_retries");
        assert_eq!(c.get("/w/f"), Err(CacheError::Unavailable));
        assert_eq!(core.counters.get("rpc_retries"), before);

        // Node restarts; the first call past the probe interval probes,
        // reaches the (cold) cache and starts rewarming.
        core.cache_cluster.restart(victim);
        core.advance(policy.deadline_ns);
        assert_eq!(c.get("/w/f"), Ok(None), "restart wiped the record");
        assert_eq!(core.degraded.mode(), Mode::Rewarming);
        assert_eq!(core.counters.get("recovery_probes"), 1);

        // A streak of cache successes closes the degraded window.
        for _ in 0..crate::degraded::REWARM_STREAK {
            c.get("/w/f").unwrap();
        }
        assert_eq!(core.degraded.mode(), Mode::Healthy);
        assert_eq!(core.counters.get("degraded_recoveries"), 1);
        assert!(core.degraded.window_ns(core.sim_ns()) > 0);
    }

    #[test]
    fn bare_cache_fails_fast_without_degraded_state() {
        let cluster = KvCluster::new(Topology::new(2, 1), Arc::new(LatencyProfile::zero()));
        let c = MetaCache::new(cluster.client(NodeId(0)));
        c.add_new("/w/f", &meta()).unwrap().unwrap();
        cluster.crash(cluster.shard_node(b"/w/f"));
        // No region core: exactly one attempt, mapped to Unavailable.
        assert_eq!(c.get("/w/f"), Err(CacheError::Unavailable));
        assert_eq!(c.put("/w/f", &meta()), Err(CacheError::Unavailable));
        assert_eq!(c.delete("/w/f", None), Err(CacheError::Unavailable));
    }
}
