//! One in-memory shard: versioned entries with CAS.
//!
//! Versions implement memcached's `gets`/`cas` pair: every successful
//! mutation bumps the entry version; a CAS succeeds only when the caller
//! presents the version it read. Pacon retries conflicting updates until
//! they succeed (Section III.D-3), so the shard never blocks writers.
//!
//! The read path is built to scale with concurrent readers:
//!
//! * the shard state sits behind a `RwLock`, so any number of `get`s
//!   share the lock and only mutations take it exclusively;
//! * values are stored as `Arc<[u8]>` — a hit hands out a refcount bump,
//!   not a byte copy;
//! * operation counters live outside the lock as atomics, so `get` never
//!   writes shard state.
//!
//! A shard never sheds a record on its own: a key leaves only through
//! [`Shard::delete`], [`Shard::migrate_out`] or [`Shard::clear`]. Pacon's
//! cache is the primary copy of every update the DFS has not committed
//! yet, so which records may go is decided by the layer that knows what
//! is committed (`pacon::eviction`, Section III.F); [`Shard::used_bytes`]
//! is the pressure signal it reads.
//!
//! # Ordered queries
//!
//! The map is unordered, so the two ordered questions a shard answers —
//! [`Shard::keys_with_prefix`] and [`Shard::first_key_at_or_after`] —
//! go through an ordered key index (a `BTreeSet` of the live keys). The
//! index is **built by the first ordered query** and kept current from
//! then on at every place a key enters or leaves the map (`store`,
//! `install`, `Inner::remove`, `clear`). A shard that is never asked an
//! ordered question never pays for one: an always-on index cost the
//! create-only benchmark workload 10–20 % host throughput and 11 % peak
//! RSS (DESIGN §5.2), and Pacon only asks under cache pressure, on
//! `rmdir` and on a reshard. Once built, a query costs O(log n) plus the
//! keys it yields ([`ShardStats::scanned_keys`] counts exactly those).

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syncguard::{level, RwLock};

/// A cached value: shared, immutable bytes. Cloning is a refcount bump.
pub type Value = Arc<[u8]>;

/// Marker result: the key was migrated off this shard by a live reshard;
/// the shard is no longer authoritative for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyMoved;

/// Result of a CAS attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CasOutcome {
    /// Update applied; the entry now has this version.
    Stored { new_version: u64 },
    /// Version mismatch; the caller's copy is stale.
    Conflict { current_version: u64 },
    /// The key vanished between `gets` and `cas`.
    NotFound,
}

/// One item of a batched conditional store ([`Shard::write_many`]): the
/// version a `gets` returned for `key`, and `Some(value)` to CAS over
/// it or `None` to delete the record only at that version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondWrite<'a> {
    pub key: &'a [u8],
    pub version: u64,
    pub value: Option<&'a [u8]>,
}

/// Outcome of one [`CondWrite`]: what [`Shard::cas`] reports for a CAS,
/// with `Deleted` for a delete that removed the record (where
/// [`Shard::delete`] reports `true`). A delete that removed nothing tells
/// why: another version is there (`Conflict`) or none (`NotFound`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondOutcome {
    Stored { new_version: u64 },
    Deleted,
    Conflict { current_version: u64 },
    NotFound,
}

#[derive(Debug)]
struct Entry {
    value: Value,
    version: u64,
}

/// Counters exposed for tests and experiment reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub gets: u64,
    pub hits: u64,
    pub sets: u64,
    pub cas_ok: u64,
    pub cas_conflicts: u64,
    pub deletes: u64,
    /// Batched lookups served ([`Shard::get_many`] calls).
    pub multi_gets: u64,
    /// Keys looked up across all batched lookups.
    pub multi_keys: u64,
    /// Batched conditional stores served ([`Shard::write_many`] calls).
    pub multi_writes: u64,
    /// Items across all batched conditional stores.
    pub multi_write_keys: u64,
    /// Bytes handed out by reference (`Arc` clone) instead of copied —
    /// the zero-copy savings of the read path.
    pub bytes_referenced: u64,
    /// Keys yielded by ordered queries ([`Shard::keys_with_prefix`],
    /// [`Shard::first_key_at_or_after`]): the exact work they did beyond
    /// the O(log n) seek.
    pub scanned_keys: u64,
}

impl ShardStats {
    /// Fraction of lookups (single and batched) that hit.
    pub fn hit_rate(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }
}

/// Lock-free operation counters (updated under the read lock or no lock).
#[derive(Default)]
struct Counters {
    gets: AtomicU64,
    hits: AtomicU64,
    sets: AtomicU64,
    cas_ok: AtomicU64,
    cas_conflicts: AtomicU64,
    deletes: AtomicU64,
    multi_gets: AtomicU64,
    multi_keys: AtomicU64,
    multi_writes: AtomicU64,
    multi_write_keys: AtomicU64,
    bytes_referenced: AtomicU64,
    scanned_keys: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ShardStats {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ShardStats {
            gets: ld(&self.gets),
            hits: ld(&self.hits),
            sets: ld(&self.sets),
            cas_ok: ld(&self.cas_ok),
            cas_conflicts: ld(&self.cas_conflicts),
            deletes: ld(&self.deletes),
            multi_gets: ld(&self.multi_gets),
            multi_keys: ld(&self.multi_keys),
            multi_writes: ld(&self.multi_writes),
            multi_write_keys: ld(&self.multi_write_keys),
            bytes_referenced: ld(&self.bytes_referenced),
            scanned_keys: ld(&self.scanned_keys),
        }
    }
}

struct Inner {
    map: HashMap<Vec<u8>, Entry>,
    next_version: u64,
    used_bytes: usize,
    /// Keys migrated off this shard by a live reshard. While a marker is
    /// present this shard is no longer authoritative for the key: a local
    /// miss means "moved", not "absent". Cleared when the migration
    /// completes or aborts, and by [`Shard::clear`] (crash wipes markers
    /// with the rest of volatile memory).
    moved_out: std::collections::HashSet<Vec<u8>>,
    /// The live keys in byte order; `None` until the first ordered query
    /// builds it (module docs).
    index: Option<BTreeSet<Vec<u8>>>,
}

impl Inner {
    /// Single-lookup store (entry API — one hash per call).
    fn store(&mut self, key: &[u8], value: &[u8]) -> u64 {
        self.next_version += 1;
        let version = self.next_version;
        match self.map.entry(key.to_vec()) {
            MapEntry::Occupied(mut o) => {
                let e = o.get_mut();
                self.used_bytes = self.used_bytes - e.value.len() + value.len();
                e.value = Arc::from(value);
                e.version = version;
            }
            MapEntry::Vacant(slot) => {
                self.used_bytes += entry_cost(key, value);
                index_insert(&mut self.index, key);
                slot.insert(Entry { value: Arc::from(value), version });
            }
        }
        version
    }

    /// The one place a key leaves the map (short of [`Shard::clear`]):
    /// releases its bytes and drops it from the ordered index.
    fn remove(&mut self, key: &[u8]) -> Option<Entry> {
        let e = self.map.remove(key)?;
        self.used_bytes -= entry_cost(key, &e.value);
        if let Some(index) = &mut self.index {
            index.remove(key);
        }
        Some(e)
    }
}

/// A new key entered the map: mirror it into the ordered index, if built.
/// (A free function so the `map.entry` borrow in the callers stays
/// field-disjoint.)
fn index_insert(index: &mut Option<BTreeSet<Vec<u8>>>, key: &[u8]) {
    if let Some(index) = index {
        index.insert(key.to_vec());
    }
}

/// A single cache shard. Thread-safe; reads share the lock.
pub struct Shard {
    inner: RwLock<Inner>,
    stats: Counters,
}

fn entry_cost(key: &[u8], value: &[u8]) -> usize {
    key.len() + value.len() + 48
}

impl Default for Shard {
    fn default() -> Self {
        Self::new()
    }
}

impl Shard {
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(level::SHARD, "memkv.shard", Inner {
                map: HashMap::new(),
                next_version: 1,
                used_bytes: 0,
                moved_out: std::collections::HashSet::new(),
                index: None,
            }),
            stats: Counters::default(),
        }
    }

    /// `gets`: value together with its CAS version. Shares the lock with
    /// other readers and never writes shard state.
    pub fn get(&self, key: &[u8]) -> Option<(Value, u64)> {
        let g = self.inner.read();
        self.lookup(&g, key)
    }

    /// Batched `gets`: one lock acquisition for the whole key batch.
    /// Results are in input order; a missing key yields `None`.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Vec<Option<(Value, u64)>> {
        let g = self.inner.read();
        self.stats.multi_gets.fetch_add(1, Ordering::Relaxed);
        self.stats.multi_keys.fetch_add(keys.len() as u64, Ordering::Relaxed);
        keys.iter().map(|k| self.lookup(&g, k.as_ref())).collect()
    }

    fn lookup(&self, g: &Inner, key: &[u8]) -> Option<(Value, u64)> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let e = g.map.get(key)?;
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_referenced.fetch_add(e.value.len() as u64, Ordering::Relaxed);
        Some((Arc::clone(&e.value), e.version))
    }

    /// Unconditional store. Returns the new version.
    pub fn set(&self, key: &[u8], value: &[u8]) -> u64 {
        let mut g = self.inner.write();
        self.stats.sets.fetch_add(1, Ordering::Relaxed);
        g.store(key, value)
    }

    /// `add`: store only if absent. Returns the version, or `None` if the
    /// key already exists.
    pub fn add(&self, key: &[u8], value: &[u8]) -> Option<u64> {
        let mut g = self.inner.write();
        if g.map.contains_key(key) {
            return None;
        }
        self.stats.sets.fetch_add(1, Ordering::Relaxed);
        Some(g.store(key, value))
    }

    /// Check-and-swap against the version obtained from [`Shard::get`].
    pub fn cas(&self, key: &[u8], expected_version: u64, value: &[u8]) -> CasOutcome {
        self.cas_locked(&mut self.inner.write(), key, expected_version, value)
    }

    fn cas_locked(&self, g: &mut Inner, key: &[u8], expected: u64, value: &[u8]) -> CasOutcome {
        match g.map.get(key).map(|e| e.version) {
            None => CasOutcome::NotFound,
            Some(current) if current != expected => {
                self.stats.cas_conflicts.fetch_add(1, Ordering::Relaxed);
                CasOutcome::Conflict { current_version: current }
            }
            Some(_) => {
                self.stats.cas_ok.fetch_add(1, Ordering::Relaxed);
                CasOutcome::Stored { new_version: g.store(key, value) }
            }
        }
    }

    /// Remove a key — with `expected_version`, only while it still holds
    /// the version a [`Shard::get`] returned (check-and-delete: a store
    /// that landed since keeps its record). True if a record was removed.
    pub fn delete(&self, key: &[u8], expected_version: Option<u64>) -> bool {
        self.delete_locked(&mut self.inner.write(), key, expected_version) == CondOutcome::Deleted
    }

    fn delete_locked(&self, g: &mut Inner, key: &[u8], expected: Option<u64>) -> CondOutcome {
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        match g.map.get(key).map(|e| e.version) {
            None => CondOutcome::NotFound,
            Some(current) if expected.is_some_and(|v| v != current) => {
                CondOutcome::Conflict { current_version: current }
            }
            Some(_) => {
                g.remove(key);
                CondOutcome::Deleted
            }
        }
    }

    /// Batched conditional store: one lock acquisition for the whole
    /// batch, each item applied in input order exactly as the sequential
    /// [`Shard::cas`] / versioned [`Shard::delete`] would (and counted as
    /// they are). Outcomes are in input order.
    pub fn write_many(&self, items: &[CondWrite<'_>]) -> Vec<CondOutcome> {
        let mut g = self.inner.write();
        self.stats.multi_writes.fetch_add(1, Ordering::Relaxed);
        self.stats.multi_write_keys.fetch_add(items.len() as u64, Ordering::Relaxed);
        items.iter().map(|w| self.write_locked(&mut g, w)).collect()
    }

    /// One [`CondWrite`] on its own: the single-key `cas` or versioned
    /// `delete` it stands for, with the outcome a batch would report.
    pub(crate) fn write_one(&self, w: &CondWrite<'_>) -> CondOutcome {
        self.write_locked(&mut self.inner.write(), w)
    }

    fn write_locked(&self, g: &mut Inner, w: &CondWrite<'_>) -> CondOutcome {
        let Some(value) = w.value else {
            return self.delete_locked(g, w.key, Some(w.version));
        };
        match self.cas_locked(g, w.key, w.version, value) {
            CasOutcome::Stored { new_version } => CondOutcome::Stored { new_version },
            CasOutcome::Conflict { current_version } => CondOutcome::Conflict { current_version },
            CasOutcome::NotFound => CondOutcome::NotFound,
        }
    }

    /// Keys starting with `prefix`, in byte order (management extension
    /// used for region eviction, subtree cleanup and reshard
    /// enumeration): a range scan of the ordered index.
    pub fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let keys: Vec<Vec<u8>> = self.ordered(|index| {
            index
                .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
                .take_while(|k| k.starts_with(prefix))
                .cloned()
                .collect()
        });
        self.stats.scanned_keys.fetch_add(keys.len() as u64, Ordering::Relaxed);
        keys
    }

    /// The smallest live key `>= key` in byte order, if any.
    pub fn first_key_at_or_after(&self, key: &[u8]) -> Option<Vec<u8>> {
        let first = self.ordered(|index| {
            index.range::<[u8], _>((Bound::Included(key), Bound::Unbounded)).next().cloned()
        });
        self.stats.scanned_keys.fetch_add(first.is_some() as u64, Ordering::Relaxed);
        first
    }

    /// Run an ordered query against the key index, building the index
    /// first if this is the shard's first one. Later queries share the
    /// read lock with `get`s.
    fn ordered<R>(&self, query: impl Fn(&BTreeSet<Vec<u8>>) -> R) -> R {
        {
            let g = self.inner.read();
            if let Some(index) = &g.index {
                return query(index);
            }
        }
        let mut guard = self.inner.write();
        let Inner { map, index, .. } = &mut *guard;
        query(index.get_or_insert_with(|| map.keys().cloned().collect()))
    }

    /// Has an ordered query materialised the key index? (Debug surface:
    /// tests assert that plain `get`/`set`/`delete` traffic never does.)
    pub fn index_built(&self) -> bool {
        self.inner.read().index.is_some()
    }

    /// Bytes currently accounted to live entries.
    pub fn used_bytes(&self) -> usize {
        self.inner.read().used_bytes
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything (cache rebuild after failure recovery). Also drops
    /// migration markers — a crashed node's markers die with its memory.
    pub fn clear(&self) {
        let mut g = self.inner.write();
        g.map.clear();
        g.used_bytes = 0;
        g.moved_out.clear();
        if let Some(index) = &mut g.index {
            index.clear();
        }
    }

    pub fn stats(&self) -> ShardStats {
        self.stats.snapshot()
    }

    // ---- live-reshard surface (used only by the cluster's migration
    // driver and the epoch router; see `cluster` module docs) ----

    /// Migration export: remove `key` and leave a moved-out marker so this
    /// shard stops answering authoritatively for it. Returns the entry
    /// that should be installed on the new owner; `None` (no marker left)
    /// if the key is absent — an absent key needs no forwarding, a miss on
    /// both owners is already consistent.
    pub fn migrate_out(&self, key: &[u8]) -> Option<(Value, u64)> {
        let mut g = self.inner.write();
        let e = g.remove(key)?;
        g.moved_out.insert(key.to_vec());
        Some((e.value, e.version))
    }

    /// Migration import: install `key` with its **source** version so CAS
    /// tokens handed out before the move keep working after it. The
    /// version clock is lifted to `max(next_version, version)` so later
    /// writes can never mint a version at or below the imported one.
    /// A newer local entry (a write already routed here) wins: the stale
    /// import is dropped and `false` returned.
    pub fn install(&self, key: &[u8], value: &[u8], version: u64) -> bool {
        let mut guard = self.inner.write();
        let g = &mut *guard;
        if let Some(e) = g.map.get(key) {
            if e.version >= version {
                return false;
            }
        }
        g.next_version = g.next_version.max(version);
        match g.map.entry(key.to_vec()) {
            MapEntry::Occupied(mut o) => {
                let e = o.get_mut();
                g.used_bytes = g.used_bytes - e.value.len() + value.len();
                e.value = Arc::from(value);
                e.version = version;
            }
            MapEntry::Vacant(slot) => {
                g.used_bytes += entry_cost(key, value);
                index_insert(&mut g.index, key);
                slot.insert(Entry { value: Arc::from(value), version });
            }
        }
        true
    }

    /// Has `key` been migrated off this shard (moved-out marker present)?
    pub fn is_moved(&self, key: &[u8]) -> bool {
        self.inner.read().moved_out.contains(key)
    }

    /// Single-acquisition read for the migration fallback path: the value
    /// if this shard still holds it, or `None` tagged with whether the
    /// miss is a moved-out marker (authoritative elsewhere) or a plain
    /// absence.
    pub fn get_unless_moved(&self, key: &[u8]) -> Result<Option<(Value, u64)>, KeyMoved> {
        let g = self.inner.read();
        if g.moved_out.contains(key) {
            return Err(KeyMoved);
        }
        Ok(self.lookup(&g, key))
    }

    /// Drop all moved-out markers (migration completed or aborted).
    pub fn clear_moved(&self) {
        self.inner.write().moved_out.clear();
    }

    /// Number of moved-out markers (test/debug surface).
    pub fn moved_count(&self) -> usize {
        self.inner.read().moved_out.len()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_versions_increase() {
        let s = Shard::new();
        assert_eq!(s.get(b"k"), None);
        let v1 = s.set(b"k", b"a");
        let (val, ver) = s.get(b"k").unwrap();
        assert_eq!(&*val, b"a");
        assert_eq!(ver, v1);
        let v2 = s.set(b"k", b"b");
        assert!(v2 > v1);
    }

    #[test]
    fn add_only_if_absent() {
        let s = Shard::new();
        assert!(s.add(b"k", b"a").is_some());
        assert!(s.add(b"k", b"b").is_none());
        assert_eq!(&*s.get(b"k").unwrap().0, b"a");
    }

    #[test]
    fn cas_happy_path_and_conflict() {
        let s = Shard::new();
        s.set(b"k", b"v0");
        let (_, ver) = s.get(b"k").unwrap();
        match s.cas(b"k", ver, b"v1") {
            CasOutcome::Stored { new_version } => assert!(new_version > ver),
            other => panic!("expected Stored, got {other:?}"),
        }
        // Stale version now conflicts.
        match s.cas(b"k", ver, b"v2") {
            CasOutcome::Conflict { current_version } => assert!(current_version > ver),
            other => panic!("expected Conflict, got {other:?}"),
        }
        assert_eq!(&*s.get(b"k").unwrap().0, b"v1");
        assert_eq!(s.cas(b"missing", 1, b"x"), CasOutcome::NotFound);
        let st = s.stats();
        assert_eq!(st.cas_ok, 1);
        assert_eq!(st.cas_conflicts, 1);
    }

    #[test]
    fn delete_and_prefix_listing() {
        let s = Shard::new();
        s.set(b"/a/x", b"1");
        s.set(b"/a/y", b"2");
        s.set(b"/b/z", b"3");
        assert_eq!(s.keys_with_prefix(b"/a/"), vec![b"/a/x".to_vec(), b"/a/y".to_vec()]);
        assert!(s.delete(b"/a/x", None));
        assert!(!s.delete(b"/a/x", None));
        assert_eq!(s.keys_with_prefix(b"/a/"), vec![b"/a/y".to_vec()]);
    }

    #[test]
    fn versioned_delete_spares_a_record_stored_since_the_read() {
        let s = Shard::new();
        let read = s.set(b"k", b"old");
        let CasOutcome::Stored { new_version } = s.cas(b"k", read, b"new") else {
            panic!("cas on the version just stored must land");
        };
        assert!(!s.delete(b"k", Some(read)), "the version read is gone");
        let (value, version) = s.get(b"k").expect("the newer record stays");
        assert_eq!((&value[..], version), (&b"new"[..], new_version));
        assert!(s.delete(b"k", Some(new_version)));
        assert!(!s.delete(b"k", Some(new_version)), "absent key: nothing to remove");
    }

    #[test]
    fn only_an_ordered_query_builds_the_index() {
        let s = Shard::new();
        for i in 0..16u8 {
            let key = [b'/', b'a', b'/', b'0' + i];
            s.set(&key, b"v");
            s.add(&key, b"w");
            if let Some((_, version)) = s.get(&key) {
                s.cas(&key, version, b"x");
            }
            s.get_many(&[&key[..], b"/missing"]);
            if i % 3 == 0 {
                s.delete(&key, None);
            }
        }
        assert!(!s.index_built(), "point traffic must never pay for the index");
        assert_eq!(s.stats().scanned_keys, 0);

        // The first ordered query builds it from the live map ...
        let live = s.keys_with_prefix(b"/a/");
        assert!(s.index_built());
        assert_eq!(live.len(), s.len());
        assert_eq!(s.stats().scanned_keys, live.len() as u64);
        // ... and from then on it follows every store and delete.
        s.delete(&live[0], None);
        s.set(b"/a", b"dir");
        assert_eq!(s.first_key_at_or_after(b"/"), Some(b"/a".to_vec()));
        assert_eq!(s.first_key_at_or_after(b"/a\0"), Some(live[1].clone()));
        assert_eq!(s.first_key_at_or_after(b"/b"), None);
        assert_eq!(s.stats().scanned_keys, live.len() as u64 + 2, "a seek yields at most one key");
    }

    #[test]
    fn a_shard_never_sheds_a_record_on_its_own() {
        // What `pacon::eviction` relies on: however much lands on a shard
        // and whatever is or is not read back, every record stays until
        // someone deletes it, and `used_bytes` is exactly the cost of
        // what is resident.
        let s = Shard::new();
        let key = |i: u32| format!("/w/d{}/f{i}", i % 7).into_bytes();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for i in 0..4000u32 {
            let k = key(i);
            let version = s.add(&k, &[b'a'; 40]).expect("fresh key");
            model.insert(k.clone(), vec![b'a'; 40]);
            if i % 2 == 0 {
                let grown = vec![b'b'; 40 + (i % 90) as usize];
                assert!(matches!(s.cas(&k, version, &grown), CasOutcome::Stored { .. }));
                model.insert(k.clone(), grown);
            }
            if i % 5 == 0 {
                s.set(&k, b"short");
                model.insert(k, b"short".to_vec());
            }
            // Hits go to the oldest keys only: recency must not matter.
            s.get(&key(i % 16));
            s.get_many(&[key(i / 2), key(i + 1)]);
        }
        assert_eq!(s.len(), model.len());
        assert_eq!(s.used_bytes(), model.iter().map(|(k, v)| entry_cost(k, v)).sum::<usize>());
        for (k, v) in &model {
            assert_eq!(s.get(k).map(|(value, _)| value.to_vec()).as_ref(), Some(v));
        }
    }

    #[test]
    fn get_many_matches_sequential_gets() {
        let s = Shard::new();
        s.set(b"a", b"1");
        s.set(b"b", b"22");
        let keys: Vec<&[u8]> = vec![b"a", b"missing", b"b", b"a"];
        let batched = s.get_many(&keys);
        assert_eq!(batched.len(), 4);
        for (k, got) in keys.iter().zip(&batched) {
            assert_eq!(got, &s.get(k));
        }
        let st = s.stats();
        assert_eq!(st.multi_gets, 1);
        assert_eq!(st.multi_keys, 4);
    }

    #[test]
    fn write_many_applies_in_order_and_tells_conflicts_from_absence() {
        let s = Shard::new();
        let a = s.set(b"a", b"1");
        let b = s.set(b"b", b"2");
        let items = [
            CondWrite { key: b"a", version: a, value: Some(b"10") },
            // The same key again at the version just replaced: conflicts.
            CondWrite { key: b"a", version: a, value: Some(b"11") },
            CondWrite { key: b"b", version: b, value: None },
            CondWrite { key: b"b", version: b, value: None },
            CondWrite { key: b"gone", version: 1, value: Some(b"x") },
        ];
        let got = s.write_many(&items);
        let a2 = s.get(b"a").unwrap().1;
        assert_eq!(
            got,
            [
                CondOutcome::Stored { new_version: a2 },
                CondOutcome::Conflict { current_version: a2 },
                CondOutcome::Deleted,
                CondOutcome::NotFound,
                CondOutcome::NotFound,
            ]
        );
        assert_eq!(&*s.get(b"a").unwrap().0, b"10");
        assert_eq!(s.get(b"b"), None);
        let st = s.stats();
        assert_eq!((st.multi_writes, st.multi_write_keys), (1, 5));
        assert_eq!((st.cas_ok, st.cas_conflicts, st.deletes), (1, 1, 2));
    }

    #[test]
    fn hit_rate_reflects_hits_and_misses() {
        let s = Shard::new();
        assert_eq!(s.stats().hit_rate(), 0.0);
        s.set(b"k", b"v");
        s.get(b"k");
        s.get(b"k");
        s.get(b"nope");
        s.get(b"nope2");
        let st = s.stats();
        assert_eq!(st.gets, 4);
        assert_eq!(st.hits, 2);
        assert!((st.hit_rate() - 0.5).abs() < 1e-9);
        // Zero-copy accounting: two hits of one byte each.
        assert_eq!(st.bytes_referenced, 2);
    }

    #[test]
    fn byte_accounting_balances() {
        let s = Shard::new();
        s.set(b"k1", b"aaaa");
        s.set(b"k2", b"bbbb");
        let full = s.used_bytes();
        s.set(b"k1", b"c"); // shrink
        assert!(s.used_bytes() < full);
        s.delete(b"k1", None);
        s.delete(b"k2", None);
        assert_eq!(s.used_bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_resets() {
        let s = Shard::new();
        for i in 0..10u8 {
            s.set(&[i], b"v");
        }
        assert_eq!(s.len(), 10);
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn concurrent_cas_retry_converges() {
        // 4 threads increment a counter via CAS-with-retry 250 times each.
        let s = std::sync::Arc::new(Shard::new());
        s.set(b"ctr", b"0");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    loop {
                        let (val, ver) = s.get(b"ctr").unwrap();
                        let n: u64 = std::str::from_utf8(&val).unwrap().parse().unwrap();
                        let next = (n + 1).to_string();
                        match s.cas(b"ctr", ver, next.as_bytes()) {
                            CasOutcome::Stored { .. } => break,
                            CasOutcome::Conflict { .. } => continue,
                            CasOutcome::NotFound => panic!("counter vanished"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (val, _) = s.get(b"ctr").unwrap();
        assert_eq!(std::str::from_utf8(&val).unwrap(), "1000");
    }
}

#[cfg(test)]
mod extended_op_tests {
    use super::*;

    #[test]
    fn values_are_shared_not_copied() {
        let s = Shard::new();
        s.set(b"k", b"payload");
        let (a, _) = s.get(b"k").unwrap();
        let (b, _) = s.get(b"k").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits must share one allocation");
    }
}

#[cfg(test)]
mod migration_tests {
    use super::*;

    #[test]
    fn migrate_out_marks_and_install_preserves_version() {
        let src = Shard::new();
        let dst = Shard::new();
        src.set(b"k", b"v0");
        let v = src.set(b"k", b"v1");
        let (val, ver) = src.migrate_out(b"k").expect("entry present");
        assert_eq!(ver, v);
        assert!(src.is_moved(b"k"));
        assert_eq!(src.get_unless_moved(b"k"), Err(KeyMoved));
        assert_eq!(src.used_bytes(), 0, "export releases the bytes");

        assert!(dst.install(b"k", &val, ver));
        let (got, got_ver) = dst.get(b"k").unwrap();
        assert_eq!(&*got, b"v1");
        assert_eq!(got_ver, ver, "CAS version survives the move");
        // A CAS with the pre-move version must still land on the new owner.
        assert!(matches!(dst.cas(b"k", ver, b"v2"), CasOutcome::Stored { .. }));
    }

    #[test]
    fn install_lifts_version_clock_so_versions_never_regress() {
        let dst = Shard::new();
        assert!(dst.install(b"k", b"moved", 500));
        let v_next = dst.set(b"other", b"x");
        assert!(v_next > 500, "post-install writes mint versions above the import");
        let v_k = dst.set(b"k", b"newer");
        assert!(v_k > 500);
    }

    #[test]
    fn install_never_clobbers_a_newer_local_write() {
        let dst = Shard::new();
        dst.install(b"k", b"old", 5);
        let v_new = dst.set(b"k", b"fresh");
        assert!(v_new > 5);
        assert!(!dst.install(b"k", b"stale-retransmit", 5), "stale import dropped");
        assert_eq!(&*dst.get(b"k").unwrap().0, b"fresh");
    }

    #[test]
    fn migrate_out_of_absent_key_leaves_no_marker() {
        let src = Shard::new();
        assert!(src.migrate_out(b"nope").is_none());
        assert!(!src.is_moved(b"nope"));
        assert_eq!(src.get_unless_moved(b"nope"), Ok(None));
    }

    #[test]
    fn clear_and_clear_moved_drop_markers() {
        let s = Shard::new();
        s.set(b"a", b"1");
        s.set(b"b", b"2");
        s.migrate_out(b"a");
        s.migrate_out(b"b");
        assert_eq!(s.moved_count(), 2);
        s.clear_moved();
        assert_eq!(s.moved_count(), 0);
        s.set(b"c", b"3");
        s.migrate_out(b"c");
        s.clear();
        assert_eq!(s.moved_count(), 0, "crash wipes markers with the data");
    }
}
