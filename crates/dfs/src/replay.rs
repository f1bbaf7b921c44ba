//! Idempotent-replay identities for durable commit logs.
//!
//! A crashed Pacon node replays its write-ahead log against the DFS, and
//! a crash *during* recovery replays it again — so every logged mutation
//! carries a `(path, write_id, generation)` identity and the DFS keeps a
//! **seen-cache** of identities it already applied:
//!
//! * `write_id` names the mutation itself (unique per region lifetime:
//!   the node's incarnation number concatenated with a sequence number);
//! * `generation` names the namespace generation of the path the
//!   mutation targets — for creations/unlinks it is their own
//!   `write_id`, for data writebacks it is the `write_id` of the create
//!   that produced the file.
//!
//! Replaying an identified namespace op that is already in the cache is
//! a no-op returning the original inode; replaying a data writeback
//! whose path has moved to a newer generation (the file was re-created
//! since) is skipped rather than applied to the wrong file. A writeback
//! whose generation is **zero** carries no ordering information (the
//! file predates its region's current launch) — it is always applied,
//! never skipped: dropping an acknowledged write is strictly worse than
//! re-applying one.

use std::collections::HashMap;
use std::sync::Arc;

use fsapi::path as fspath;
use syncguard::{level, Mutex};

use crate::namespace::Ino;

/// Identity of one durable mutation. `OpId::NONE` (all zeros) marks an
/// unidentified op, which always applies verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OpId {
    pub write_id: u64,
    pub generation: u64,
}

impl OpId {
    pub const NONE: OpId = OpId { write_id: 0, generation: 0 };

    /// Low bits of a `write_id` hold the region-launch-local sequence
    /// number; the bits above hold the launch's incarnation.
    pub const SEQ_BITS: u32 = 40;
    /// Exclusive upper bound on incarnation numbers (24 bits).
    pub const MAX_INCARNATION: u64 = 1 << (64 - Self::SEQ_BITS);

    /// Pack an `(incarnation, seq)` pair into a `write_id`. Panics on
    /// overflow of either field: a wrapped id would collide with an
    /// identity already in the seen-cache and silently no-op a real op,
    /// which is strictly worse than stopping.
    pub fn pack_write_id(incarnation: u64, seq: u64) -> u64 {
        assert!(
            incarnation < Self::MAX_INCARNATION,
            "incarnation {incarnation} overflows the write_id incarnation bits"
        );
        assert!(
            seq < (1 << Self::SEQ_BITS),
            "sequence {seq} overflows the write_id sequence bits"
        );
        (incarnation << Self::SEQ_BITS) | seq
    }

    /// The incarnation a packed `write_id` was allocated in.
    pub fn incarnation_of(write_id: u64) -> u64 {
        write_id >> Self::SEQ_BITS
    }

    pub fn is_none(&self) -> bool {
        self.write_id == 0
    }
}

/// What the seen-cache remembers of one path.
#[derive(Debug)]
struct PathIds {
    /// Latest namespace generation applied to the path (0: none).
    latest_gen: u64,
    /// `(write_id, inode the mutation produced/removed)` of every applied
    /// identified mutation, sorted by `write_id`.
    applied: Vec<(u64, Ino)>,
}

impl PathIds {
    fn ino_of(&self, write_id: u64) -> Option<Ino> {
        self.applied
            .binary_search_by_key(&write_id, |&(w, _)| w)
            .ok()
            .map(|i| self.applied[i].1)
    }
}

/// Server-side memory of applied identified mutations. Shared by every
/// MDS of a cluster (like the namespace itself), so it survives region
/// restarts — which is exactly when it matters. One record per path
/// holds both its identities and its latest generation.
#[derive(Debug, Default)]
pub struct SeenCache {
    paths: HashMap<Box<str>, PathIds>,
    /// Identities over every path (`len`).
    identities: usize,
}

impl SeenCache {
    /// A fresh cache behind its syncguard lock (tier `BACKEND_META`: the
    /// cache is consulted per op while the namespace lock is held).
    pub fn shared() -> Arc<Mutex<SeenCache>> {
        Arc::new(Mutex::new(level::BACKEND_META, "dfs.seen_cache", SeenCache::default()))
    }

    /// The inode recorded for an already-applied mutation, if any.
    pub fn hit(&self, path: &str, write_id: u64) -> Option<Ino> {
        self.paths.get(path)?.ino_of(write_id)
    }

    /// Record an applied identified mutation. For namespace ops the
    /// identity's `generation` is its own `write_id`, which becomes the
    /// path's latest generation.
    pub fn record(&mut self, path: &str, id: OpId, ino: Ino) {
        let Some(ids) = self.paths.get_mut(path) else {
            let ids = PathIds { latest_gen: id.generation, applied: vec![(id.write_id, ino)] };
            self.paths.insert(Box::from(path), ids);
            self.identities += 1;
            return;
        };
        match ids.applied.binary_search_by_key(&id.write_id, |&(w, _)| w) {
            Ok(i) => ids.applied[i].1 = ino,
            Err(i) => {
                ids.applied.insert(i, (id.write_id, ino));
                self.identities += 1;
            }
        }
        ids.latest_gen = ids.latest_gen.max(id.generation);
    }

    /// Whether replaying an identified data writeback would be stale:
    /// either this exact write already applied, or the path has moved on
    /// to a newer namespace generation (the file was re-created since).
    ///
    /// Generation **zero** means the writer did not know its file's
    /// creation generation (the file predates the region launch that
    /// logged the write). That is "unknown", not "older than everything":
    /// such a write is only stale if this exact `write_id` already
    /// applied — skipping it on a generation comparison would silently
    /// drop an acknowledged write during normal durable operation.
    pub fn data_replay_is_stale(&self, path: &str, id: &OpId) -> bool {
        self.paths.get(path).is_some_and(|ids| {
            ids.ino_of(id.write_id).is_some()
                || (id.generation != 0 && ids.latest_gen > id.generation)
        })
    }

    /// Latest recorded namespace generation of every path under `root`
    /// (a region seeds its in-memory generation map from this at launch,
    /// so writebacks to files created by earlier incarnations carry the
    /// correct generation instead of 0).
    pub fn generations_under(&self, root: &str) -> Vec<(String, u64)> {
        self.paths
            .iter()
            .filter(|(path, ids)| ids.latest_gen != 0 && fspath::is_same_or_ancestor(root, path))
            .map(|(path, ids)| (path.to_string(), ids.latest_gen))
            .collect()
    }

    /// Evict identities under `root` whose write was allocated by an
    /// incarnation `< below_incarnation`, and latest generations under
    /// `root` allocated that early. Only call this once those identities
    /// are provably unreplayable — i.e. after the commit logs that could
    /// carry them have been truncated; `below_incarnation = u64::MAX`
    /// prunes everything recorded under `root`. Returns the number of
    /// identities removed.
    pub fn prune_under(&mut self, root: &str, below_incarnation: u64) -> usize {
        let before = self.identities;
        let old = |write_id: u64| OpId::incarnation_of(write_id) < below_incarnation;
        self.paths.retain(|path, ids| {
            if !fspath::is_same_or_ancestor(root, path) {
                return true;
            }
            let had = ids.applied.len();
            ids.applied.retain(|&(w, _)| !old(w));
            self.identities -= had - ids.applied.len();
            if old(ids.latest_gen) {
                ids.latest_gen = 0;
            }
            ids.latest_gen != 0 || !ids.applied.is_empty()
        });
        before - self.identities
    }

    /// Number of remembered identities (diagnostics).
    pub fn len(&self) -> usize {
        self.identities
    }

    pub fn is_empty(&self) -> bool {
        self.identities == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn replay_hits_after_record() {
        let mut c = SeenCache::default();
        let id = OpId { write_id: 7, generation: 7 };
        assert!(c.hit("/a", 7).is_none());
        c.record("/a", id, Ino(42));
        assert_eq!(c.hit("/a", 7), Some(Ino(42)));
        assert!(c.hit("/a", 8).is_none(), "identity is per write_id");
        assert!(c.hit("/b", 7).is_none(), "identity is per path");
    }

    #[test]
    fn stale_data_replay_detection() {
        let mut c = SeenCache::default();
        // File created at generation 10, then re-created at 20.
        c.record("/f", OpId { write_id: 10, generation: 10 }, Ino(1));
        c.record("/f", OpId { write_id: 20, generation: 20 }, Ino(2));
        // A write against the old generation is stale.
        assert!(c.data_replay_is_stale("/f", &OpId { write_id: 15, generation: 10 }));
        // A write against the current generation is not.
        assert!(!c.data_replay_is_stale("/f", &OpId { write_id: 25, generation: 20 }));
        // The same write replayed twice is stale the second time.
        c.record("/f", OpId { write_id: 25, generation: 20 }, Ino(2));
        assert!(c.data_replay_is_stale("/f", &OpId { write_id: 25, generation: 20 }));
    }

    #[test]
    fn unknown_generation_writes_are_never_skipped_by_age() {
        let mut c = SeenCache::default();
        // The file was created durably (generation 10), then the region
        // restarted: a new-launch writeback that could not learn the
        // creation generation carries 0. It must apply.
        c.record("/f", OpId { write_id: 10, generation: 10 }, Ino(1));
        assert!(!c.data_replay_is_stale("/f", &OpId { write_id: 77, generation: 0 }));
        // ... but replaying that exact write a second time still no-ops.
        c.record("/f", OpId { write_id: 77, generation: 0 }, Ino(1));
        assert!(c.data_replay_is_stale("/f", &OpId { write_id: 77, generation: 0 }));
    }

    #[test]
    fn generations_under_scopes_to_the_root() {
        let mut c = SeenCache::default();
        c.record("/a/f", OpId { write_id: 3, generation: 3 }, Ino(1));
        c.record("/a/g", OpId { write_id: 4, generation: 4 }, Ino(2));
        c.record("/b/h", OpId { write_id: 5, generation: 5 }, Ino(3));
        let mut gens = c.generations_under("/a");
        gens.sort();
        assert_eq!(gens, vec![("/a/f".to_string(), 3), ("/a/g".to_string(), 4)]);
    }

    #[test]
    fn prune_is_scoped_by_root_and_incarnation() {
        let mut c = SeenCache::default();
        let old = OpId::pack_write_id(1, 9);
        let new = OpId::pack_write_id(2, 1);
        c.record("/a/f", OpId { write_id: old, generation: old }, Ino(1));
        c.record("/a/g", OpId { write_id: new, generation: new }, Ino(2));
        c.record("/b/h", OpId { write_id: old, generation: old }, Ino(3));
        // Prune region /a below incarnation 2: only /a's old identity goes.
        assert_eq!(c.prune_under("/a", 2), 1);
        assert!(c.hit("/a/f", old).is_none());
        assert!(c.hit("/a/g", new).is_some());
        assert!(c.hit("/b/h", old).is_some(), "other regions untouched");
        assert!(c.generations_under("/a").iter().all(|(p, _)| p == "/a/g"));
        // Prune everything under /a.
        assert_eq!(c.prune_under("/a", u64::MAX), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_generation_zero_writeback_records_no_generation() {
        let mut c = SeenCache::default();
        c.record("/f", OpId { write_id: 9, generation: 0 }, Ino(1));
        assert_eq!(c.len(), 1);
        assert!(c.generations_under("/").is_empty());
    }

    #[test]
    fn identities_and_generations_prune_independently() {
        let mut c = SeenCache::default();
        let (old, new) = (OpId::pack_write_id(1, 7), OpId::pack_write_id(2, 1));
        // An old write against a newer generation, and a new write against
        // an older one.
        c.record("/a/f", OpId { write_id: old, generation: new }, Ino(1));
        c.record("/a/g", OpId { write_id: new, generation: old }, Ino(2));
        assert_eq!(c.prune_under("/a", 2), 1);
        assert_eq!(c.len(), 1);
        // /a/f lost its identity but keeps its generation ...
        assert!(c.hit("/a/f", old).is_none());
        assert_eq!(c.generations_under("/a"), vec![("/a/f".to_string(), new)]);
        assert!(c.data_replay_is_stale("/a/f", &OpId { write_id: old + 1, generation: old }));
        // ... and /a/g the reverse.
        assert_eq!(c.hit("/a/g", new), Some(Ino(2)));
        assert!(!c.data_replay_is_stale("/a/g", &OpId { write_id: new + 1, generation: 1 }));
    }

    #[test]
    fn write_id_packing_guards_overflow() {
        let id = OpId::pack_write_id(3, 41);
        assert_eq!(OpId::incarnation_of(id), 3);
        assert_eq!(id & ((1 << OpId::SEQ_BITS) - 1), 41);
        assert!(std::panic::catch_unwind(|| OpId::pack_write_id(OpId::MAX_INCARNATION, 1))
            .is_err());
        assert!(std::panic::catch_unwind(|| OpId::pack_write_id(1, 1 << OpId::SEQ_BITS))
            .is_err());
    }

    /// The seen-cache as two maps, one keyed by identity and one by path,
    /// as it was first written. A generation-0 writeback creates a zero
    /// latest generation here, which `generations_under` reported; the
    /// cache stores none, so the comparison leaves zeros out.
    #[derive(Default)]
    struct TwoMaps {
        seen: HashMap<(String, u64), Ino>,
        latest_gen: HashMap<String, u64>,
    }

    impl TwoMaps {
        fn record(&mut self, path: &str, id: OpId, ino: Ino) {
            self.seen.insert((path.to_string(), id.write_id), ino);
            let g = self.latest_gen.entry(path.to_string()).or_insert(0);
            *g = (*g).max(id.generation);
        }

        fn data_replay_is_stale(&self, path: &str, id: &OpId) -> bool {
            self.seen.contains_key(&(path.to_string(), id.write_id))
                || (id.generation != 0
                    && self.latest_gen.get(path).is_some_and(|g| *g > id.generation))
        }

        fn prune_under(&mut self, root: &str, below: u64) -> usize {
            let before = self.seen.len();
            self.seen.retain(|(path, w), _| {
                !fspath::is_same_or_ancestor(root, path) || OpId::incarnation_of(*w) >= below
            });
            self.latest_gen.retain(|path, g| {
                !fspath::is_same_or_ancestor(root, path) || OpId::incarnation_of(*g) >= below
            });
            before - self.seen.len()
        }

        fn generations_under(&self, root: &str) -> Vec<(String, u64)> {
            let mut out: Vec<(String, u64)> = self
                .latest_gen
                .iter()
                .filter(|(p, g)| **g != 0 && fspath::is_same_or_ancestor(root, p))
                .map(|(p, g)| (p.clone(), *g))
                .collect();
            out.sort();
            out
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Record(usize, u64, u64, u64),
        Hit(usize, u64),
        Stale(usize, u64, u64),
        Generations(usize),
        Prune(usize, u64),
    }

    const PATHS: [&str; 5] = ["/a", "/a/f", "/a/g", "/ab", "/b/h"];
    const ROOTS: [&str; 4] = ["/", "/a", "/a/f", "/b"];

    /// A write id from a small space (incarnations 0..4, sequences 0..6),
    /// so that ops collide on identities and generations.
    fn write_id() -> impl Strategy<Value = u64> {
        (0..4u64, 0..6u64).prop_map(|(inc, seq)| OpId::pack_write_id(inc, seq))
    }

    fn op() -> impl Strategy<Value = Op> {
        let path = 0..PATHS.len();
        prop_oneof![
            // The generation is 0, the write's own id, or another one.
            4 => (path.clone(), write_id(), write_id(), 0..3u64)
                .prop_map(|(p, w, g, pick)| Op::Record(p, w, g, pick)),
            3 => (path.clone(), write_id()).prop_map(|(p, w)| Op::Hit(p, w)),
            3 => (path, write_id(), (0..3u64, write_id())).prop_map(|(p, w, (pick, g))| {
                Op::Stale(p, w, if pick == 0 { 0 } else { g })
            }),
            1 => (0..ROOTS.len()).prop_map(Op::Generations),
            1 => (0..ROOTS.len(), 0..5u64).prop_map(|(r, below)| {
                Op::Prune(r, if below == 4 { u64::MAX } else { below })
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn seen_cache_matches_the_two_map_reference(ops in proptest::collection::vec(op(), 1..150)) {
            let mut cache = SeenCache::default();
            let mut reference = TwoMaps::default();
            for op in &ops {
                match *op {
                    Op::Record(p, write_id, other, pick) => {
                        let generation = [0, write_id, other][pick as usize];
                        let id = OpId { write_id, generation };
                        let ino = Ino(write_id ^ 5);
                        cache.record(PATHS[p], id, ino);
                        reference.record(PATHS[p], id, ino);
                    }
                    Op::Hit(p, w) => prop_assert_eq!(
                        cache.hit(PATHS[p], w),
                        reference.seen.get(&(PATHS[p].to_string(), w)).copied(),
                        "at {:?}", op
                    ),
                    Op::Stale(p, write_id, generation) => {
                        let id = OpId { write_id, generation };
                        prop_assert_eq!(
                            cache.data_replay_is_stale(PATHS[p], &id),
                            reference.data_replay_is_stale(PATHS[p], &id),
                            "at {:?}", op
                        );
                    }
                    Op::Generations(r) => {
                        let mut got = cache.generations_under(ROOTS[r]);
                        got.sort();
                        prop_assert_eq!(got, reference.generations_under(ROOTS[r]), "at {:?}", op);
                    }
                    Op::Prune(r, below) => prop_assert_eq!(
                        cache.prune_under(ROOTS[r], below),
                        reference.prune_under(ROOTS[r], below),
                        "at {:?}", op
                    ),
                }
                prop_assert_eq!(cache.len(), reference.seen.len(), "after {:?}", op);
                prop_assert_eq!(cache.is_empty(), reference.seen.is_empty());
            }
        }
    }
}
