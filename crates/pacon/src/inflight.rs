//! What the region remembers about a path between "acknowledged" and
//! "committed" (Section III.D–E): one record per path, in one table behind
//! one lock (`pacon.region.paths`). The record's fields are private; the
//! methods of [`InFlight`] are the protocol's transitions, one each:
//!
//! | transition | by | the record |
//! |---|---|---|
//! | `queue_writeback` | inline write | slot → queued (publish unless it was) |
//! | `claim_writebacks` | commit process, before it reads the records | queued → in flight |
//! | `release_writeback` | writeback settled | in flight → none |
//! | `ack_unlink` | unlink acknowledged | slot → none, + stamp (+ stale mark, degraded) |
//! | `retract_unlink` | its publish failed | − stamp (− stale mark) |
//! | `cancel_create` | unlink annihilated a buffered create | − stamp, − its staged bytes |
//! | `settle_unlink` | unlink settled | − stamp (− birth, committed) |
//! | `note_birth` | creation committed | birth = its stamp |
//! | `stage` / `stage_at` | data for a file not on the DFS yet | + staged bytes |
//! | `take_staged` | creation committed or discarded | − its staged bytes |
//! | `remove_dir` | rmdir, inside its barrier | − slots and staged bytes under it |
//! | `new_generation` | durable create / mkdir / unlink published | generation = its write id |
//! | `clear_stale` | stale record deleted, or fresh one stored | − stale mark |
//! | `clear` | checkpoint rollback | everything goes |
//!
//! A record goes when its last field empties. Only the birth is inline, so
//! a committed, idle path costs a 32 B bucket; a durable one adds a 16 B
//! box for its generation, under which what is pending hangs. Stale marks
//! are also counted outside the lock: with none set, the stale check of
//! every cache hit, `put` and `add_new` takes no lock.
//!
//! **Staged bytes and their creation.** A path's incarnations are
//! separated by unlinks: a creation is acknowledged only over a removed
//! record, so the unlink that removed it was acknowledged first. Bytes are
//! staged under the newest unlink pending at the time (0: none) and belong
//! to the first creation stamped after it — never to an older creation
//! still queued, whose file that unlink is about to remove. An unlink
//! acknowledged since the bytes were staged ended their incarnation, and
//! the next staging replaces them.
//!
//! **Removed directories.** `rmdir` inside barrier `e` records `(dir, e)`.
//! Ops are stamped at publish with the last *completed* epoch, so a stamp
//! `< e` raced the removal — rejected by the DFS under `dir`, it is
//! discarded ([`InFlight::under_removed_dir`]) — while a stamp `>= e` is a
//! re-created directory's and retries like any op. An `rmdir` that finds
//! the region drained drops the earlier entries: an op is counted in
//! flight before it reads its stamp (`RegionCore::note_enqueued`), so none
//! can still hold a stamp below an epoch released before the drained read.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use fsapi::path as fspath;
use syncguard::{level, Mutex};

/// A path's inline writeback slot; any slot pins the record against
/// eviction (until the writeback settles the cache holds the only copy of
/// the bytes). A queued writeback reads the record at commit time, so
/// later writes coalesce into it — not into one already reading.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Writeback {
    #[default]
    None,
    Queued,
    InFlight,
}

/// What a path holds only in durable mode (its generation) or while
/// something is pending for it. 16 B: a durable, idle path's box is the
/// smallest heap chunk.
#[derive(Debug, Default)]
struct Rare {
    /// Write id of the path's last namespace op (0: none).
    generation: u64,
    pending: Option<Box<Pending>>,
}

/// The fields almost no path has at any moment.
#[derive(Debug, Default)]
struct Pending {
    /// Stamps of acknowledged, unsettled unlinks (a multiset).
    unlinks: Vec<u64>,
    staged: Option<Box<Staged>>,
    writeback: Writeback,
    /// Unlinked while its shard was unreachable: a record that outlived
    /// the outage is a dead incarnation's.
    stale: bool,
}

/// Bytes of a file not yet on the DFS (Section III.D-2's "cache files"),
/// owned by the creation that will make it: the first one stamped after
/// `after`, the newest unlink pending when they were staged (module docs).
#[derive(Debug)]
struct Staged {
    after: u64,
    bytes: Vec<u8>,
}

/// What a path with nothing pending reads as.
static NONE: Pending = Pending {
    unlinks: Vec::new(),
    staged: None,
    writeback: Writeback::None,
    stale: false,
};

impl Pending {
    fn drop_stamp(&mut self, ts: u64) {
        if let Some(i) = self.unlinks.iter().position(|&t| t == ts) {
            self.unlinks.swap_remove(i);
        }
    }

    /// The staged bytes of the live incarnation, empty if none are (also
    /// when the staged ones are an unlinked incarnation's).
    fn staged_live(&mut self) -> &mut Vec<u8> {
        let after = self.unlinks.iter().copied().max().unwrap_or(0);
        if self.staged.as_ref().is_some_and(|s| after > s.after) {
            self.staged = None;
        }
        &mut self.staged.get_or_insert_with(|| Box::new(Staged { after, bytes: Vec::new() })).bytes
    }

    /// The staged bytes, if a creation stamped `ts` (or one an unlink
    /// stamped `ts` cancelled) owns them.
    fn take_owned(&mut self, ts: u64) -> Option<Vec<u8>> {
        Some(self.staged.take_if(|s| s.after < ts)?.bytes)
    }
}

#[derive(Debug, Default)]
struct PathState {
    /// Stamp of the last creation committed through this region, until an
    /// unlink commits (0: none; stamps start at 1).
    birth: u64,
    rare: Option<Box<Rare>>,
}

impl PathState {
    fn rare(&mut self) -> &mut Rare {
        self.rare.get_or_insert_with(Box::default)
    }

    fn pending(&mut self) -> &mut Pending {
        self.rare().pending.get_or_insert_with(Box::default)
    }

    fn pending_mut(&mut self) -> Option<&mut Pending> {
        self.rare.as_deref_mut()?.pending.as_deref_mut()
    }

    /// Drop what emptied; true when nothing is left.
    fn tidy(&mut self) -> bool {
        if let Some(r) = self.rare.as_deref_mut() {
            if let Some(p) = r.pending.as_deref() {
                if p.unlinks.is_empty()
                    && p.staged.is_none()
                    && p.writeback == Writeback::None
                    && !p.stale
                {
                    r.pending = None;
                }
            }
            if r.generation == 0 && r.pending.is_none() {
                self.rare = None;
            }
        }
        self.birth == 0 && self.rare.is_none()
    }
}

#[derive(Default)]
struct Table {
    paths: HashMap<Box<str>, PathState>,
    removed_dirs: Vec<(String, u64)>,
}

impl Table {
    /// `f` on `path`'s record, created if absent, dropped if left empty.
    fn edit<R>(&mut self, path: &str, f: impl FnOnce(&mut PathState) -> R) -> R {
        let Some(state) = self.paths.get_mut(path) else {
            let mut state = PathState::default();
            let out = f(&mut state);
            if !state.tidy() {
                self.paths.insert(path.into(), state);
            }
            return out;
        };
        let out = f(state);
        if state.tidy() {
            self.paths.remove(path);
        }
        out
    }

    /// `f` on what is pending for `path`, if anything is.
    fn edit_pending<R>(&mut self, path: &str, f: impl FnOnce(&mut Pending) -> R) -> Option<R> {
        self.paths.get(path)?.rare.as_ref()?.pending.as_ref()?;
        self.edit(path, |s| s.pending_mut().map(f))
    }

    fn pending(&self, path: &str) -> &Pending {
        let rare = self.paths.get(path).and_then(|s| s.rare.as_deref());
        rare.and_then(|r| r.pending.as_deref()).unwrap_or(&NONE)
    }
}

/// What the table holds (tests, [`crate::RegionReport`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InFlightCounts {
    pub paths: usize,
    /// Writeback slots, queued or in flight.
    pub writebacks: usize,
    /// Pending-unlink stamps.
    pub unlinks: usize,
    /// Paths with staged bytes.
    pub staged: usize,
    pub removed_dirs: usize,
}

/// The region's per-path table (module docs).
pub struct InFlight {
    table: Mutex<Table>,
    /// Stale marks in the table, changed under the lock and read without
    /// it only to skip the lock: a reader that sees 0 (`Acquire`, pairing
    /// with the `Release` of a change) orders itself before any mark not
    /// yet counted.
    stale: AtomicUsize,
}

impl Default for InFlight {
    fn default() -> Self {
        let table = Mutex::new(level::REGION_STATE, "pacon.region.paths", Table::default());
        Self { table, stale: AtomicUsize::new(0) }
    }
}

impl InFlight {
    /// One pass over the table.
    pub fn counts(&self) -> InFlightCounts {
        let t = self.table.lock();
        let mut c = InFlightCounts { paths: t.paths.len(), ..InFlightCounts::default() };
        c.removed_dirs = t.removed_dirs.len();
        for p in t.paths.values().filter_map(|s| s.rare.as_deref()?.pending.as_deref()) {
            c.writebacks += (p.writeback != Writeback::None) as usize;
            c.unlinks += p.unlinks.len();
            c.staged += p.staged.is_some() as usize;
        }
        c
    }

    /// Rollback dropped the ops and replaced the incarnations the table
    /// describes: forget it all, as a fresh launch would know nothing.
    pub(crate) fn clear(&self) {
        let mut t = self.table.lock();
        t.paths.clear();
        t.removed_dirs.clear();
        self.stale.store(0, Ordering::Release);
    }

    /// True when the caller must publish a `WriteInline`.
    pub(crate) fn queue_writeback(&self, path: &str) -> bool {
        let queue = |s: &mut PathState| {
            std::mem::replace(&mut s.pending().writeback, Writeback::Queued) != Writeback::Queued
        };
        self.table.lock().edit(path, queue)
    }

    pub(crate) fn claim_writebacks(&self, paths: &[&str]) {
        let mut t = self.table.lock();
        for path in paths {
            t.edit_pending(path, |r| {
                if r.writeback != Writeback::None {
                    r.writeback = Writeback::InFlight;
                }
            });
        }
    }

    /// Settled for good, not sent back to the retry backlog. A write that
    /// queued anew since keeps the slot.
    pub(crate) fn release_writeback(&self, path: &str) {
        self.table.lock().edit_pending(path, |r| {
            if r.writeback == Writeback::InFlight {
                r.writeback = Writeback::None;
            }
        });
    }

    /// Eviction: drop from `victims` every path whose slot pins it.
    pub(crate) fn drop_pinned<T>(&self, victims: &mut Vec<(&str, T)>) {
        let t = self.table.lock();
        victims.retain(|(path, _)| t.pending(path).writeback == Writeback::None);
    }

    /// Before the publish: a commit process may settle the unlink as soon
    /// as it sees it. The slot goes so that a `WriteInline` queued before
    /// the unlink cannot absorb writes to a re-creation. `degraded`: the
    /// record's shard was unreachable, so a record that survives the
    /// outage carries no removed-mark — it is marked stale instead.
    pub(crate) fn ack_unlink(&self, path: &str, ts: u64, degraded: bool) {
        self.table.lock().edit(path, |s| {
            let r = s.pending();
            r.writeback = Writeback::None;
            r.unlinks.push(ts);
            if degraded && !std::mem::replace(&mut r.stale, true) {
                self.stale.fetch_add(1, Ordering::Release);
            }
        });
    }

    /// Undo `ack_unlink`: the publish failed.
    pub(crate) fn retract_unlink(&self, path: &str, ts: u64, degraded: bool) {
        self.table.lock().edit_pending(path, |r| {
            r.drop_stamp(ts);
            if degraded {
                self.unmark_stale(r);
            }
        });
    }

    /// The unlink stamped `ts` settled in the publish buffer, and with it
    /// the creation it cancelled and that creation's staged bytes.
    pub(crate) fn cancel_create(&self, path: &str, ts: u64) {
        self.table.lock().edit_pending(path, |r| {
            r.drop_stamp(ts);
            r.take_owned(ts);
        });
    }

    /// Committed, discarded or dropped by a commit process.
    pub(crate) fn settle_unlink(&self, path: &str, ts: u64, committed: bool) {
        self.table.lock().edit(path, |s| {
            if committed {
                s.birth = 0;
            }
            if let Some(r) = s.pending_mut() {
                r.drop_stamp(ts);
            }
        });
    }

    /// Then the DFS copy may still hold the file, but program order says
    /// it is gone: reads must not resurrect it.
    pub(crate) fn unlink_pending(&self, path: &str) -> bool {
        !self.table.lock().pending(path).unlinks.is_empty()
    }

    /// Per `(path, ts)`, in one hold (none for no items): is an unlink of
    /// `path` stamped after `ts` pending?
    pub(crate) fn unlinks_pending_after(&self, items: &[(&str, u64)]) -> Vec<bool> {
        if items.is_empty() {
            return Vec::new();
        }
        let t = self.table.lock();
        let after = |&(path, ts): &(&str, u64)| t.pending(path).unlinks.iter().any(|&u| u > ts);
        items.iter().map(after).collect()
    }

    pub(crate) fn note_birth(&self, path: &str, ts: u64) {
        // Nearly always a new record: one hash, where `edit` takes two.
        self.table.lock().paths.entry(path.into()).or_default().birth = ts;
    }

    /// Duplicate admission (DESIGN §10.4) of a creation stamped `ts` that
    /// hit `AlreadyExists`: `None` without a recorded birth, else whether
    /// the birth is older with no acknowledged unlink stamped in between.
    pub(crate) fn birth_precedes(&self, path: &str, ts: u64) -> Option<bool> {
        let t = self.table.lock();
        let b = t.paths.get(path).map_or(0, |s| s.birth);
        let between = t.pending(path).unlinks.iter().any(|&u| b < u && u < ts);
        (b != 0).then_some(b < ts && !between)
    }

    /// No lock while nothing is marked.
    pub(crate) fn is_stale(&self, path: &str) -> bool {
        self.stale.load(Ordering::Acquire) != 0 && self.table.lock().pending(path).stale
    }

    /// No lock while nothing is marked.
    pub(crate) fn clear_stale(&self, path: &str) {
        if self.stale.load(Ordering::Acquire) != 0 {
            self.table.lock().edit_pending(path, |r| self.unmark_stale(r));
        }
    }

    fn unmark_stale(&self, r: &mut Pending) {
        if std::mem::take(&mut r.stale) {
            self.stale.fetch_sub(1, Ordering::Release);
        }
    }

    /// `data` is the whole content.
    pub(crate) fn stage(&self, path: &str, data: Vec<u8>) {
        self.table.lock().edit(path, |s| *s.pending().staged_live() = data);
    }

    pub(crate) fn stage_at(&self, path: &str, offset: usize, data: &[u8]) {
        self.table.lock().edit(path, |s| {
            let buf = s.pending().staged_live();
            let end = offset + data.len();
            if buf.len() < end {
                buf.resize(end, 0);
            }
            buf[offset..end].copy_from_slice(data);
        });
    }

    pub(crate) fn read_staged(&self, path: &str, offset: usize, len: usize) -> Vec<u8> {
        let t = self.table.lock();
        let buf = t.pending(path).staged.as_deref().map_or(&[][..], |s| &s.bytes);
        let start = offset.min(buf.len());
        buf[start..(start + len).min(buf.len())].to_vec()
    }

    /// Per `(path, ts)`: the staged bytes of `path` if the creation stamped
    /// `ts` owns them, in one hold (none for no items).
    pub(crate) fn take_staged<'a>(&self, items: &[(&'a str, u64)]) -> Vec<(&'a str, Vec<u8>)> {
        if items.is_empty() {
            return Vec::new();
        }
        let mut t = self.table.lock();
        let mut take = |(path, ts): (&'a str, u64)| {
            Some((path, t.edit_pending(path, |r| r.take_owned(ts))??))
        };
        items.iter().filter_map(|&item| take(item)).collect()
    }

    /// `dir` joins the removed list — alone if the region is `drained`.
    pub(crate) fn remove_dir(&self, dir: &str, epoch: u64, drained: bool) {
        let mut t = self.table.lock();
        if drained {
            t.removed_dirs.clear();
        }
        t.removed_dirs.push((dir.to_string(), epoch));
        t.paths.retain(|path, s| {
            let under = fspath::is_same_or_ancestor(dir, path);
            if let Some(r) = s.pending_mut().filter(|_| under) {
                r.writeback = Writeback::None;
                r.staged = None;
            }
            !s.tidy()
        });
    }

    /// Did an op stamped `epoch` that the DFS rejected race the removal of
    /// its directory?
    pub(crate) fn under_removed_dir(&self, path: &str, epoch: u64) -> bool {
        let t = self.table.lock();
        t.removed_dirs.iter().any(|(dir, e)| epoch < *e && fspath::is_same_or_ancestor(dir, path))
    }

    /// Also how a launch seeds those earlier incarnations left on the DFS.
    pub(crate) fn new_generation(&self, path: &str, write_id: u64) {
        self.table.lock().edit(path, |s| s.rare().generation = write_id);
    }

    /// What a writeback of `path` inherits (0: none recorded).
    pub(crate) fn generation(&self, path: &str) -> u64 {
        let t = self.table.lock();
        t.paths.get(path).and_then(|s| s.rare.as_deref()).map_or(0, |r| r.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_committed_path_costs_a_32_byte_bucket_and_a_durable_one_16_bytes_more() {
        assert_eq!(std::mem::size_of::<(Box<str>, PathState)>(), 32);
        assert_eq!(std::mem::size_of::<Rare>(), 16);
        assert_eq!(std::mem::size_of::<Pending>(), 40);
    }

    #[test]
    fn a_record_goes_when_its_last_field_empties() {
        let t = InFlight::default();
        assert!(t.queue_writeback("/w/f"));
        assert!(!t.queue_writeback("/w/f"), "queued: later writes coalesce");
        t.note_birth("/w/f", 3);
        t.claim_writebacks(&["/w/f"]);
        assert!(t.queue_writeback("/w/f"), "in flight: a fresh writeback is due");
        t.claim_writebacks(&["/w/f"]);
        t.release_writeback("/w/f");
        assert_eq!(t.counts(), InFlightCounts { paths: 1, ..InFlightCounts::default() });
        t.ack_unlink("/w/f", 5, false);
        assert!(t.unlink_pending("/w/f"));
        assert_eq!(t.birth_precedes("/w/f", 7), Some(false), "an unlink lies in between");
        assert_eq!(t.birth_precedes("/w/f", 4), Some(true));
        t.settle_unlink("/w/f", 5, true);
        assert_eq!(t.counts(), InFlightCounts::default());
        assert_eq!(t.birth_precedes("/w/f", 7), None);
    }

    #[test]
    fn stale_marks_are_counted_and_cleared() {
        let t = InFlight::default();
        assert!(!t.is_stale("/w/f"));
        t.ack_unlink("/w/f", 1, true);
        t.ack_unlink("/w/f", 2, true);
        assert!(t.is_stale("/w/f"));
        assert_eq!(t.stale.load(Ordering::Acquire), 1, "one mark per path");
        t.retract_unlink("/w/f", 2, true);
        assert!(!t.is_stale("/w/f"));
        t.settle_unlink("/w/f", 1, true);
        assert_eq!(t.counts(), InFlightCounts::default());
        assert_eq!(t.stale.load(Ordering::Acquire), 0);
    }

    #[test]
    fn staged_bytes_are_patched_read_and_taken() {
        let t = InFlight::default();
        t.stage_at("/w/f", 2, b"cd");
        t.stage_at("/w/f", 0, b"ab");
        assert_eq!(t.read_staged("/w/f", 1, 10), b"bcd");
        assert_eq!(t.read_staged("/w/g", 0, 10), b"");
        t.stage("/w/g", Vec::new());
        let taken = t.take_staged(&[("/w/f", 1), ("/w/x", 1), ("/w/g", 1)]);
        assert_eq!(taken, [("/w/f", b"abcd".to_vec()), ("/w/g", vec![])]);
        assert_eq!(t.counts(), InFlightCounts::default());
    }

    /// Created at 1, unlinked at 2 and created again at 3: bytes staged
    /// after the unlink are the re-creation's, and the unlink ends the
    /// first incarnation's bytes.
    #[test]
    fn staged_bytes_belong_to_the_creation_after_the_newest_unlink() {
        let t = InFlight::default();
        t.stage("/w/f", b"old".to_vec());
        t.ack_unlink("/w/f", 2, false);
        t.stage_at("/w/f", 0, b"new");
        assert_eq!(t.read_staged("/w/f", 0, 10), b"new", "the unlinked incarnation's bytes go");
        assert!(t.take_staged(&[("/w/f", 1)]).is_empty(), "the older creation owns nothing");
        t.cancel_create("/w/f", 2);
        assert_eq!(t.counts().staged, 1, "nor does the creation the unlink cancels");
        t.stage_at("/w/f", 3, b"+");
        assert_eq!(t.take_staged(&[("/w/f", 3)]), [("/w/f", b"new+".to_vec())]);
        assert_eq!(t.counts(), InFlightCounts::default());
    }

    #[test]
    fn rmdir_prunes_its_subtree_and_the_removed_list_when_drained() {
        let t = InFlight::default();
        t.queue_writeback("/w/d/f");
        t.stage("/w/d/g", b"x".to_vec());
        t.stage("/w/e", b"y".to_vec());
        t.remove_dir("/w/d", 1, false);
        t.remove_dir("/w/e/sub", 2, false);
        let c = t.counts();
        assert_eq!((c.paths, c.staged, c.writebacks, c.removed_dirs), (1, 1, 0, 2));
        assert!(t.under_removed_dir("/w/d/f", 0));
        assert!(!t.under_removed_dir("/w/d/f", 1), "a stamp at the epoch is a re-created dir's");
        t.remove_dir("/w/x", 3, true);
        assert_eq!(t.counts().removed_dirs, 1);
        assert!(!t.under_removed_dir("/w/d/f", 0));
    }
}
