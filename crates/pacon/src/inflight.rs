//! What the region remembers about a path between "acknowledged" and
//! "committed" (Section III.D–E): one record per path, in one table behind
//! one lock (`pacon.region.paths`), beside the committed creations' births
//! by DFS inode. The record's fields are private; the methods of
//! [`InFlight`] are the protocol's transitions, one each:
//!
//! | transition | by | the record |
//! |---|---|---|
//! | `queue_writeback` | inline write | slot → queued (publish unless it was) |
//! | `claim_writebacks` | commit process, before it reads the records | queued → in flight |
//! | `release_writeback` | writeback settled | in flight → none |
//! | `ack_unlink` | unlink acknowledged | slot → none, + stamp (+ stale mark, degraded) |
//! | `retract_unlink` | its publish failed | − stamp (− stale mark) |
//! | `cancel_create` | unlink annihilated a buffered create | − stamp, − its staged bytes |
//! | `settle_unlink` | unlink settled | − stamp (− its inode's birth, committed) |
//! | `note_birth` | creation committed | its inode's birth = its stamp (no record) |
//! | `stage` / `stage_at` | data for a file not on the DFS yet | + staged bytes |
//! | `write_through` | creation about to mark its large record committed | staged bytes on the DFS |
//! | `take_staged` | creation committed or discarded | − its staged bytes |
//! | `unstage` | staged after the creation settled them | − staged bytes |
//! | `remove_dir` | rmdir, inside its barrier | − slots and staged bytes under it |
//! | `new_generation` | durable create / mkdir / unlink published | generation = its write id |
//! | `clear_stale` | stale record deleted, or fresh one stored | − stale mark |
//! | `clear` | checkpoint rollback | everything goes |
//!
//! A record goes when its last field empties, so a volatile region's
//! committed, idle path costs nothing: its birth is 8 B in a column
//! indexed by the inode the creation made, cleared when an unlink of that
//! inode commits, and a drained region holds no record. A durable path keeps its generation inline in a 32 B bucket,
//! under which what is pending hangs. Stale marks are also counted
//! outside the lock: with none set, the stale check of every cache hit,
//! `put` and `add_new` takes no lock.
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
//! **Staging and the creation meet here** (DESIGN §10.4). A writer stages
//! after it read an uncommitted record, so its bytes can arrive after the
//! creation settled what was staged. Before the creation marks a large
//! record committed, `write_through` writes the staged bytes to the DFS
//! and then flags them `on_dfs`: a reader of the mark finds them there,
//! and a later staging is told to write its bytes there too. Settling
//! (`take_staged`) drops flagged bytes and counts a settle; a writer that
//! read the count before its record and finds it moved on staging reads
//! the record again, and, committed, writes the bytes itself.
//!
//! **Removed directories.** `rmdir` inside barrier `e` records `(dir, e)`.
//! Ops are stamped at publish with the last *completed* epoch, so a stamp
//! `< e` raced the removal — rejected by the DFS under `dir`, it is
//! discarded ([`InFlight::under_removed_dir`]) — while a stamp `>= e` is a
//! re-created directory's and retries like any op. An `rmdir` that finds
//! the region drained drops the earlier entries: an op is counted in
//! flight before it reads its stamp (`RegionCore::note_enqueued`), so none
//! can still hold a stamp below an epoch released before the drained read.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use dfs::Ino;
use fsapi::path as fspath;
use simnet::FastMap;
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
    /// Stagings so far: a write-through pass that saw this many wrote all.
    edits: u32,
    /// Written to the DFS by their creation, which marks the record
    /// committed next; kept for readers of the uncommitted record.
    on_dfs: bool,
}

/// What became of bytes handed to [`InFlight::stage`] or
/// [`InFlight::stage_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Staging {
    /// Staged: the creation that owns them writes them to the DFS.
    Held,
    /// Staged for readers of the uncommitted record, but the creation has
    /// written what was staged: the caller writes them to the DFS too.
    AlsoToDfs,
    /// Staged, but a creation settled its staged bytes since the caller
    /// read [`InFlight::settles`]: if its record now reads committed, the
    /// caller takes them back ([`InFlight::unstage`]) and writes them to
    /// the DFS itself.
    Recheck,
}

impl Staged {
    fn empty(after: u64) -> Self {
        Self { after, bytes: Vec::new(), edits: 0, on_dfs: false }
    }

    fn outcome(&self, settled_since: bool) -> Staging {
        match (self.on_dfs, settled_since) {
            (true, _) => Staging::AlsoToDfs,
            (false, true) => Staging::Recheck,
            (false, false) => Staging::Held,
        }
    }
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

    fn newest_unlink(&self) -> u64 {
        self.unlinks.iter().copied().max().unwrap_or(0)
    }

    /// The staged bytes of the live incarnation, empty if none are (also
    /// when the staged ones are an unlinked incarnation's), counting the
    /// staging about to change them.
    fn staged_live(&mut self) -> &mut Staged {
        let after = self.newest_unlink();
        if self.staged.as_ref().is_some_and(|s| after > s.after) {
            self.staged = None;
        }
        let staged = self.staged.get_or_insert_with(|| Box::new(Staged::empty(after)));
        staged.edits = staged.edits.wrapping_add(1);
        staged
    }

    /// The staged bytes a creation stamped `ts` owns, empty ones if none
    /// are staged; `None` while they are a later incarnation's.
    fn owned_by(&mut self, ts: u64) -> Option<&mut Staged> {
        let after = self.newest_unlink();
        if self.staged.is_none() && after < ts {
            self.staged = Some(Box::new(Staged::empty(after)));
        }
        self.staged.as_deref_mut().filter(|s| s.after < ts)
    }

    /// The staged bytes, if a creation stamped `ts` (or one an unlink
    /// stamped `ts` cancelled) owns them.
    fn take_owned(&mut self, ts: u64) -> Option<Box<Staged>> {
        self.staged.take_if(|s| s.after < ts)
    }
}

/// What a path holds in durable mode (its generation) or while something
/// is pending for it.
#[derive(Debug, Default)]
struct PathState {
    /// Write id of the path's last namespace op (0: none).
    generation: u64,
    pending: Option<Box<Pending>>,
}

impl PathState {
    fn pending(&mut self) -> &mut Pending {
        self.pending.get_or_insert_with(Box::default)
    }

    fn staged(&self) -> bool {
        self.pending.as_deref().is_some_and(|p| p.staged.is_some())
    }

    /// Drop what emptied; true when nothing is left.
    fn tidy(&mut self) -> bool {
        if let Some(p) = self.pending.as_deref() {
            if p.unlinks.is_empty() && p.staged.is_none() && p.writeback == Writeback::None && !p.stale
            {
                self.pending = None;
            }
        }
        self.generation == 0 && self.pending.is_none()
    }
}

/// Stamps per page of [`Births`]: 32 KiB.
const BIRTH_PAGE: usize = 4096;

/// The stamp of each creation committed through this region, by the DFS
/// inode it made (0: none; stamps start at 1), until an unlink of the file
/// commits. The column holds a zeroed page per 4096 inode numbers that
/// have a stamp and never moves what it holds; a page goes when its last
/// stamp does, and only the page list (24 B per page) grows by doubling.
#[derive(Default)]
struct Births {
    pages: Vec<Option<BirthPage>>,
}

struct BirthPage {
    /// Nonzero stamps in `stamps`.
    live: u32,
    stamps: Box<[u64]>,
}

/// `ino`'s page and its slot in the page.
fn birth_slot(ino: Ino) -> (usize, usize) {
    let i = ino.0 as usize;
    (i / BIRTH_PAGE, i % BIRTH_PAGE)
}

impl Births {
    fn get(&self, ino: Ino) -> u64 {
        let (page, slot) = birth_slot(ino);
        self.pages.get(page).and_then(Option::as_ref).map_or(0, |p| p.stamps[slot])
    }

    fn set(&mut self, ino: Ino, ts: u64) {
        let (page, slot) = birth_slot(ino);
        if self.pages.len() <= page {
            self.pages.resize_with(page + 1, || None);
        }
        let p = self.pages[page].get_or_insert_with(|| BirthPage {
            live: 0,
            stamps: vec![0; BIRTH_PAGE].into_boxed_slice(),
        });
        p.live += (p.stamps[slot] == 0) as u32;
        p.stamps[slot] = ts;
    }

    /// `ino` was unlinked: no file reads its stamp again (inode numbers
    /// are never reused).
    fn remove(&mut self, ino: Ino) {
        let (page, slot) = birth_slot(ino);
        let Some(entry) = self.pages.get_mut(page) else { return };
        let Some(p) = entry.as_mut().filter(|p| p.stamps[slot] != 0) else { return };
        p.stamps[slot] = 0;
        p.live -= 1;
        if p.live == 0 {
            *entry = None;
        }
    }
}

#[derive(Default)]
struct Table {
    paths: FastMap<Box<str>, PathState>,
    births: Births,
    removed_dirs: Vec<(String, u64)>,
    /// Paths with staged bytes, kept as `edit`, `remove_dir` and `clear`
    /// change them: the region report reads it without a pass.
    staged: usize,
}

impl Table {
    /// `f` on `path`'s record, created if absent, dropped if left empty.
    fn edit<R>(&mut self, path: &str, f: impl FnOnce(&mut PathState) -> R) -> R {
        let Some(state) = self.paths.get_mut(path) else {
            let mut state = PathState::default();
            let out = f(&mut state);
            self.staged += state.staged() as usize;
            if !state.tidy() {
                self.paths.insert(path.into(), state);
            }
            return out;
        };
        let before = state.staged();
        let out = f(state);
        self.staged = self.staged + state.staged() as usize - before as usize;
        if state.tidy() {
            self.paths.remove(path);
        }
        out
    }

    /// `f` on what is pending for `path`, if anything is.
    fn edit_pending<R>(&mut self, path: &str, f: impl FnOnce(&mut Pending) -> R) -> Option<R> {
        self.paths.get(path)?.pending.as_ref()?;
        self.edit(path, |s| s.pending.as_deref_mut().map(f))
    }

    fn pending(&self, path: &str) -> &Pending {
        self.paths.get(path).and_then(|s| s.pending.as_deref()).unwrap_or(&NONE)
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
    /// Calls that settled creations' staged bytes ([`InFlight::take_staged`]),
    /// bumped under the lock (module docs).
    settles: AtomicU64,
}

impl Default for InFlight {
    fn default() -> Self {
        let table = Mutex::new(level::REGION_STATE, "pacon.region.paths", Table::default());
        Self { table, stale: AtomicUsize::new(0), settles: AtomicU64::new(0) }
    }
}

impl InFlight {
    /// One pass over the table.
    pub fn counts(&self) -> InFlightCounts {
        let t = self.table.lock();
        let mut c = InFlightCounts { paths: t.paths.len(), ..InFlightCounts::default() };
        c.removed_dirs = t.removed_dirs.len();
        for p in t.paths.values().filter_map(|s| s.pending.as_deref()) {
            c.writebacks += (p.writeback != Writeback::None) as usize;
            c.unlinks += p.unlinks.len();
            c.staged += p.staged.is_some() as usize;
        }
        debug_assert_eq!(c.staged, t.staged, "the running count of staged paths drifted");
        c
    }

    /// Paths with staged bytes: [`InFlightCounts::staged`] without the pass.
    pub(crate) fn staged_files(&self) -> usize {
        self.table.lock().staged
    }

    /// Rollback dropped the ops and replaced the incarnations the table
    /// describes: forget it all, as a fresh launch would know nothing.
    pub(crate) fn clear(&self) {
        *self.table.lock() = Table::default();
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

    /// Is an inline writeback of `path` queued or in flight?
    pub(crate) fn writeback_pending(&self, path: &str) -> bool {
        self.table.lock().pending(path).writeback != Writeback::None
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
    /// the creation it cancelled and that creation's staged bytes (no
    /// writer can stage for it any more: its record is marked removed).
    pub(crate) fn cancel_create(&self, path: &str, ts: u64) {
        self.table.lock().edit_pending(path, |r| {
            r.drop_stamp(ts);
            r.take_owned(ts);
        });
    }

    /// Committed (`removed`: the inode it unlinked), discarded or dropped
    /// by a commit process.
    pub(crate) fn settle_unlink(&self, path: &str, ts: u64, removed: Option<Ino>) {
        let mut t = self.table.lock();
        if let Some(ino) = removed {
            t.births.remove(ino);
        }
        t.edit_pending(path, |r| r.drop_stamp(ts));
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

    /// The creation stamped `ts` made `ino`.
    pub(crate) fn note_birth(&self, ino: Ino, ts: u64) {
        self.table.lock().births.set(ino, ts);
    }

    /// Duplicate admission (DESIGN §10.4) of a creation of `path` stamped
    /// `ts` that hit `AlreadyExists`, `blocker` the file the path names:
    /// `None` without a recorded birth of it, else whether the birth is
    /// older with no acknowledged unlink of `path` stamped in between.
    pub(crate) fn birth_precedes(&self, path: &str, blocker: Ino, ts: u64) -> Option<bool> {
        let t = self.table.lock();
        let b = t.births.get(blocker);
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

    /// Read before the record a staging follows: see [`Staging::Recheck`].
    pub(crate) fn settles(&self) -> u64 {
        self.settles.load(Ordering::Acquire)
    }

    /// `data` is the whole content; `settles` was read before the record.
    pub(crate) fn stage(&self, path: &str, data: &[u8], settles: u64) -> Staging {
        let mut t = self.table.lock();
        let since = self.settles.load(Ordering::Acquire) != settles;
        t.edit(path, |s| {
            let staged = s.pending().staged_live();
            staged.bytes.clear();
            staged.bytes.extend_from_slice(data);
            staged.outcome(since)
        })
    }

    /// [`Self::stage`] of `data` at `offset` into what is staged.
    pub(crate) fn stage_at(&self, path: &str, offset: usize, data: &[u8], settles: u64) -> Staging {
        let mut t = self.table.lock();
        let since = self.settles.load(Ordering::Acquire) != settles;
        t.edit(path, |s| {
            let staged = s.pending().staged_live();
            let end = offset + data.len();
            if staged.bytes.len() < end {
                staged.bytes.resize(end, 0);
            }
            staged.bytes[offset..end].copy_from_slice(data);
            staged.outcome(since)
        })
    }

    /// The record read committed after a [`Staging::Recheck`]: drop what
    /// is staged for `path` unless its creation wrote it to the DFS.
    pub(crate) fn unstage(&self, path: &str) {
        self.table.lock().edit_pending(path, |r| {
            r.staged.take_if(|s| !s.on_dfs);
        });
    }

    /// Before the creation stamped `ts` marks its large record committed:
    /// hand `write` what is staged for it, again while stagings arrive in
    /// the meantime, then flag the bytes `on_dfs` (module docs). The bytes
    /// stay staged for readers of the uncommitted record until
    /// [`Self::take_staged`]. Nothing for bytes already flagged.
    pub(crate) fn write_through(&self, path: &str, ts: u64, mut write: impl FnMut(&[u8])) {
        let mut written = 0;
        loop {
            let pass = self.table.lock().edit(path, |s| {
                let staged = s.pending().owned_by(ts).filter(|st| !st.on_dfs)?;
                if staged.edits == written {
                    staged.on_dfs = true;
                    return None;
                }
                Some((staged.bytes.clone(), staged.edits))
            });
            let Some((bytes, edits)) = pass else { return };
            write(&bytes);
            written = edits;
        }
    }

    pub(crate) fn read_staged(&self, path: &str, offset: usize, len: usize) -> Vec<u8> {
        let t = self.table.lock();
        let buf = t.pending(path).staged.as_deref().map_or(&[][..], |s| &s.bytes);
        let start = offset.min(buf.len());
        buf[start..(start + len).min(buf.len())].to_vec()
    }

    /// Per `(path, ts)`: the staged bytes of `path` if the creation stamped
    /// `ts` owns them and has not written them to the DFS already, in one
    /// hold (none for no items).
    pub(crate) fn take_staged<'a>(&self, items: &[(&'a str, u64)]) -> Vec<(&'a str, Vec<u8>)> {
        if items.is_empty() {
            return Vec::new();
        }
        let mut t = self.table.lock();
        self.settles.fetch_add(1, Ordering::Release);
        let mut take = |(path, ts): (&'a str, u64)| {
            let staged = t.edit_pending(path, |r| r.take_owned(ts))??;
            (!staged.on_dfs).then_some((path, staged.bytes))
        };
        items.iter().filter_map(|&item| take(item)).collect()
    }

    /// `dir` joins the removed list — alone if the region is `drained`.
    pub(crate) fn remove_dir(&self, dir: &str, epoch: u64, drained: bool) {
        let mut guard = self.table.lock();
        let t = &mut *guard;
        if drained {
            t.removed_dirs.clear();
        }
        t.removed_dirs.push((dir.to_string(), epoch));
        t.paths.retain(|path, s| {
            let under = fspath::is_same_or_ancestor(dir, path);
            if let Some(r) = s.pending.as_deref_mut().filter(|_| under) {
                r.writeback = Writeback::None;
                t.staged -= r.staged.take().is_some() as usize;
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
        self.table.lock().edit(path, |s| s.generation = write_id);
    }

    /// What a writeback of `path` inherits (0: none recorded).
    pub(crate) fn generation(&self, path: &str) -> u64 {
        let t = self.table.lock();
        t.paths.get(path).map_or(0, |s| s.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_committed_path_keeps_no_record_a_durable_one_a_32_byte_bucket() {
        assert_eq!(std::mem::size_of::<(Box<str>, PathState)>(), 32);
        assert_eq!(std::mem::size_of::<Pending>(), 40);
    }

    /// Bug 20: a writer read the record before its creation committed and
    /// stages only after the creation settled what was staged. Each
    /// position of the staging against the creation's steps — write
    /// through, mark (not a table step), settle — either reaches the
    /// creation's writes or tells the writer to write the DFS itself.
    #[test]
    fn a_staging_is_never_stranded_by_its_creation() {
        let creation = |t: &InFlight| {
            let mut written = Vec::new();
            t.write_through("/w/f", 1, |bytes| written.push(bytes.to_vec()));
            written
        };
        // Staged before the write-through: written by it, kept for
        // readers of the uncommitted record until the settle drops it.
        let t = InFlight::default();
        let settles = t.settles();
        assert_eq!(t.stage("/w/f", b"early", settles), Staging::Held);
        assert_eq!(creation(&t), [b"early".to_vec()]);
        assert_eq!(t.read_staged("/w/f", 0, 10), b"early");
        assert!(t.take_staged(&[("/w/f", 1)]).is_empty(), "on the DFS already");
        assert_eq!(t.counts(), InFlightCounts::default());

        // Between the write-through and the settle: staged for readers,
        // and the writer writes the DFS too.
        let t = InFlight::default();
        let settles = t.settles();
        assert!(creation(&t).is_empty(), "nothing staged yet");
        assert_eq!(t.stage_at("/w/f", 0, b"mid", settles), Staging::AlsoToDfs);
        assert_eq!(t.read_staged("/w/f", 0, 10), b"mid");
        assert!(creation(&t).is_empty(), "a second pass writes nothing");
        assert!(t.take_staged(&[("/w/f", 1)]).is_empty());
        assert_eq!(t.counts(), InFlightCounts::default());

        // After the settle: the writer must read the record again, and on
        // finding it committed take its bytes back.
        let t = InFlight::default();
        let settles = t.settles();
        assert!(creation(&t).is_empty());
        assert!(t.take_staged(&[("/w/f", 1)]).is_empty());
        assert_eq!(t.stage("/w/f", b"late", settles), Staging::Recheck);
        t.unstage("/w/f");
        assert_eq!(t.counts(), InFlightCounts::default(), "nothing left stranded");
    }

    /// A staging that lands while the write-through writes is written by
    /// its next pass.
    #[test]
    fn a_write_through_repeats_until_no_staging_is_new() {
        let t = InFlight::default();
        t.stage("/w/f", b"ab", 0);
        let mut passes = Vec::new();
        t.write_through("/w/f", 1, |bytes| {
            if passes.is_empty() {
                assert_eq!(t.stage_at("/w/f", 2, b"cd", 0), Staging::Held);
            }
            passes.push(bytes.to_vec());
        });
        assert_eq!(passes, [b"ab".to_vec(), b"abcd".to_vec()]);
        assert_eq!(t.stage_at("/w/f", 4, b"e", 0), Staging::AlsoToDfs);
        assert_eq!(t.read_staged("/w/f", 0, 10), b"abcde");
    }

    #[test]
    fn a_record_goes_when_its_last_field_empties() {
        let t = InFlight::default();
        assert!(t.queue_writeback("/w/f"));
        assert!(!t.queue_writeback("/w/f"), "queued: later writes coalesce");
        t.note_birth(Ino(9), 3);
        t.claim_writebacks(&["/w/f"]);
        assert!(t.queue_writeback("/w/f"), "in flight: a fresh writeback is due");
        t.claim_writebacks(&["/w/f"]);
        t.release_writeback("/w/f");
        assert_eq!(t.counts(), InFlightCounts::default(), "a birth keeps no record");
        t.ack_unlink("/w/f", 5, false);
        assert!(t.unlink_pending("/w/f"));
        assert_eq!(t.birth_precedes("/w/f", Ino(9), 7), Some(false), "an unlink lies in between");
        assert_eq!(t.birth_precedes("/w/f", Ino(9), 4), Some(true));
        t.settle_unlink("/w/f", 5, None);
        assert_eq!(t.counts(), InFlightCounts::default());
        assert_eq!(t.birth_precedes("/w/f", Ino(9), 7), Some(true), "nothing in between now");
        assert_eq!(t.birth_precedes("/w/f", Ino(10), 7), None, "the re-created file's");
        t.ack_unlink("/w/f", 8, false);
        t.settle_unlink("/w/f", 8, Some(Ino(9)));
        assert_eq!(t.birth_precedes("/w/f", Ino(9), 9), None, "a committed unlink takes the birth");
    }

    #[test]
    fn births_are_read_back_by_inode_across_pages() {
        let t = InFlight::default();
        let far = Ino(3 * BIRTH_PAGE as u64 + 5);
        t.note_birth(Ino(2), 4);
        t.note_birth(far, 6);
        assert_eq!(t.birth_precedes("/w/f", Ino(2), 5), Some(true));
        assert_eq!(t.birth_precedes("/w/g", far, 5), Some(false));
        assert_eq!(t.birth_precedes("/w/g", Ino(far.0 - 1), 5), None);
        assert_eq!(t.birth_precedes("/w/g", Ino(BIRTH_PAGE as u64), 5), None, "an absent page");
        assert_eq!(t.table.lock().births.pages.iter().flatten().count(), 2);
        t.clear();
        assert_eq!(t.birth_precedes("/w/f", Ino(2), 5), None);
    }

    /// Create-and-unlink churn keeps the column bounded: a page goes once
    /// every inode stamped on it has been unlinked.
    #[test]
    fn a_birth_page_goes_with_its_last_stamp() {
        let t = InFlight::default();
        let pages = || t.table.lock().births.pages.iter().flatten().count();
        for i in 0..3 * BIRTH_PAGE as u64 {
            t.note_birth(Ino(i + 1), i + 1);
            if i >= 2 {
                t.settle_unlink("/w/f", 0, Some(Ino(i - 1)));
            }
        }
        assert_eq!(pages(), 2, "only the pages of the last two inodes are left");
        t.settle_unlink("/w/f", 0, Some(Ino(1)));
        t.settle_unlink("/w/f", 0, Some(Ino(9)));
        assert_eq!(pages(), 2, "an unlink of a cleared inode changes nothing");
        t.settle_unlink("/w/f", 0, Some(Ino(3 * BIRTH_PAGE as u64 - 1)));
        t.settle_unlink("/w/f", 0, Some(Ino(3 * BIRTH_PAGE as u64)));
        assert_eq!(pages(), 0);
        assert_eq!(t.counts(), InFlightCounts::default());
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
        t.settle_unlink("/w/f", 1, None);
        assert_eq!(t.counts(), InFlightCounts::default());
        assert_eq!(t.stale.load(Ordering::Acquire), 0);
    }

    #[test]
    fn staged_bytes_are_patched_read_and_taken() {
        let t = InFlight::default();
        t.stage_at("/w/f", 2, b"cd", 0);
        t.stage_at("/w/f", 0, b"ab", 0);
        assert_eq!(t.read_staged("/w/f", 1, 10), b"bcd");
        assert_eq!(t.read_staged("/w/g", 0, 10), b"");
        t.stage("/w/g", b"", 0);
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
        t.stage("/w/f", b"old", 0);
        t.ack_unlink("/w/f", 2, false);
        t.stage_at("/w/f", 0, b"new", 0);
        assert_eq!(t.read_staged("/w/f", 0, 10), b"new", "the unlinked incarnation's bytes go");
        assert!(t.take_staged(&[("/w/f", 1)]).is_empty(), "the older creation owns nothing");
        t.cancel_create("/w/f", 2);
        assert_eq!(t.counts().staged, 1, "nor does the creation the unlink cancels");
        t.stage_at("/w/f", 3, b"+", 0);
        assert_eq!(t.take_staged(&[("/w/f", 3)]), [("/w/f", b"new+".to_vec())]);
        assert_eq!(t.counts(), InFlightCounts::default());
    }

    #[test]
    fn rmdir_prunes_its_subtree_and_the_removed_list_when_drained() {
        let t = InFlight::default();
        t.queue_writeback("/w/d/f");
        t.stage("/w/d/g", b"x", 0);
        t.stage("/w/e", b"y", 0);
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
