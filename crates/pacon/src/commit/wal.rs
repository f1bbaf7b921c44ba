//! Durable commit queue: the region's write-ahead log, one for every node.
//!
//! In durable mode every committable operation is journaled here —
//! framed by the `lsmkv` WAL (length + CRC32, torn-tail tolerant, written
//! into zero-filled space so a group fsync flushes data blocks only) —
//! *before* the client's mutation is acknowledged locally. The record
//! carries the op's `(path, write_id, generation)` replay identity, so
//! after a crash the next launch can commit the surviving entries again,
//! idempotently and any number of times: they re-enter one worker's commit
//! route in append order, which is publish order (`region::recover`). Once
//! every enqueued op has been confirmed against the DFS the log is
//! truncated; after a recovery, once, at its end.
//!
//! Record mapping onto the lsmkv frame: `seq` = `write_id`, `key` =
//! the op's path, `value` = the payload below.
//!
//! ```text
//! u8  tag (0 mkdir | 1 create | 2 unlink | 3 write)
//! u8  flags           (bit 0: published while degraded)
//! u16 mode            (creations; 0 otherwise)
//! u64 generation
//! u64 epoch
//! u32 client
//! u64 timestamp
//! u32 snap_len | snapshot bytes   (tag 3: full inline content)
//! ```
//!
//! Fsyncs are batched per node: a node's `wal_fsync_batch`-th unsynced
//! append syncs the log for every node (`1` = strict per-op durability).
//! Inline-data writebacks append one record per *client write* carrying a
//! full content snapshot — the last snapshot for a path is exactly the
//! acknowledged content at crash time, even when the queue coalesced the
//! writebacks themselves.
//!
//! This module also hosts the [`CrashSwitch`] used by the crash-kill
//! test harness: a lock-free trigger that deterministically "kills" the
//! node at one of four pipeline stages.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use fsapi::{FsError, FsResult};
use lsmkv::wal::{Wal, WalRecord};
use syncguard::{level, Mutex};

use super::op::{CommitOp, QueueMsg};

const TAG_MKDIR: u8 = 0;
const TAG_CREATE: u8 = 1;
const TAG_UNLINK: u8 = 2;
const TAG_WRITE: u8 = 3;

/// One replayed log record: the reconstructed queue envelope plus, for
/// writeback records, the inline-content snapshot taken at append time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    pub msg: QueueMsg,
    pub snapshot: Option<Vec<u8>>,
}

fn lsm_err(e: lsmkv::LsmError) -> FsError {
    FsError::Backend(format!("commit wal: {e}"))
}

fn encode_value(msg: &QueueMsg, snapshot: Option<&[u8]>) -> FsResult<Vec<u8>> {
    let (tag, mode) = match &msg.op {
        CommitOp::Mkdir { mode, .. } => (TAG_MKDIR, *mode),
        CommitOp::Create { mode, .. } => (TAG_CREATE, *mode),
        CommitOp::Unlink { .. } => (TAG_UNLINK, 0),
        CommitOp::WriteInline { .. } => (TAG_WRITE, 0),
        CommitOp::Barrier { .. } | CommitOp::Batch(_) => {
            return Err(FsError::Backend("commit wal: unloggable op".into()));
        }
    };
    let snap = snapshot.unwrap_or(&[]);
    let mut v = Vec::with_capacity(2 + 2 + 8 + 8 + 4 + 8 + 4 + snap.len());
    v.push(tag);
    v.push(msg.degraded as u8);
    v.extend_from_slice(&mode.to_le_bytes());
    v.extend_from_slice(&msg.id.generation.to_le_bytes());
    v.extend_from_slice(&msg.epoch.to_le_bytes());
    v.extend_from_slice(&msg.client.to_le_bytes());
    v.extend_from_slice(&msg.timestamp.to_le_bytes());
    v.extend_from_slice(&(snap.len() as u32).to_le_bytes());
    v.extend_from_slice(snap);
    Ok(v)
}

/// By value: the record's key becomes the entry's path without a copy.
fn decode_record(rec: WalRecord) -> Option<WalEntry> {
    let path = String::from_utf8(rec.key).ok()?;
    let mut v = rec.value?;
    if v.len() < 2 + 2 + 8 + 8 + 4 + 8 + 4 {
        return None;
    }
    let tag = v[0];
    let degraded = v[1] & 1 != 0;
    let mode = u16::from_le_bytes(v[2..4].try_into().ok()?);
    let generation = u64::from_le_bytes(v[4..12].try_into().ok()?);
    let epoch = u64::from_le_bytes(v[12..20].try_into().ok()?);
    let client = u32::from_le_bytes(v[20..24].try_into().ok()?);
    let timestamp = u64::from_le_bytes(v[24..32].try_into().ok()?);
    let snap_len = u32::from_le_bytes(v[32..36].try_into().ok()?) as usize;
    if v.len() != 36 + snap_len {
        return None;
    }
    let (op, snapshot) = match tag {
        TAG_MKDIR => (CommitOp::Mkdir { path, mode }, None),
        TAG_CREATE => (CommitOp::Create { path, mode }, None),
        TAG_UNLINK => (CommitOp::Unlink { path }, None),
        TAG_WRITE => (CommitOp::WriteInline { path }, Some(v.split_off(36))),
        _ => return None,
    };
    Some(WalEntry {
        msg: QueueMsg {
            op,
            client,
            epoch,
            timestamp,
            id: dfs::OpId { write_id: rec.seq, generation },
            degraded,
        },
        snapshot,
    })
}

struct WalInner {
    wal: Wal,
    /// Appends since the last fsync, per publisher (grown as they appear).
    unsynced: Vec<usize>,
    fsync_batch: usize,
}

/// A region's durable commit log, shared by its publishers (one per node).
pub struct CommitWal {
    inner: Mutex<WalInner>,
}

impl CommitWal {
    /// Crash-safe open: truncates any torn/corrupt tail (a clean zero tail
    /// stays) and returns the surviving entries for replay. Records whose
    /// payload fails to decode end the replay (they can only arise from a
    /// frame-level collision, which the CRC makes astronomically unlikely).
    pub fn open(path: &Path, fsync_batch: usize) -> FsResult<(Self, Vec<WalEntry>)> {
        let (mut entries, mut intact) = (Vec::new(), true);
        let wal = Wal::open_recovered(path, false, |rec| match decode_record(rec) {
            Some(e) if intact => entries.push(e),
            _ => intact = false,
        })
        .map_err(lsm_err)?;
        let this = Self {
            inner: Mutex::new(
                level::WAL,
                "pacon.commit.wal",
                WalInner { wal, unsynced: Vec::new(), fsync_batch: fsync_batch.max(1) },
            ),
        };
        Ok((this, entries))
    }

    /// [`Self::append_from`] as publisher 0: a log with one publisher.
    pub fn append(&self, msg: &QueueMsg, snapshot: Option<&[u8]>) -> FsResult<bool> {
        self.append_from(0, msg, snapshot)
    }

    /// Append one op record for `publisher` (a node); returns whether this
    /// append fsynced the log (for the region's `wal_fsyncs` counter): the
    /// publisher's `fsync_batch`-th unsynced append syncs, for every one.
    pub fn append_from(
        &self,
        publisher: usize,
        msg: &QueueMsg,
        snapshot: Option<&[u8]>,
    ) -> FsResult<bool> {
        let value = encode_value(msg, snapshot)?;
        let path = msg.op.path().ok_or_else(|| FsError::Backend("commit wal: pathless op".into()))?;
        let mut g = self.inner.lock();
        // lint: allow(hold-across-blocking, durability ordering: the op must hit the log before publish; WAL mutex is terminal)
        g.wal.append(msg.id.write_id, path.as_bytes(), Some(&value)).map_err(lsm_err)?;
        if g.unsynced.len() <= publisher {
            g.unsynced.resize(publisher + 1, 0);
        }
        g.unsynced[publisher] += 1;
        if g.unsynced[publisher] >= g.fsync_batch {
            // lint: allow(hold-across-blocking, batched fsync under the WAL mutex; no lock is taken past it)
            g.wal.sync().map_err(lsm_err)?;
            g.unsynced.fill(0);
            return Ok(true);
        }
        Ok(false)
    }

    /// Truncate the log if `drained` still holds under the log lock.
    /// Callers guarantee every append happens after its op is counted as
    /// enqueued, so `drained() == true` under this lock implies every
    /// logged op has been confirmed — none of the wiped records is still
    /// needed. Returns whether the log was truncated.
    pub fn truncate_if(&self, drained: impl Fn() -> bool) -> FsResult<bool> {
        let mut g = self.inner.lock();
        if !drained() {
            return Ok(false);
        }
        // lint: allow(hold-across-blocking, truncate cuts and syncs the log under the same terminal WAL mutex)
        g.wal.reset().map_err(lsm_err)?;
        g.unsynced.fill(0);
        Ok(true)
    }

    /// Unconditional truncate (recovery finished; checkpoint rollback).
    pub fn reset(&self) -> FsResult<()> {
        let mut g = self.inner.lock();
        // lint: allow(hold-across-blocking, reset cuts and syncs the log under the same terminal WAL mutex)
        g.wal.reset().map_err(lsm_err)?;
        g.unsynced.fill(0);
        Ok(())
    }
}

/// The four pipeline stages the crash-kill harness can kill a node at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// In the client's publish path, before the WAL append: the op was
    /// never durable and the client saw an error — an uncrashed oracle
    /// excludes it.
    PreAppend = 0,
    /// After the WAL append, before the queue send: the client saw an
    /// error but the op *is* durable — recovery must still apply it.
    PostAppend = 1,
    /// In the commit worker, after the DFS applied a message but before
    /// it was settled/confirmed: replay hits the seen-cache.
    MidBatch = 2,
    /// Everything applied, crash before the log truncates: the whole log
    /// replays as no-ops.
    PreTruncate = 3,
}

/// Deterministic kill trigger. Lock-free because `hit` runs on hot
/// paths, sometimes while the WAL lock is held. Once tripped, the node
/// is dead: *every* subsequent `hit` reports `true` regardless of stage,
/// so all pipeline entry points fail fast.
#[derive(Debug)]
pub struct CrashSwitch {
    armed: AtomicU32,
    countdown: AtomicU32,
    tripped: AtomicBool,
}

impl CrashSwitch {
    const DISARMED: u32 = u32::MAX;

    pub fn new() -> Self {
        Self {
            armed: AtomicU32::new(Self::DISARMED),
            countdown: AtomicU32::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// Arm the switch to trip on the `nth` (1-based) hit of `point`.
    pub fn arm(&self, point: CrashPoint, nth: u32) {
        assert!(nth >= 1, "nth is 1-based");
        self.countdown.store(nth, Ordering::Release);
        self.armed.store(point as u32, Ordering::Release);
    }

    /// Report passing `point`; returns whether the node is (now) dead.
    pub fn hit(&self, point: CrashPoint) -> bool {
        if self.tripped.load(Ordering::Acquire) {
            return true;
        }
        if self.armed.load(Ordering::Acquire) != point as u32 {
            return false;
        }
        match self
            .countdown
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| c.checked_sub(1))
        {
            Ok(1) => {
                self.tripped.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// The error a crashed pipeline stage surfaces to its caller.
    pub fn error(point: CrashPoint) -> FsError {
        FsError::Backend(format!("crash-kill: {point:?}"))
    }

    /// Whether an error came from a crash kill (harness support).
    pub fn is_crash_error(e: &FsError) -> bool {
        matches!(e, FsError::Backend(s) if s.starts_with("crash-kill"))
    }
}

impl Default for CrashSwitch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "pacon-cwal-{}-{}-{:?}",
            name,
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn msg(op: CommitOp, write_id: u64, generation: u64) -> QueueMsg {
        QueueMsg {
            op,
            client: 7,
            epoch: 2,
            timestamp: 99,
            id: dfs::OpId { write_id, generation },
            degraded: false,
        }
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("node0.wal");
        {
            let (w, entries) = CommitWal::open(&path, 1).unwrap();
            assert!(entries.is_empty());
            w.append(&msg(CommitOp::Mkdir { path: "/w/d".into(), mode: 0o755 }, 5, 5), None)
                .unwrap();
            w.append(&msg(CommitOp::Create { path: "/w/d/f".into(), mode: 0o644 }, 6, 6), None)
                .unwrap();
            w.append(&msg(CommitOp::WriteInline { path: "/w/d/f".into() }, 7, 6), Some(b"abc"))
                .unwrap();
            w.append(&msg(CommitOp::Unlink { path: "/w/d/f".into() }, 8, 8), None).unwrap();
        }
        let (_, entries) = CommitWal::open(&path, 1).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].msg.op, CommitOp::Mkdir { path: "/w/d".into(), mode: 0o755 });
        assert_eq!(entries[0].msg.id.write_id, 5);
        assert_eq!(entries[1].msg.client, 7);
        assert_eq!(entries[2].snapshot.as_deref(), Some(&b"abc"[..]));
        assert_eq!(entries[2].msg.id, dfs::OpId { write_id: 7, generation: 6 });
        assert_eq!(entries[3].msg.op, CommitOp::Unlink { path: "/w/d/f".into() });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_batching_counts_syncs() {
        let dir = tmpdir("fsync");
        let (w, _) = CommitWal::open(&dir.join("n.wal"), 3).unwrap();
        let mut syncs = 0;
        for i in 0..7u64 {
            let m = msg(CommitOp::Create { path: format!("/f{i}"), mode: 0o644 }, i + 1, i + 1);
            if w.append(&m, None).unwrap() {
                syncs += 1;
            }
        }
        assert_eq!(syncs, 2, "7 appends at batch 3 = syncs after #3 and #6");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn create(i: u64) -> QueueMsg {
        msg(CommitOp::Create { path: format!("/f{i}"), mode: 0o644 }, i + 1, i + 1)
    }

    #[test]
    fn a_publishers_batch_th_unsynced_append_syncs_for_every_publisher() {
        let dir = tmpdir("shared-fsync");
        let (w, _) = CommitWal::open(&dir.join("r.wal"), 4).unwrap();
        // Publishers 0 and 1 reach 3 unsynced appends each, 2 reaches 1.
        for i in 0..6 {
            assert!(!w.append_from(i as usize % 2, &create(i), None).unwrap());
        }
        assert!(!w.append_from(2, &create(6), None).unwrap());
        assert!(w.append_from(1, &create(7), None).unwrap(), "publisher 1's 4th append syncs");
        // The sync reset every count: three more from each do not sync.
        for i in 8..17 {
            assert!(!w.append_from(i as usize % 3, &create(i), None).unwrap(), "append {i}");
        }
        assert!(w.append_from(0, &create(17), None).unwrap(), "publisher 0's 4th since the sync");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn at_batch_one_every_append_syncs() {
        let dir = tmpdir("shared-strict");
        let (w, _) = CommitWal::open(&dir.join("r.wal"), 1).unwrap();
        for i in 0..6 {
            assert!(w.append_from(i as usize % 3, &create(i), None).unwrap(), "append {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_publishers_entries_replay_in_append_order() {
        let dir = tmpdir("shared-order");
        let path = dir.join("r.wal");
        let order = [2, 0, 1, 1, 0, 2, 2];
        {
            let (w, _) = CommitWal::open(&path, 4).unwrap();
            for (i, &publisher) in (0..).zip(&order) {
                w.append_from(publisher, &create(i), None).unwrap();
            }
        }
        let (_, entries) = CommitWal::open(&path, 4).unwrap();
        let ids: Vec<u64> = entries.iter().map(|e| e.msg.id.write_id).collect();
        assert_eq!(ids, (1..=order.len() as u64).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_if_respects_the_guard() {
        let dir = tmpdir("trunc");
        let path = dir.join("n.wal");
        let (w, _) = CommitWal::open(&path, 1).unwrap();
        w.append(&msg(CommitOp::Create { path: "/f".into(), mode: 0o644 }, 1, 1), None).unwrap();
        assert!(!w.truncate_if(|| false).unwrap());
        assert_eq!(CommitWal::open(&path, 1).unwrap().1.len(), 1);
        assert!(w.truncate_if(|| true).unwrap());
        assert!(CommitWal::open(&path, 1).unwrap().1.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_switch_trips_on_the_nth_hit_and_stays_dead() {
        let s = CrashSwitch::new();
        assert!(!s.hit(CrashPoint::PreAppend), "disarmed switch never trips");
        s.arm(CrashPoint::MidBatch, 3);
        assert!(!s.hit(CrashPoint::MidBatch));
        assert!(!s.hit(CrashPoint::PreAppend), "other stages don't consume the countdown");
        assert!(!s.hit(CrashPoint::MidBatch));
        assert!(s.hit(CrashPoint::MidBatch), "third hit trips");
        assert!(s.tripped());
        assert!(s.hit(CrashPoint::PreAppend), "a dead node is dead at every stage");
    }
}
