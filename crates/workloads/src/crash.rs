//! Every crash point of the durable commit log (DESIGN §5.3), enumerated
//! and checked against the program-order reference ([`crate::history`]).
//!
//! One fixed two-node script ([`script`]) runs in a durable region, and
//! three families of rows come out of it:
//!
//! - (A) [`log_cuts`]: the log of an incarnation that acknowledged the
//!   script and was never stepped, cut at every frame boundary and at
//!   every byte inside its last frame;
//! - (B) [`first_incarnation_hits`]: every `(CrashPoint, nth)` that an
//!   incarnation reaches which issues the whole script and then drains;
//! - (C) [`recovery_hits`]: every hit a recovery of (A)'s whole log
//!   reaches — `MidBatch` per run, `PreTruncate` at its end — followed by
//!   a relaunch with the switch disarmed.
//!
//! Every row is checked by [`check_relaunch`], as is each schedule of the
//! crash-kill property test.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FsResult};
use pacon::commit::wal::{CrashPoint, CrashSwitch};
use pacon::commit::worker::WorkerStep;
use pacon::{PaconClient, PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, Topology};

use crate::history::{drain, History};
use crate::ops::FsOp;

/// A fresh directory under the system temp dir for one region's commit
/// log, removed with its contents when dropped.
pub struct WalDir(PathBuf);

impl WalDir {
    /// `pacon-<tag>-<pid>-<n>`, unique per call and emptied first.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("pacon-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Issue `ops` in order, each through the client at its index in
/// `clients`, until the crash switch fails one (`false`). An op killed
/// after its log append (`PostAppend`) is durable, so it counts as
/// acknowledged.
pub fn issue_until_crash(
    history: &mut History,
    clients: &[PaconClient],
    cred: &Credentials,
    ops: impl IntoIterator<Item = (usize, FsOp)>,
) -> bool {
    for (client, op) in ops {
        match history.issue(&clients[client], cred, op) {
            Err(e) if CrashSwitch::is_crash_error(&e) => {
                if e == CrashSwitch::error(CrashPoint::PostAppend) {
                    history.acknowledge_last();
                }
                return false;
            }
            _ => {}
        }
    }
    true
}

/// The row check, on what a crashed incarnation left in `dfs` and in
/// `config`'s log: relaunch with the switch armed at `crash` (`None`:
/// disarmed). A launch the switch kills fails with exactly its point's
/// error and leaves the log whole, and a disarmed relaunch follows; each
/// launch that recovers is checked by `recovered` (`truncated`: the
/// identities `dfs` holds of ops a truncation took out of the log). Then
/// the next launch replays nothing, and the backup copy matches
/// `history`'s reference over `universe`. `row` names the row in a failed
/// assertion; returns whether the armed launch was killed.
pub fn check_relaunch(
    config: &PaconConfig,
    dfs: &Arc<DfsCluster>,
    history: &History,
    universe: &[String],
    crash: Option<(CrashPoint, u32)>,
    truncated: u64,
    row: &str,
) -> bool {
    let log = config.wal_dir.as_ref().expect("a durable region").join("region.wal");
    let records = std::fs::read(&log).map_or(0, |bytes| frame_ends(&bytes).len() as u64);
    let switch = crash.map_or_else(CrashSwitch::default, |(at, nth)| CrashSwitch::armed(at, nth));
    let killed = match recovered(config, dfs, switch, truncated, row) {
        Ok(_) => false,
        Err(e) => {
            let (point, nth) = crash.unwrap_or_else(|| panic!("{row}: launch failed: {e}"));
            assert_eq!(e, CrashSwitch::error(point), "{row}: killed at {point:?} #{nth}");
            let replayed = recovered(config, dfs, CrashSwitch::default(), truncated, row);
            assert_eq!(replayed, Ok(records), "{row}: the killed recovery left the log whole");
            true
        }
    };
    let again = PaconRegion::launch_paused(config.clone(), dfs).expect("a launch after recovery");
    assert_eq!(again.report().wal_replayed, 0, "{row}: a recovered log replays nothing");
    drop(again);
    history.clone().labelled(row).assert_backup_matches(dfs, &config.cred, universe);
    killed
}

/// Launch `config` over `dfs` with `crash`. A launch that recovers (the
/// number of ops it replayed is returned) accounts for each as applied or
/// skipped, truncates a log it replayed once, recognizes every logged op
/// the DFS had applied — all it holds identities of but the `truncated` —
/// (`replay_noop` for a namespace op, `replay_skipped_write` for a
/// writeback) and moves no size for one, and prunes every identity.
fn recovered(
    config: &PaconConfig,
    dfs: &Arc<DfsCluster>,
    crash: CrashSwitch,
    truncated: u64,
    row: &str,
) -> FsResult<u64> {
    let size_updates = || dfs.mds_counter("set_size") + dfs.mds_counter("size_batch_ops");
    let seen = dfs.seen_len() as u64 - truncated;
    let (noops, sized) = (dfs.mds_counter("replay_noop"), size_updates());
    let region = PaconRegion::launch_armed(config.clone(), dfs, crash)?;
    let r = region.report();
    let skipped_writes = region.take_worker(0).dfs().counters.get("replay_skipped_write");
    let known = dfs.mds_counter("replay_noop") - noops + skipped_writes;
    assert_eq!(r.wal_replayed, r.recovery_applied + r.recovery_skipped, "{row}: {r:?}");
    let truncations = u64::from(r.wal_replayed > 0);
    assert_eq!(r.wal_truncations, truncations, "{row}: one truncation per recovery");
    if r.wal_replayed > 0 {
        let moved = size_updates() - sized;
        assert!(
            seen <= known && known + moved <= r.wal_replayed,
            "{row}: {seen} identities applied, {known} replays recognized, {moved} sizes moved"
        );
    }
    assert_eq!(dfs.seen_len(), 0, "{row}: the launch pruned the identities of the log it reset");
    Ok(r.wal_replayed)
}

/// Where each record of a commit log ends, from its lsmkv frame headers
/// (`u32 len | u32 crc`, a zero length ends the log).
fn frame_ends(log: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut end = 0;
    while let Some(len) = log.get(end..end + 4) {
        match u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize {
            0 => break,
            len => end += 8 + len,
        }
        ends.push(end);
    }
    ends
}

/// The script, as `(client, op)`: client `n` runs on node `n`. Three
/// paths, every op acknowledged and logged as one record.
pub fn script() -> Vec<(usize, FsOp)> {
    let write = |path: &str, data: &[u8]| {
        FsOp::Write { path: path.into(), offset: 0, data: data.to_vec() }
    };
    vec![
        // A mkdir on node 1, then a create and an unlink inside it on node 0.
        (1, FsOp::Mkdir("/w/d".into(), 0o755)),
        (0, FsOp::Create("/w/d/f".into(), 0o644)),
        (0, write("/w/d/f", &[b'f'; 1024])),
        (0, FsOp::Unlink("/w/d/f".into())),
        // A file created on node 1 and unlinked on node 0 (replayed per
        // node, the unlink goes first and the file comes back), then
        // created again, twice.
        (1, FsOp::Create("/w/g".into(), 0o644)),
        (0, FsOp::Unlink("/w/g".into())),
        (0, FsOp::Create("/w/g".into(), 0o644)),
        (0, write("/w/g", &[b'g'; 1024])),
        (0, FsOp::Unlink("/w/g".into())),
        (0, FsOp::Create("/w/g".into(), 0o644)),
        (0, write("/w/g", b"again")),
        // The last record is short (its snapshot is the file's 5 bytes)
        // and ends in a non-zero byte, so every cut inside it leaves it torn.
        (0, write("/w/g", b"last")),
    ]
}

/// The paths [`script`] touches.
pub fn universe() -> Vec<String> {
    ["/w/d", "/w/d/f", "/w/g"].map(String::from).to_vec()
}

const CRED: Credentials = Credentials { uid: 1, gid: 1 };

/// Rounds a first incarnation gets to drain.
const DRAIN_ROUNDS: u32 = 10_000;

/// The script's two-node region at commit batch `batch` and fsync batch
/// `fsync`, its log in `dir`.
fn config(dir: &WalDir, batch: usize, fsync: usize) -> PaconConfig {
    PaconConfig::new("/w", Topology::new(2, 1), CRED)
        .with_commit_batch(batch)
        .with_wal_fsync_batch(fsync)
        .with_durability(dir.path())
}

fn zero_dfs() -> Arc<DfsCluster> {
    DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()))
}

fn clients(region: &Arc<PaconRegion>) -> [PaconClient; 2] {
    [region.client(ClientId(0)), region.client(ClientId(1))]
}

/// The log an incarnation leaves that acknowledged the whole script and
/// was never stepped (its DFS holds the workspace alone), with its history.
fn unstepped_log(batch: usize, fsync: usize) -> (Vec<u8>, History) {
    let dir = WalDir::new("crashpoints");
    let region = PaconRegion::launch_paused(config(&dir, batch, fsync), &zero_dfs());
    let region = region.expect("launch");
    let mut history = History::new("/w");
    issue_until_crash(&mut history, &clients(&region), &CRED, script());
    let appended = region.report().wal_appended;
    assert_eq!(appended, history.acknowledged() as u64, "one record per acknowledged mutation");
    region.abort();
    drop(region);
    let log = std::fs::read(dir.path().join("region.wal")).expect("the log");
    assert_eq!(frame_ends(&log).len(), script().len(), "every op acknowledged, one frame each");
    (log, history)
}

/// A fresh DFS and a log directory one incarnation in, holding `log`'s
/// records with zeros from byte `at` on (`usize::MAX`: none) — a crash
/// that lost the rest, as the log's own zeroed space reads.
fn restore(log: &[u8], at: usize) -> (WalDir, Arc<DfsCluster>) {
    let dir = WalDir::new("crashpoints");
    std::fs::create_dir_all(dir.path()).expect("log dir");
    let mut image = log[..frame_ends(log).last().copied().unwrap_or(0)].to_vec();
    let at = at.min(image.len());
    image[at..].fill(0);
    std::fs::write(dir.path().join("region.wal"), image).expect("log image");
    std::fs::write(dir.path().join("incarnation"), "1").expect("incarnation");
    (dir, zero_dfs())
}

/// Family (A): the unstepped log cut at every frame boundary, and at
/// every byte inside its last frame (a torn tail); a log cut after `k`
/// records recovers the first `k` acknowledged ops. Returns the rows.
pub fn log_cuts(batch: usize, fsync: usize) -> usize {
    let (log, history) = unstepped_log(batch, fsync);
    let ends = frame_ends(&log);
    let (last_start, last_end) = (ends[ends.len() - 2], ends[ends.len() - 1]);
    let boundaries = std::iter::once(0).chain(ends.iter().copied()).zip(0..);
    let torn = (last_start + 1..last_end).map(|at| (at, ends.len() - 1));
    let cuts: Vec<(usize, usize)> = boundaries.chain(torn).collect();
    for &(at, records) in &cuts {
        let (dir, dfs) = restore(&log, at);
        let row = format!("batch {batch}, fsync {fsync}: log cut at byte {at}");
        let prefix = history.acknowledged_prefix(records);
        check_relaunch(&config(&dir, batch, fsync), &dfs, &prefix, &universe(), None, 0, &row);
    }
    cuts.len()
}

/// Family (B): at each crash point, every `nth` hit the script's
/// incarnation reaches — it issues the whole script, then steps its commit
/// processes until they drain — up to the first `nth` it outlives, whose
/// row is an incarnation aborted when drained. Returns the rows.
pub fn first_incarnation_hits(batch: usize, fsync: usize) -> usize {
    let (mut rows, setting) = (0, format!("batch {batch}, fsync {fsync}"));
    use CrashPoint::{MidBatch, PostAppend, PreAppend, PreTruncate};
    for point in [PreAppend, PostAppend, MidBatch, PreTruncate] {
        for nth in 1.. {
            rows += 1;
            let (dir, dfs) = (WalDir::new("crashpoints"), zero_dfs());
            let config = config(&dir, batch, fsync);
            let switch = CrashSwitch::armed(point, nth);
            let region = PaconRegion::launch_armed(config.clone(), &dfs, switch).expect("launch");
            let (mut history, clients) = (History::new("/w"), clients(&region));
            let drained = issue_until_crash(&mut history, &clients, &CRED, script())
                && drain(&region, DRAIN_ROUNDS);
            // A drained region truncated its log: the identities the DFS
            // holds are of the ops that truncation took out of it.
            let truncated = if drained { dfs.seen_len() as u64 } else { 0 };
            drop(clients);
            let dead = matches!(region.core().step_worker(0), Some((WorkerStep::Crashed, _)));
            region.abort();
            drop(region);
            let row = format!("{setting}: incarnation killed at {point:?} #{nth}");
            check_relaunch(&config, &dfs, &history, &universe(), None, truncated, &row);
            if !dead {
                assert!(nth > 1, "{row}: the script never reaches {point:?}");
                break;
            }
        }
    }
    rows
}

/// Family (C): the unstepped log recovered with the switch at every hit
/// the recovery reaches — `PreTruncate` at its end, `MidBatch` per run up
/// to the first `nth` a launch outlives. Returns the rows.
pub fn recovery_hits(batch: usize, fsync: usize) -> usize {
    let (log, history) = unstepped_log(batch, fsync);
    let killed = |crash: (CrashPoint, u32)| {
        let (dir, dfs) = restore(&log, usize::MAX);
        let row = format!("batch {batch}, fsync {fsync}: recovery killed at {crash:?}");
        let config = config(&dir, batch, fsync);
        check_relaunch(&config, &dfs, &history, &universe(), Some(crash), 0, &row)
    };
    assert!(killed((CrashPoint::PreTruncate, 1)), "a recovery reaches PreTruncate at its end");
    let runs = (1..).take_while(|&nth| killed((CrashPoint::MidBatch, nth))).count();
    assert!(runs > 0, "batch {batch}, fsync {fsync}: a recovery reaches MidBatch");
    runs + 2
}
