//! The per-node commit process (the queue subscriber of Fig. 5).
//!
//! `step()` is non-blocking and handles exactly one unit of work, so one
//! way of stepping serves every runtime: `RegionCore::pump` steps the
//! worker in its node's slot for a barrier's caller, for `quiesce` and
//! for a launched region's driver thread, and the discrete-event harness
//! steps the same slot in virtual time.
//!
//! Independent commit: operations the DFS rejects for a namespace-
//! convention reason (parent not created yet, pending removal) go to a
//! retry backlog and are resubmitted (Section III.E-1). Creations under
//! a directory that a barrier commit removed are discarded instead
//! (Section III.D-1). Barrier markers flush the backlog, report to the
//! barrier board and stall the worker until the dependent operation
//! completes (Section III.E-2).
//!
//! Group commit: a [`CommitOp::Batch`] message carries many operations
//! from the node's publish buffer, and a step takes a *run* of messages:
//! behind the first, whatever the queue already holds, up to
//! `commit_batch_size` messages and never past a barrier marker (at 1, a
//! run is one message). The worker pays the dispatch cost and the
//! duplicate check once per message and commits the run's ops on one
//! route: its namespace ops through a single batched DFS RPC (one request
//! base, one namespace-lock acquisition server-side), its writebacks as
//! one group, then one cache settle, each op settling independently — a
//! failed op goes to the retry backlog alone, so a partial batch failure
//! degrades to exactly the paper's independent-commit behaviour. When the
//! queue runs empty the worker asks its node's outbox (`Outbox::refill`)
//! for what a faulted link still owes the queue or still coalesces below
//! the flush threshold — quiesce/shutdown liveness without a flush timer;
//! that cut is taken alone, a run holds only what the broker already held.
//!
//! Per-path order: every run — fresh, a retry, a recovered one — is formed
//! by one rule (`CommitWorker::next_run`). An op is attempted only when
//! no earlier op of its path waits, and a run holds at most one namespace
//! op per path, its writebacks behind it. What may not go yet waits in the
//! worker's *line*, in order, and goes in a later run: with no fresh input,
//! a run of up to `commit_batch_size` of the line's ops or, with none free
//! to go, a retry of the backlog's head alone (a run of one). A run of one
//! differs in its request forms alone (the single-op RPCs, cheaper for one
//! op: DESIGN §5.1). With nothing waiting, a run is its messages' ops.
//! Across nodes one more rule keeps the order (DESIGN §10.4): a namespace
//! op goes to the DFS only when no unlink of its path stamped before it is
//! pending, so a creation that meets its path there is in place.
//!
//! Recovery is a commit (`region::recover`): at launch, the region's
//! surviving log entries join node 0's line and its steps commit them on
//! the same route. A recovered op takes its writeback bytes from the log
//! and settles no cache records; its creation that meets its path, or
//! unlink that misses it, is in place; any other error but a missing
//! prerequisite fails the launch.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use dfs::{BatchOp, DfsClient};
use fsapi::{FsError, FsResult};
use fsapi::FileSystem;
use mq::Consumer;
use simnet::{charge, FastMap, NodeId, Station};

use crate::cache::{CacheError, MetaCache};
use crate::commit::op::{CommitOp, QueueMsg};
use crate::commit::wal::{CrashPoint, WalEntry};
use crate::metadata::CachedMeta;
use crate::region::RegionCore;

/// Outcome of one `step()` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStep {
    /// A run of one op (a lone message, a retry, or one op of the line)
    /// applied to the DFS.
    Committed,
    /// A run of two or more ops handled; per-op outcomes tallied. Each
    /// retried op went to the retry backlog alone; a writeback sent back
    /// to the line is not tallied.
    Batch { committed: u32, retried: u32, discarded: u32 },
    /// A run of one op failed a namespace check, or waits for an earlier
    /// unlink of its path, and went (back) to the retry backlog — or a step
    /// consumed messages and attempted nothing (a marker, duplicates, or
    /// ops that all wait in the line).
    Retried,
    /// A run of one op was discarded (removed directory, or retry budget
    /// exhausted).
    Discarded,
    /// A barrier marker was consumed and the board notified; the worker
    /// must now wait for the epoch to advance.
    BarrierReported,
    /// Waiting for a barrier epoch to be released (poll again).
    Blocked(u64),
    /// Nothing to do right now.
    Idle,
    /// Never reported: the sending end of a worker's queue lives in the
    /// region core the worker itself keeps alive, so the queue cannot
    /// close under it — the region's driver stops on its stop flag.
    /// Kept for the drivers that match on it.
    Disconnected,
    /// The crash switch tripped: the node is dead. Unsettled work stays
    /// in the WAL for the next launch's recovery replay.
    Crashed,
}

/// Recent-message dedup window per worker. Duplicates only arise from
/// scripted duplicate delivery and are adjacent in FIFO order, so a
/// small window suffices.
const SEEN_WINDOW: usize = 64;

/// One op of a run: fresh from the queue or the commit log, waiting in the
/// line, or awaiting resubmission.
struct RetryEntry {
    msg: QueueMsg,
    /// Failed attempts so far; 0 for a fresh op.
    attempts: u32,
    /// A previous attempt failed with a transient backend error. The op
    /// may have applied server-side with the reply lost, so a later
    /// `AlreadyExists` on a creation is idempotent success, not a
    /// conflict to retry.
    backend_faulted: bool,
    /// Recovered from the previous incarnation's commit log: the bytes
    /// its record carries (a writeback's snapshot; empty otherwise).
    recovered: Option<Vec<u8>>,
}

impl RetryEntry {
    fn fresh(msg: QueueMsg) -> Self {
        Self { msg, attempts: 0, backend_faulted: false, recovered: None }
    }
}

pub struct CommitWorker {
    node: NodeId,
    consumer: Consumer<Arc<QueueMsg>>,
    dfs: Arc<DfsClient>,
    cache: MetaCache,
    core: Arc<RegionCore>,
    /// Ops received and not yet attempted, in order: each waits for an
    /// earlier op of its path ([`Self::next_run`]).
    line: VecDeque<RetryEntry>,
    /// Ops attempted that failed, awaiting resubmission.
    retry: VecDeque<RetryEntry>,
    /// Barrier epoch we reported and are stalled on.
    waiting: Option<u64>,
    /// Marker seen but backlog not yet flushed.
    flushing_for: Option<u64>,
    /// Consecutive retry-backlog failures with no fresh input; once a full
    /// cycle passes without progress the worker reports `Idle` instead of
    /// spinning (the missing prerequisite lives in another queue).
    stuck_retries: usize,
    /// `(client, timestamp)` of the most recent messages, for dropping
    /// duplicated deliveries (lossy-link fault plane).
    seen: VecDeque<(u32, u64)>,
    /// The error that ends a recovery (`region::recover`).
    pub(crate) failed: Option<FsError>,
}

impl CommitWorker {
    pub fn new(
        node: NodeId,
        consumer: Consumer<Arc<QueueMsg>>,
        dfs: Arc<DfsClient>,
        core: Arc<RegionCore>,
    ) -> Self {
        let cache = MetaCache::new(core.cache_cluster.client(node));
        Self {
            node,
            consumer,
            dfs,
            cache,
            core,
            line: VecDeque::new(),
            retry: VecDeque::new(),
            waiting: None,
            flushing_for: None,
            stuck_retries: 0,
            seen: VecDeque::new(),
            failed: None,
        }
    }

    /// Has this exact message already been consumed? Region timestamps
    /// are unique per message (`RegionCore::now` ticks on every build),
    /// so `(client, timestamp)` identifies a delivery exactly; a repeat
    /// within the window is a duplicated send. The publisher counted the
    /// op once, so the duplicate must be dropped without settling.
    fn is_duplicate(&mut self, msg: &QueueMsg) -> bool {
        let key = (msg.client, msg.timestamp);
        if self.seen.contains(&key) {
            return true;
        }
        if self.seen.len() == SEEN_WINDOW {
            self.seen.pop_front();
        }
        self.seen.push_back(key);
        false
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's DFS mount, shared with the node's clients: its
    /// `counters` are the whole node's, but only a commit process sends
    /// commit RPCs, so `batch_rpcs` (namespace batches) and
    /// `small_batch_rpcs` (writeback groups) count this worker's alone.
    pub fn dfs(&self) -> &DfsClient {
        &self.dfs
    }

    /// True when no op waits: the line and the retry backlog are empty
    /// (shutdown condition).
    pub fn backlog_empty(&self) -> bool {
        self.line.is_empty() && self.retry.is_empty()
    }

    fn charge_dispatch(&self) {
        charge(
            Station::CommitProc(self.core.config.station_base + self.node.0),
            self.core.config_commit_dispatch(),
        );
    }

    /// Handle one unit of work. Never blocks.
    pub fn step(&mut self) -> WorkerStep {
        // A tripped crash switch means this node is dead: no further
        // progress, no settling — recovery owns whatever is in the log.
        if self.core.crash.tripped() {
            return WorkerStep::Crashed;
        }

        // Stalled at a barrier: resume only when released.
        if let Some(epoch) = self.waiting {
            if self.core.board.is_released(epoch) {
                self.waiting = None;
            } else {
                return WorkerStep::Blocked(epoch);
            }
        }

        // A marker was consumed: flush the line and the retry backlog, then
        // report — unless its barrier is already over. A barrier that could
        // not post every marker is abandoned by its client, and the markers
        // it did post are stale: flush nothing, report nothing.
        if let Some(epoch) = self.flushing_for {
            if !self.core.board.is_released(epoch) && !self.backlog_empty() {
                return self.step_retry();
            }
            self.flushing_for = None;
            if !self.core.board.worker_reached(epoch) {
                self.core.counters.incr("stale_barrier_markers");
                return WorkerStep::Retried;
            }
            self.waiting = Some(epoch);
            return WorkerStep::BarrierReported;
        }

        // Fresh messages first — with the queue empty, whatever the node
        // still has to send — then what waits. The outbox is only ever
        // tried, never waited for (`commit::outbox` module docs).
        let outbox = self.core.outbox(self.node.index());
        let Some(first) =
            self.consumer.try_recv().ok().or_else(|| outbox.refill(&self.core, &self.consumer))
        else {
            return self.step_retry();
        };
        // The run: behind the first message, whatever the queue already
        // holds, up to `commit_batch_size` messages and never a marker —
        // that stays at the head for the next step.
        let is_marker = |m: &Arc<QueueMsg>| matches!(m.op, CommitOp::Barrier { .. });
        let mut run = vec![first];
        if !is_marker(&run[0]) {
            while run.len() < self.core.config.commit_batch_size {
                match self.consumer.try_recv_if(|m| !is_marker(m)) {
                    Some(next) => run.push(next),
                    None => break,
                }
            }
        }
        // Acknowledged, the messages are the worker's alone. When a sender
        // has the outbox and the acknowledgement is skipped, as for a
        // duplicated send, they stay shared and the worker takes copies.
        outbox.acknowledge();
        let mut msgs = Vec::with_capacity(run.len());
        for shared in run {
            if self.is_duplicate(&shared) {
                self.core.counters.incr("duplicate_drops");
                continue;
            }
            msgs.push(Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone()));
            self.charge_dispatch();
        }
        if msgs.is_empty() {
            return WorkerStep::Retried;
        }
        self.stuck_retries = 0;
        // A marker is alone: a run stops before one.
        if let CommitOp::Barrier { epoch } = msgs[0].op {
            self.flushing_for = Some(epoch);
            // Re-enter immediately on the next step to flush.
            return WorkerStep::Retried;
        }
        // The messages' ops in queue order, a batched message's in its
        // place, behind whatever waits in the line.
        let fresh = msgs.into_iter().flat_map(|msg| match msg.op {
            CommitOp::Batch(inner) => inner,
            _ => vec![msg],
        });
        let run = self.next_run(fresh.map(RetryEntry::fresh).collect(), usize::MAX);
        if run.is_empty() {
            return WorkerStep::Retried;
        }
        self.commit(run)
    }

    /// Work what waits with no fresh input: a run of the line's ops that
    /// are free to go, else the retry backlog. After one full cycle of
    /// failed retries, report `Idle` so the caller can sleep — the
    /// prerequisite commit must come from another queue.
    fn step_retry(&mut self) -> WorkerStep {
        let run = self.next_run(Vec::new(), self.core.config.commit_batch_size);
        if !run.is_empty() {
            self.stuck_retries = 0;
            return self.commit(run);
        }
        if self.stuck_retries >= self.retry.len() {
            self.stuck_retries = 0;
            return WorkerStep::Idle;
        }
        let e = self.retry.pop_front().expect("stuck_retries < len");
        match self.commit(vec![e]) {
            WorkerStep::Retried => {
                self.stuck_retries += 1;
                WorkerStep::Retried
            }
            other => {
                self.stuck_retries = 0;
                other
            }
        }
    }

    /// Recovery (DESIGN §5.3): the previous incarnation's surviving log
    /// entries join the line in log order, each with the bytes its record
    /// carries; the worker's steps commit them. A namespace op that never
    /// applied while a later one of its path did is in place: the DFS shows
    /// the path as program order leaves it after that later op.
    pub(crate) fn line_up(&mut self, log: Vec<WalEntry>) {
        for WalEntry { msg, snapshot } in log {
            let namespace = !matches!(msg.op, CommitOp::WriteInline { .. });
            let path = msg.op.path().expect("logged ops have a path");
            if namespace && self.dfs.cluster().ns_replay_is_superseded(path, &msg.id) {
                self.in_place(&msg, "recovery_superseded");
                continue;
            }
            let recovered = Some(snapshot.unwrap_or_default());
            self.line.push_back(RetryEntry { recovered, ..RetryEntry::fresh(msg) });
        }
    }

    /// Form the next run — the one rule of every run the worker commits.
    /// `fresh` joins the line's tail; then, of the line's first `2 * room`
    /// ops, up to `room` are taken in order: an op goes only when no earlier
    /// op of its path waits — in the retry backlog, or passed over here —
    /// and a run holds at most one namespace op per path, writebacks of
    /// that path behind it. What is not taken stays in the line, in order.
    /// With nothing waiting, a run of all of `fresh` is `fresh` itself.
    fn next_run(&mut self, fresh: Vec<RetryEntry>, room: usize) -> Vec<RetryEntry> {
        if self.line.is_empty() {
            self.line = VecDeque::from(fresh);
        } else {
            self.line.extend(fresh);
        }
        if self.line.is_empty() {
            return Vec::new();
        }
        let take: Vec<bool> = {
            // Per path met: is the run open to its next op? Not once an op of
            // it waits or was passed over, and only to writebacks once it
            // holds one.
            let waiting = self.retry.iter().filter_map(|e| Some((e.msg.op.path()?, false)));
            let window = self.line.len().min(room.saturating_mul(2));
            let mut paths: FastMap<&str, bool> =
                FastMap::with_capacity_and_hasher(window, Default::default());
            paths.extend(waiting);
            let mut taken = 0;
            let scan = self.line.iter().take(window).map_while(|e| {
                if taken == room {
                    return None;
                }
                let path = e.msg.op.path().expect("committed ops have a path");
                let writeback = matches!(e.msg.op, CommitOp::WriteInline { .. });
                let go = match paths.entry(path) {
                    Entry::Vacant(slot) => *slot.insert(true),
                    Entry::Occupied(mut slot) => {
                        *slot.get_mut() &= writeback;
                        *slot.get()
                    }
                };
                taken += go as usize;
                Some(go)
            });
            scan.collect()
        };
        if take.len() == self.line.len() && take.iter().all(|&go| go) {
            return Vec::from(std::mem::take(&mut self.line));
        }
        let (mut run, mut held) = (Vec::new(), Vec::new());
        for (entry, go) in self.line.drain(..take.len()).zip(take) {
            if go {
                run.push(entry);
            } else {
                held.push(entry);
            }
        }
        held.into_iter().rev().for_each(|entry| self.line.push_front(entry));
        run
    }

    /// Commit a run of ops (Fig. 5): the namespace ops through one DFS
    /// request in queue order, then the inline-data writebacks as one group
    /// on the data path ([`Self::apply_writebacks`]), then the cache records
    /// of every op that applied, settled together ([`Self::settle_records`]).
    /// Writebacks read the *current* primary copy at commit time, so
    /// settling them after the run's namespace ops cannot regress any data.
    /// Each op settles independently; a failed one goes to the retry
    /// backlog alone, and the writebacks of its path wait in the line
    /// ([`Self::hold_writebacks`]). An applied op counts as completed only
    /// once the run's cache work has landed, so `drained()` implies it.
    ///
    /// `solo` — a run of one op: a lone message, a retry or one op of the
    /// line — picks only the request forms, never the protocol: a
    /// standalone namespace RPC, `get` and `write` for a writeback, a
    /// per-key settle, and the op's own outcome instead of a tally. Only a
    /// cut of two or more ops is a [`CommitOp::Batch`], so no message that
    /// was batched takes them.
    fn commit(&mut self, run: Vec<RetryEntry>) -> WorkerStep {
        let solo = run.len() == 1;
        // A run is recovered whole or not at all (a retry is a run of one).
        let recovered = run[0].recovered.is_some();
        let (wb, ns): (Vec<_>, Vec<_>) =
            run.into_iter().partition(|e| matches!(e.msg.op, CommitOp::WriteInline { .. }));
        let (mut retried, mut discarded) = (0u32, 0u32);
        let mut applied = Vec::with_capacity(ns.len() + wb.len());
        let mut tally = |step: WorkerStep| match step {
            WorkerStep::Committed => {}
            WorkerStep::Retried => retried += 1,
            WorkerStep::Discarded => discarded += 1,
            other => unreachable!("settle yields commit/retry/discard, got {other:?}"),
        };

        for (plane, writebacks) in [(ns, false), (wb, true)] {
            let plane = if writebacks {
                self.hold_writebacks(plane)
            } else {
                let (waiting, plane) = self.wait_for_unlinks(plane);
                waiting.into_iter().for_each(|entry| tally(self.resubmit(entry, false)));
                plane
            };
            if plane.is_empty() {
                continue;
            }
            let results = if writebacks {
                self.apply_writebacks(&plane, solo)
            } else {
                self.apply_namespace(&plane, solo)
            };
            // Crash window: the DFS applied the plane but nothing has
            // settled. Recovery must re-drive these ops idempotently.
            if self.core.crash.hit(CrashPoint::MidBatch) {
                return WorkerStep::Crashed;
            }
            for (entry, res) in plane.into_iter().zip(results) {
                tally(self.settle(entry, res, &mut applied));
            }
        }
        // A recovered run's records died with the old incarnation's cache.
        if !recovered {
            self.settle_records(&applied, solo);
        }
        for _ in &applied {
            self.core.note_completed();
        }
        self.core.maybe_truncate_wal();
        let committed = applied.len() as u32;
        match (solo, committed, retried) {
            (false, ..) => WorkerStep::Batch { committed, retried, discarded },
            (true, 1, _) => WorkerStep::Committed,
            (true, _, 1) => WorkerStep::Retried,
            (true, ..) => WorkerStep::Discarded,
        }
    }

    /// The wait rule (DESIGN §10.4): the namespace ops of `plane` with an
    /// unlink of their path stamped before them still pending, apart from
    /// the rest. No later creation then lands before an earlier unlink, nor
    /// does a later unlink remove an earlier one's file. Returns `(waiting,
    /// rest)`. A recovered run meets no stamp: the log's died with the old
    /// incarnation, and its order per path is the line's.
    fn wait_for_unlinks(&self, plane: Vec<RetryEntry>) -> (Vec<RetryEntry>, Vec<RetryEntry>) {
        let items: Vec<(&str, u64)> = plane
            .iter()
            .map(|e| (e.msg.op.path().expect("namespace ops have a path"), e.msg.timestamp))
            .collect();
        let own = plane.iter().filter(|e| matches!(e.msg.op, CommitOp::Unlink { .. })).count();
        let waits = self.core.in_flight().unlinked_before(&items, own);
        let mut waits = waits.into_iter();
        plane.into_iter().partition(|_| waits.next() == Some(true))
    }

    /// The writebacks of `plane` whose path waits in the retry backlog —
    /// its namespace op failed or waits in this run, as a run takes no op
    /// of a path that waited before — are not attempted: they go back to
    /// the head of the line, ahead of the later ops of their path, to wait
    /// for that op's retry. Returns the rest.
    fn hold_writebacks(&mut self, plane: Vec<RetryEntry>) -> Vec<RetryEntry> {
        let waits = |e: &RetryEntry| self.retry.iter().any(|w| w.msg.op.path() == e.msg.op.path());
        let (held, plane): (Vec<_>, Vec<_>) = plane.into_iter().partition(waits);
        held.into_iter().rev().for_each(|entry| self.line.push_front(entry));
        plane
    }

    /// The run's namespace ops on the DFS, one result per op in order: one
    /// batched request, or a lone unidentified op's own RPC. Ops carrying a
    /// replay identity (durable mode) always go through the idempotent
    /// entry point, so a post-crash replay of an applied op is a no-op.
    fn apply_namespace(&self, plane: &[RetryEntry], solo: bool) -> Vec<FsResult<()>> {
        let cred = self.core.config.cred;
        let ops: Vec<BatchOp> = plane
            .iter()
            .map(|e| e.msg.op.namespace_op().expect("markers and batches are never committed"))
            .collect();
        if solo && plane[0].msg.id.is_none() {
            return vec![self.dfs.apply(&ops[0], &cred)];
        }
        // A volatile region's ids are all `OpId::NONE`: unidentified.
        let ids: Vec<dfs::OpId> = plane.iter().map(|e| e.msg.id).collect();
        self.dfs.apply_batch_idempotent(&ops, &ids, &cred)
    }

    /// Data-plane group commit: claim every writeback of the run together,
    /// then hand the ones that still owe bytes to the DFS as one vectored
    /// write per data server and one size-update request — a run of one
    /// as a plain (or, identified, idempotent) `write`. One result per
    /// writeback, in order.
    fn apply_writebacks(&mut self, plane: &[RetryEntry], solo: bool) -> Vec<FsResult<()>> {
        let cred = self.core.config.cred;
        let paths: Vec<&str> =
            plane.iter().map(|e| e.msg.op.path().expect("writebacks have a path")).collect();
        // A recovered writeback owes the bytes its log record holds: the
        // cache that acknowledged it died with the old incarnation.
        let claims = if plane[0].recovered.is_some() {
            plane.iter().map(|e| Ok(e.recovered.clone())).collect()
        } else {
            self.claim_writebacks(&paths, solo)
        };
        let mut written = {
            let items: Vec<(&str, &[u8], dfs::OpId)> = claims
                .iter()
                .zip(&paths)
                .zip(plane)
                .filter_map(|((claim, path), e)| match claim {
                    Ok(Some(bytes)) => Some((*path, &bytes[..], e.msg.id)),
                    _ => None,
                })
                .collect();
            let write = |(path, bytes, id): (&str, &[u8], dfs::OpId)| {
                if id.is_none() {
                    self.dfs.write(path, &cred, 0, bytes)
                } else {
                    self.dfs.write_idempotent(path, &cred, bytes, id)
                }
            };
            let sent: Vec<_> = if solo {
                items.into_iter().map(write).collect()
            } else {
                self.dfs.write_small_batch(&items, &cred)
            };
            sent.into_iter()
        };
        claims
            .into_iter()
            .map(|claim| match claim? {
                Some(_) => written.next().expect("one result per item sent").map(|_| ()),
                None => Ok(()),
            })
            .collect()
    }

    /// The commit side of queued inline writebacks: the slots go in flight,
    /// then the records are read for what they owe the DFS, one result per
    /// path in order. The batched lookup also answers "miss" for an
    /// unreachable owner — that would drop an acknowledged write as "record
    /// vanished" — so a miss is confirmed by the single-key read, which
    /// tells the two apart. A run of one skips the batched lookup: its path
    /// goes straight to the single-key read.
    fn claim_writebacks(&self, paths: &[&str], solo: bool) -> Vec<FsResult<Option<Vec<u8>>>> {
        self.core.in_flight().claim_writebacks(paths);
        let hits =
            if solo { Ok(vec![None]) } else { self.cache.multi_get(paths).map(|(hits, _)| hits) };
        let Ok(hits) = hits else {
            return paths.iter().map(|_| self.owed(Err(CacheError::Unavailable))).collect();
        };
        let reread = |(hit, path): (Option<_>, &&str)| match hit {
            Some(_) => Ok(hit),
            None => self.cache.get(path),
        };
        hits.into_iter().zip(paths).map(reread).map(|read| self.owed(read)).collect()
    }

    /// What a claimed record owes the DFS: its inline bytes, or nothing (it
    /// vanished, was removed or went large: counted, settles as committed),
    /// or — node unreachable — a retriable error; restarted, it reads gone.
    fn owed(
        &self,
        read: Result<Option<(CachedMeta, u64)>, CacheError>,
    ) -> FsResult<Option<Vec<u8>>> {
        let read = read.map_err(|_| FsError::Backend("cache node down".into()))?;
        match read.filter(|(meta, _)| !meta.removed && !meta.large) {
            Some((meta, _)) => Ok(Some(meta.inline)),
            None => {
                self.core.counters.incr("writeback_skipped");
                Ok(None)
            }
        }
    }

    /// Book the outcome of one op's commit attempt. An op that applied, or
    /// whose outcome is in place, is pushed to `applied`: the caller runs
    /// the run's post-commit cache work and completes it.
    fn settle(
        &mut self,
        entry: RetryEntry,
        result: FsResult<()>,
        applied: &mut Vec<QueueMsg>,
    ) -> WorkerStep {
        let recovered = entry.recovered.is_some();
        let msg = &entry.msg;
        match result {
            Ok(()) => self.committed(entry.msg, None, applied),
            // A creation that meets its path is in place (create-if-absent).
            // Under the wait rule every earlier unlink of the path has
            // settled and no later creation lands before the next one, so
            // the file is the one program order leaves: its own, made by an
            // attempt whose reply was lost or by the log's last incarnation,
            // or an earlier creation's that this one duplicates, admitted
            // over a cold or unreachable cache.
            Err(FsError::AlreadyExists) if msg.op.is_creation() => {
                let counter = match (recovered, entry.backend_faulted) {
                    (true, _) => "recovery_exists",
                    (false, true) => "idempotent_replays",
                    (false, false) => "degraded_idempotent",
                };
                self.committed(entry.msg, Some(counter), applied)
            }
            // Recovered (DESIGN §5.3), an unlink that misses its file is in
            // place: no earlier op of its log is left to change the path
            // (`next_run`). Any other error but a missing prerequisite fails
            // the launch: the log holds its only copy.
            Err(FsError::NotFound) if recovered && matches!(msg.op, CommitOp::Unlink { .. }) => {
                self.committed(entry.msg, Some("recovery_gone"), applied)
            }
            Err(e) if recovered && e != FsError::NotFound => {
                self.failed.get_or_insert(e);
                WorkerStep::Retried
            }
            // Namespace-convention rejections (resubmit until the missing
            // prerequisite commit arrives — independent commit) and
            // transient backend faults (MDS outage / RPC timeout: retry
            // the same way, bounded by the retry budget).
            Err(
                e @ (FsError::NotFound
                | FsError::AlreadyExists
                | FsError::NotEmpty
                | FsError::Backend(_)),
            ) => self.resubmit(entry, matches!(e, FsError::Backend(_))),
            // Permission or backend error: not retriable; count and
            // surface through counters (the primary copy stays).
            Err(_) => self.discarded(&entry.msg, "commit_errors"),
        }
    }

    /// Send an op that failed, or waits, to the retry backlog, spending one
    /// attempt of its budget (`backend`: it failed with a transient backend
    /// error) — or discard it: it raced the removal of its directory, or
    /// its budget is spent.
    fn resubmit(&mut self, entry: RetryEntry, backend: bool) -> WorkerStep {
        let RetryEntry { msg, attempts, backend_faulted, recovered } = entry;
        let in_flight = self.core.in_flight();
        if msg.op.path().is_some_and(|path| in_flight.under_removed_dir(path, msg.epoch)) {
            return self.discarded(&msg, "discarded_removed_dir");
        }
        if attempts + 1 >= self.core.config.max_commit_retries {
            return self.discarded(&msg, "dropped_retry_budget");
        }
        self.core.counters.incr("resubmitted");
        let (attempts, backend_faulted) = (attempts + 1, backend_faulted || backend);
        self.retry.push_back(RetryEntry { msg, attempts, backend_faulted, recovered });
        WorkerStep::Retried
    }

    /// The op's outcome is on the DFS without it: it settles as committed,
    /// with no post-commit cache work.
    fn in_place(&self, msg: &QueueMsg, counter: &'static str) {
        self.retire(msg);
        self.core.counters.incr("committed");
        self.core.counters.incr(counter);
        self.core.note_completed();
    }

    /// The op applied (`also`: `None`) or its outcome is in place: count it
    /// and leave its post-commit cache work and completion to the run.
    fn committed(
        &mut self,
        msg: QueueMsg,
        also: Option<&'static str>,
        applied: &mut Vec<QueueMsg>,
    ) -> WorkerStep {
        self.retire(&msg);
        self.core.counters.incr("committed");
        if let Some(counter) = also {
            self.core.counters.incr(counter);
        }
        applied.push(msg);
        WorkerStep::Committed
    }

    /// The op will never apply. A discarded creation's staged bytes go
    /// with it: they were written to the incarnation it would have made.
    fn discarded(&self, msg: &QueueMsg, counter: &'static str) -> WorkerStep {
        self.retire(msg);
        if let (true, Some(path)) = (msg.op.is_creation(), msg.op.path()) {
            self.core.in_flight().take_staged(&[(path, msg.timestamp)]);
        }
        self.core.note_completed();
        self.core.counters.incr(counter);
        WorkerStep::Discarded
    }

    /// Settle what an op holds in the per-path table for good: an unlink's
    /// stamp, a writeback's slot. Runs *before* `settle_records`, whose
    /// deferred cache deletion must see the post-retirement stamps.
    fn retire(&self, msg: &QueueMsg) {
        match &msg.op {
            CommitOp::Unlink { path } => self.core.in_flight().settle_unlink(path, msg.timestamp),
            CommitOp::WriteInline { path } => self.core.in_flight().release_writeback(path),
            _ => {}
        }
    }

    /// Post-commit bookkeeping on the primary copy for every op of a run
    /// that applied: the records the creations mark and the unlinks delete
    /// come from one batched read and go back in one batched conditional
    /// write — per shard node, one request each way instead of a read and
    /// a write per op. The rules are the per-key ones ([`Self::marks`], its
    /// input read for every creation in one hold, and [`Self::drops`]);
    /// whatever the batch did not settle (another version landed, the ring
    /// epoch moved, a node is unreachable) is redone per key, and a run of
    /// one (`solo`) settles per key from the start. Best-effort under
    /// faults: a crashed shard's record is wiped anyway and rewarms from
    /// the DFS.
    ///
    /// A run holds at most one namespace op per path ([`Self::next_run`]),
    /// so each applied one settles its own record: a creation marks it; an
    /// unlink deletes it unless a later unlink of the path is still queued.
    fn settle_records(&self, applied: &[QueueMsg], solo: bool) {
        let in_flight = self.core.in_flight();
        let work: Vec<(&QueueMsg, &str)> = applied
            .iter()
            .filter_map(|msg| match &msg.op {
                CommitOp::Unlink { path } if in_flight.unlink_pending(path) => None,
                CommitOp::WriteInline { .. } => None,
                op => Some((msg, op.path()?)),
            })
            .collect();
        let creations: Vec<(&str, u64)> = work
            .iter()
            .filter(|(msg, _)| msg.op.is_creation())
            .map(|&(msg, path)| (path, msg.timestamp))
            .collect();
        let per_key = if solo { work } else { self.write_records(&work, &creations) };
        for (msg, path) in per_key {
            match msg.op {
                CommitOp::Unlink { .. } => self.drop_removed_record(path),
                _ => self.mark_committed(path, msg.timestamp),
            }
        }
        self.flush_staged(&creations);
    }

    /// The batched half of [`Self::settle_records`]: one read and one
    /// conditional write per shard node for `work`; returns the entries
    /// it did not settle.
    fn write_records<'a>(
        &self,
        work: &[(&'a QueueMsg, &'a str)],
        creations: &[(&str, u64)],
    ) -> Vec<(&'a QueueMsg, &'a str)> {
        let in_flight = self.core.in_flight();
        // The epoch before the read: a membership change since fences the
        // write. (Writebacks alone make both batches empty, and an empty
        // batch sends no request.)
        let epoch = self.cache.kv().cluster().ring_epoch();
        let paths: Vec<&str> = work.iter().map(|&(_, path)| path).collect();
        let reads = self.cache.multi_get(&paths).map_or_else(|_| vec![None; paths.len()], |r| r.0);
        // The mark rule's input for every creation, read after the records.
        let mut unlinked_after = in_flight.unlinks_pending_after(creations).into_iter();
        // Per write: the `work` entry it settles, the version read, and
        // the marked record — or `None`, the deletion.
        let mut writes: Vec<(usize, u64, Option<CachedMeta>)> = Vec::new();
        for (w, (&(msg, path), read)) in work.iter().zip(reads).enumerate() {
            let later = msg.op.is_creation() && unlinked_after.next() == Some(true);
            let Some((mut meta, version)) = read else { continue };
            match msg.op {
                CommitOp::Unlink { .. } if self.drops(path, &meta) => {
                    writes.push((w, version, None));
                }
                CommitOp::Unlink { .. } => {}
                _ if Self::marks(&meta, || later) => {
                    meta.committed = true;
                    writes.push((w, version, Some(meta)));
                }
                _ => {}
            }
        }
        for (w, _, meta) in &writes {
            if meta.as_ref().is_some_and(|m| m.large) {
                let (msg, path) = work[*w];
                self.write_through(path, msg.timestamp);
            }
        }
        let items: Vec<(&str, u64, Option<&CachedMeta>)> =
            writes.iter().map(|(w, version, meta)| (work[*w].1, *version, meta.as_ref())).collect();
        let settled =
            self.cache.multi_write(&items, epoch).unwrap_or_else(|_| vec![false; items.len()]);
        let mut unsettled = Vec::new();
        for (&(w, ..), settled) in writes.iter().zip(settled) {
            match (&work[w].0.op, settled) {
                (CommitOp::Unlink { .. }, true) => in_flight.clear_stale(work[w].1),
                (_, true) => {}
                (_, false) => unsettled.push(work[w]),
            }
        }
        unsettled
    }

    /// The mark rule: does a creation mark `meta` committed? Not when it
    /// already says so (nothing to store), and not when it is a *later*
    /// incarnation — a live record while an unlink stamped after this
    /// creation is still queued (`unlinked_after`, asked only when it
    /// matters): that unlink removed this creation's file, and the record
    /// was created again over its removed-mark. Marked, the re-created
    /// file would take its data straight to the DFS copy the queued
    /// unlink is about to delete. A removed record is this creation's own
    /// and is marked.
    fn marks(meta: &CachedMeta, unlinked_after: impl FnOnce() -> bool) -> bool {
        !meta.committed && (meta.removed || !unlinked_after())
    }

    /// The deletion rule of a committed unlink: the record goes if it is
    /// still marked removed (a re-create must survive — also one that
    /// lands after the read, hence the versioned delete), or marked stale
    /// (this very unlink's degraded-mode leftover, which never got its
    /// removed-mark). The caller has checked that no later unlink of the
    /// path is queued: the removed-mark would be that unlink's tombstone,
    /// and dropping it lets the read path resurrect the record from the
    /// not-yet-updated backup copy.
    fn drops(&self, path: &str, meta: &CachedMeta) -> bool {
        meta.removed || self.core.in_flight().is_stale(path)
    }

    /// Per-key mark: the backup copy now exists. The rule is re-checked
    /// on the record the CAS loop reads.
    fn mark_committed(&self, path: &str, ts: u64) {
        let unlinked_after = || self.core.in_flight().unlinks_pending_after(&[(path, ts)])[0];
        let _ = self.cache.update::<()>(path, None, |m| {
            if Self::marks(m, unlinked_after) {
                if m.large {
                    self.write_through(path, ts);
                }
                m.committed = true;
            }
            Ok(())
        });
    }

    /// Before a large record is marked committed, what is staged for it
    /// goes to its file — and what is staged from then on as well (DESIGN
    /// §10.4): a reader of the mark reads the DFS copy.
    fn write_through(&self, path: &str, ts: u64) {
        self.core.in_flight().write_through(path, ts, |data| self.write_staged(path, data));
    }

    /// Per-key deferred deletion of a committed unlink's record.
    fn drop_removed_record(&self, path: &str) {
        if let Ok(Some((meta, version))) = self.cache.get(path) {
            if self.drops(path, &meta) && self.cache.delete(path, Some(version)).is_ok() {
                self.core.in_flight().clear_stale(path);
            }
        }
    }

    /// Write back the bytes staged while the created files were not on the
    /// DFS yet (Section III.D-2) — by the creation that owns them (stamped
    /// `ts` in `(path, ts)`), never by an unlink or an older creation:
    /// what is staged then is a later incarnation's.
    fn flush_staged(&self, created: &[(&str, u64)]) {
        for (path, data) in self.core.in_flight().take_staged(created) {
            self.write_staged(path, &data);
        }
    }

    fn write_staged(&self, path: &str, data: &[u8]) {
        if self.dfs.write(path, &self.core.config.cred, 0, data).is_ok() {
            self.core.counters.incr("staged_writebacks");
        } else {
            self.core.counters.incr("staged_writeback_errors");
        }
    }
}

impl RegionCore {
    pub(crate) fn config_commit_dispatch(&self) -> u64 {
        self.cache_cluster.profile().commit_dispatch
    }
}
