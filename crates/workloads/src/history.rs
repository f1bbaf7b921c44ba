//! The program-order reference every equivalence test checks against.
//!
//! Pacon's independent-commit theorem (Section III.E-1) says that ops
//! obeying the namespace conventions, committed in any interleaving
//! across queues, end in the namespace that program order gives. Program
//! order is a plain DFS given the acknowledged ops one at a time: a
//! [`History`] records what a client acknowledged and builds that DFS
//! ([`History::reference`]), [`observe`] reads any backend the same way so
//! that two views compare, and [`History::assert_backup_matches`] is the
//! one check of a region's backup copy against the reference.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileKind, FileSystem, FsResult};
use pacon::commit::worker::WorkerStep;
use pacon::PaconRegion;
use simnet::LatencyProfile;

use crate::ops::FsOp;

/// What [`observe`] reads at one path: kind and size, and a file's bytes
/// (empty for a directory).
#[derive(Debug, PartialEq, Eq)]
pub struct Seen {
    pub kind: FileKind,
    pub size: u64,
    pub bytes: Vec<u8>,
}

/// Read every path of `universe` through `fs`, in order: a file by kind,
/// size and bytes, a directory by kind and size, a missing path by its
/// error.
pub fn observe(
    fs: &dyn FileSystem,
    cred: &Credentials,
    universe: &[String],
) -> Vec<(String, FsResult<Seen>)> {
    universe
        .iter()
        .map(|p| {
            let seen = fs.stat(p, cred).and_then(|st| {
                let bytes = match st.kind {
                    FileKind::File => fs.read(p, cred, 0, st.size as usize)?,
                    FileKind::Dir => Vec::new(),
                };
                Ok(Seen { kind: st.kind, size: st.size, bytes })
            });
            (p.clone(), seen)
        })
        .collect()
}

/// The ops a client issued, in program order, each with the answer it got.
#[derive(Debug, Clone)]
pub struct History {
    root: String,
    issued: Vec<(FsOp, FsResult<()>)>,
    /// Names the run in a failed assertion's message (empty: unnamed).
    label: String,
}

impl History {
    /// An empty history of the workspace rooted at `root`.
    pub fn new(root: &str) -> Self {
        Self { root: root.to_string(), issued: Vec::new(), label: String::new() }
    }

    /// The same history, its failed assertions naming the run `label`.
    pub fn labelled(self, label: impl Into<String>) -> Self {
        Self { label: label.into(), ..self }
    }

    /// Issue `op` through `fs` and record it with the answer, which is
    /// returned: an `Ok` answer acknowledges the op.
    pub fn issue(&mut self, fs: &dyn FileSystem, cred: &Credentials, op: FsOp) -> FsResult<()> {
        let answer = op.exec(fs, cred);
        self.issued.push((op, answer.clone()));
        answer
    }

    /// Count the last issued op as acknowledged although its client saw
    /// an error: an op killed after its log append is durable all the same.
    pub fn acknowledge_last(&mut self) {
        if let Some((_, answer)) = self.issued.last_mut() {
            *answer = Ok(());
        }
    }

    /// How many issued ops were acknowledged.
    pub fn acknowledged(&self) -> usize {
        self.issued.iter().filter(|(_, answer)| answer.is_ok()).count()
    }

    /// The acknowledged ops alone, up to the `n`-th: what a commit log cut
    /// after its `n`-th record holds, one record per acknowledged op.
    pub fn acknowledged_prefix(&self, n: usize) -> Self {
        let acked = self.issued.iter().filter(|(_, answer)| answer.is_ok());
        let issued = acked.take(n).cloned().collect();
        Self { root: self.root.clone(), issued, label: self.label.clone() }
    }

    /// The program-order reference: a zero-profile DFS given the workspace
    /// root at 0o777 and then every acknowledged op, in order. A rejection
    /// is ignored, as the region's idempotent commit absorbs a re-ack of an
    /// op that is already satisfied.
    pub fn reference(&self, cred: &Credentials) -> Arc<DfsCluster> {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let fs = dfs.client();
        fs.mkdir(&self.root, cred, 0o777).expect("workspace root on an empty DFS");
        for (op, _) in self.issued.iter().filter(|(_, answer)| answer.is_ok()) {
            let _ = op.exec(&fs, cred);
        }
        dfs
    }

    /// Every issued op, acknowledged or not, answered in program order by
    /// a plain DFS as the client answered it.
    pub fn assert_answers_match(&self, cred: &Credentials) {
        let plain = History::new(&self.root).reference(cred);
        let fs = plain.client();
        for (n, (op, answer)) in self.issued.iter().enumerate() {
            assert_eq!(&op.exec(&fs, cred), answer, "answer to op {n}, {op:?} {}", self.label);
        }
    }

    /// The backup-copy check: `dfs` holds the reference's namespace
    /// snapshot (paths, kinds, sizes), and [`observe`] reads the same over
    /// `universe` on both. Returns the reference.
    pub fn assert_backup_matches(
        &self,
        dfs: &Arc<DfsCluster>,
        cred: &Credentials,
        universe: &[String],
    ) -> Arc<DfsCluster> {
        let reference = self.reference(cred);
        assert_eq!(dfs.snapshot(), reference.snapshot(), "backup namespace {}", self.label);
        assert_eq!(
            observe(&dfs.client(), cred, universe),
            observe(&reference.client(), cred, universe),
            "backup contents {}",
            self.label
        );
        reference
    }
}

/// Step `region`'s commit processes in their slots, round-robin, until
/// every enqueued op has settled (`true`) or one of them crashed
/// (`false`: a crash switch fired). Panics past `max_rounds` rounds, each
/// a step of every node: a workload's bound says how long its pipeline
/// may take.
pub fn drain(region: &PaconRegion, max_rounds: u32) -> bool {
    let core = region.core();
    for _ in 0..max_rounds {
        if core.drained() {
            return true;
        }
        for n in 0..core.config.topology.nodes as usize {
            if let Some((WorkerStep::Crashed, _)) = core.step_worker(n) {
                return false;
            }
        }
    }
    panic!("commit pipeline did not converge in {max_rounds} rounds");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacon::PaconConfig;
    use simnet::{ClientId, Topology};

    /// The backup-copy check can fail: a paused region acknowledges an op,
    /// then dies before any commit step. For a lost create, and for a
    /// lost write's bytes, the check must reject the backup copy.
    #[test]
    fn the_backup_check_fails_when_an_acknowledged_op_is_lost() {
        let cred = Credentials::new(1, 1);
        let universe = ["/w".to_string(), "/w/f".to_string()];
        let create = FsOp::Create("/w/f".into(), 0o644);
        let write = FsOp::Write { path: "/w/f".into(), offset: 0, data: b"gone".to_vec() };
        for (committed, lost) in [(None, create.clone()), (Some(create), write)] {
            let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
            let config = PaconConfig::new("/w", Topology::new(1, 1), cred);
            let region = PaconRegion::launch_paused(config, &dfs).unwrap();
            let c = region.client(ClientId(0));
            let mut history = History::new("/w");
            if let Some(op) = committed {
                history.issue(&c, &cred, op).unwrap();
            }
            assert!(drain(&region, 10_000));
            history.assert_backup_matches(&dfs, &cred, &universe);
            history.issue(&c, &cred, lost.clone()).unwrap();
            region.abort();
            let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                history.assert_backup_matches(&dfs, &cred, &universe);
            }));
            assert!(check.is_err(), "the check passed without {lost:?}");
        }
    }
}
