//! The program-order reference every equivalence test checks against.
//!
//! Pacon's independent-commit theorem (Section III.E-1) says that ops
//! obeying the namespace conventions, committed in any interleaving
//! across queues, end in the namespace that program order gives. Program
//! order is a [`Reference`], a pure machine given the acknowledged ops one
//! at a time: a [`History`] records what a client acknowledged and builds
//! that machine ([`History::reference`]), [`observe`] reads any backend the
//! same way so that two views compare, and [`History::assert_backup_matches`]
//! is the one check of a region's backup copy against the reference.

use std::collections::BTreeMap;
use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{path as fspath, Credentials, FileKind, FileStat, FileSystem, FsError, FsResult, Perm};
use pacon::commit::worker::WorkerStep;
use pacon::PaconRegion;
use syncguard::{level, Mutex};

use crate::ops::FsOp;

/// A [`Reference`]'s entries by path: kind, mode, and a file's bytes.
type Tree = BTreeMap<String, (FileKind, u16, Vec<u8>)>;

/// The namespace rules stated once: a map from path to entry, starting
/// with `/`. One user and no permission model; a missing ancestor is
/// `NotFound` and a file on the way is `NotADirectory`, as on the DFS. Its
/// rmdir removes the whole subtree, as Pacon's does (Section III.D-1).
pub struct Reference {
    tree: Mutex<Tree>,
}

impl Default for Reference {
    fn default() -> Self {
        let tree = Tree::from([("/".to_string(), (FileKind::Dir, 0o777, Vec::new()))]);
        Self { tree: Mutex::new(level::BACKEND, "workloads.history.reference", tree) }
    }
}

/// The kind at `path`, once every ancestor resolved to a directory; an
/// op that needs a `want` kind is refused on the other.
fn kind(tree: &Tree, path: &str, want: Option<FileKind>) -> FsResult<FileKind> {
    if let Some(parent) = fspath::parent(path) {
        kind(tree, parent, Some(FileKind::Dir))?;
    }
    match (tree.get(path).ok_or(FsError::NotFound)?.0, want) {
        (FileKind::File, Some(FileKind::Dir)) => Err(FsError::NotADirectory),
        (FileKind::Dir, Some(FileKind::File)) => Err(FsError::IsADirectory),
        (found, _) => Ok(found),
    }
}

/// The names directly under `dir`, sorted.
fn children<'t>(tree: &'t Tree, dir: &'t str) -> impl Iterator<Item = String> + 't {
    let under = tree.keys().filter(move |p| fspath::parent(p) == Some(dir));
    under.filter_map(|p| fspath::basename(p)).map(String::from)
}

impl Reference {
    /// Sorted `(path, kind, size)` listing, as `DfsCluster::snapshot`.
    pub fn snapshot(&self) -> Vec<(String, FileKind, u64)> {
        self.tree.lock().iter().map(|(p, (k, _, bytes))| (p.clone(), *k, bytes.len() as u64)).collect()
    }

    fn create_kind(&self, path: &str, mode: u16, new: FileKind) -> FsResult<()> {
        let mut tree = self.tree.lock();
        kind(&tree, fspath::parent(path).unwrap_or("/"), Some(FileKind::Dir))?;
        if tree.contains_key(path) {
            return Err(FsError::AlreadyExists);
        }
        tree.insert(path.to_string(), (new, mode, Vec::new()));
        Ok(())
    }
}

impl FileSystem for Reference {
    fn mkdir(&self, path: &str, _: &Credentials, mode: u16) -> FsResult<()> {
        self.create_kind(path, mode, FileKind::Dir)
    }

    fn create(&self, path: &str, _: &Credentials, mode: u16) -> FsResult<()> {
        self.create_kind(path, mode, FileKind::File)
    }

    fn stat(&self, path: &str, cred: &Credentials) -> FsResult<FileStat> {
        let tree = self.tree.lock();
        let found = kind(&tree, path, None)?;
        let (_, mode, bytes) = &tree[path];
        let nlink = if found == FileKind::Dir { children(&tree, path).count() as u64 + 2 } else { 1 };
        let perm = Perm::new(*mode, cred.uid, cred.gid);
        Ok(FileStat { kind: found, perm, size: bytes.len() as u64, mtime: 0, nlink })
    }

    fn unlink(&self, path: &str, _: &Credentials) -> FsResult<()> {
        let mut tree = self.tree.lock();
        kind(&tree, path, Some(FileKind::File))?;
        tree.remove(path).map(drop).ok_or(FsError::NotFound)
    }

    fn rmdir(&self, path: &str, _: &Credentials) -> FsResult<()> {
        let mut tree = self.tree.lock();
        kind(&tree, path, Some(FileKind::Dir))?;
        tree.retain(|p, _| !fspath::is_same_or_ancestor(path, p));
        Ok(())
    }

    fn readdir(&self, path: &str, _: &Credentials) -> FsResult<Vec<String>> {
        let tree = self.tree.lock();
        kind(&tree, path, Some(FileKind::Dir))?;
        Ok(children(&tree, path).collect())
    }

    fn write(&self, path: &str, _: &Credentials, offset: u64, data: &[u8]) -> FsResult<usize> {
        let mut tree = self.tree.lock();
        kind(&tree, path, Some(FileKind::File))?;
        let bytes = &mut tree.get_mut(path).expect("the file was just found").2;
        let end = offset as usize + data.len();
        bytes.resize(end.max(bytes.len()), 0);
        bytes[offset as usize..end].copy_from_slice(data);
        Ok(data.len())
    }

    fn read(&self, path: &str, _: &Credentials, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let tree = self.tree.lock();
        kind(&tree, path, Some(FileKind::File))?;
        let bytes = &tree[path].2;
        let start = (offset as usize).min(bytes.len());
        Ok(bytes[start..(start + len).min(bytes.len())].to_vec())
    }

    fn fsync(&self, path: &str, _: &Credentials) -> FsResult<()> {
        kind(&self.tree.lock(), path, None).map(drop)
    }
}

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

    /// The program-order reference: a [`Reference`] given the workspace
    /// root at 0o777 and then every acknowledged op, in order. A rejection
    /// is ignored, as the region's idempotent commit absorbs a re-ack of an
    /// op that is already satisfied.
    pub fn reference(&self, cred: &Credentials) -> Reference {
        let reference = Reference::default();
        reference.mkdir(&self.root, cred, 0o777).expect("workspace root on an empty namespace");
        for (op, _) in self.issued.iter().filter(|(_, answer)| answer.is_ok()) {
            let _ = op.exec(&reference, cred);
        }
        reference
    }

    /// Every issued op, acknowledged or not, answered in program order by
    /// the [`Reference`] as the client answered it.
    pub fn assert_answers_match(&self, cred: &Credentials) {
        let reference = History::new(&self.root).reference(cred);
        for (n, (op, answer)) in self.issued.iter().enumerate() {
            assert_eq!(&op.exec(&reference, cred), answer, "answer to op {n}, {op:?} {}", self.label);
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
    ) -> Reference {
        let reference = self.reference(cred);
        assert_eq!(dfs.snapshot(), reference.snapshot(), "backup namespace {}", self.label);
        assert_eq!(
            observe(&dfs.client(), cred, universe),
            observe(&reference, cred, universe),
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
    use simnet::{ClientId, LatencyProfile, Topology};

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

    /// The reference's rmdir takes the subtree, as Pacon's does, and a
    /// directory made again under the same name starts empty.
    #[test]
    fn the_reference_rmdir_takes_the_subtree() {
        let cred = Credentials::new(1, 1);
        let reference = History::new("/w").reference(&cred);
        for dir in ["/w/d", "/w/d/e"] {
            reference.mkdir(dir, &cred, 0o755).unwrap();
        }
        reference.create("/w/d/e/f", &cred, 0o644).unwrap();
        reference.rmdir("/w/d", &cred).unwrap();
        reference.mkdir("/w/d", &cred, 0o755).unwrap();
        assert_eq!(reference.readdir("/w/d", &cred), Ok(Vec::new()));
        assert_eq!(reference.snapshot().len(), 3, "/, /w and the new /w/d");
    }

    /// A zero-length write to a missing file is refused, so a client that
    /// acknowledges one fails the answer check.
    #[test]
    fn a_zero_length_write_to_a_missing_file_is_not_found() {
        let cred = Credentials::new(1, 1);
        let write = FsOp::Write { path: "/w/f".into(), offset: 0, data: Vec::new() };
        let history = History { issued: vec![(write, Ok(()))], ..History::new("/w") };
        assert!(std::panic::catch_unwind(|| history.assert_answers_match(&cred)).is_err());
    }
}
