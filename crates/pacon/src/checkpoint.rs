//! Failure recovery (Section III.G).
//!
//! A client-node failure loses the uncommitted operations of its
//! consistent region — and only that region, because regions are
//! isolated. Pacon recovers by periodically checkpointing the region's
//! subtree *on the DFS* (checkpoint = subtree copy) and, after a
//! failure, rolling the subtree back to the newest checkpoint and
//! rebuilding the distributed cache (which simply starts empty and
//! refills from the DFS on getattr misses).
//!
//! The checkpoint interface is exposed to the application, as the paper
//! prescribes, so apps choose their own intervals. Checkpoints are
//! optional: without them, the DFS still guarantees crash consistency of
//! everything already committed.

use fsapi::{path as fspath, Credentials, FileKind, FsError, FsResult};
use fsapi::FileSystem;

use crate::region::PaconRegion;

/// Where checkpoints live on the DFS.
pub const CHECKPOINT_ROOT: &str = "/.pacon-checkpoints";

/// Outcome of a checkpoint or rollback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    pub dirs: u64,
    pub files: u64,
    pub bytes: u64,
}

fn sanitized(root: &str) -> String {
    root.trim_start_matches('/').replace('/', "_")
}

fn checkpoint_dir(region_root: &str, name: &str) -> String {
    format!("{CHECKPOINT_ROOT}/{}/{}", sanitized(region_root), name)
}

/// Recursively copy `src` (a directory) into `dst` on the DFS.
fn copy_tree(
    fs: &dfs::DfsClient,
    src: &str,
    dst: &str,
    cred: &Credentials,
    stats: &mut CheckpointStats,
) -> FsResult<()> {
    // lint: allow(commit-path, checkpoint capture writes the snapshot tree directly; runs quiesced (Section III.G))
    match fs.mkdir(dst, cred, 0o777) {
        Ok(()) | Err(FsError::AlreadyExists) => {}
        Err(e) => return Err(e),
    }
    stats.dirs += 1;
    for name in fs.readdir(src, cred)? {
        let s = fspath::join(src, &name);
        let d = fspath::join(dst, &name);
        let st = fs.stat(&s, cred)?;
        match st.kind {
            FileKind::Dir => copy_tree(fs, &s, &d, cred, stats)?,
            FileKind::File => {
                // lint: allow(commit-path, checkpoint capture writes the snapshot tree directly; runs quiesced (Section III.G))
                match fs.create(&d, cred, st.perm.mode) {
                    Ok(()) | Err(FsError::AlreadyExists) => {}
                    Err(e) => return Err(e),
                }
                if st.size > 0 {
                    let data = fs.read(&s, cred, 0, st.size as usize)?;
                    // lint: allow(commit-path, checkpoint capture writes the snapshot tree directly; runs quiesced (Section III.G))
                    fs.write(&d, cred, 0, &data)?;
                    stats.bytes += data.len() as u64;
                }
                stats.files += 1;
            }
        }
    }
    Ok(())
}

/// Remove every entry *inside* `dir` on the DFS (keeps `dir` itself).
fn clear_dir(fs: &dfs::DfsClient, dir: &str, cred: &Credentials) -> FsResult<()> {
    for name in fs.readdir(dir, cred)? {
        let p = fspath::join(dir, &name);
        match fs.stat(&p, cred)?.kind {
            FileKind::Dir => {
                clear_dir(fs, &p, cred)?;
                // lint: allow(commit-path, rollback clears the stale subtree directly; concurrent clients undefined per paper)
                fs.rmdir(&p, cred)?;
            }
            // lint: allow(commit-path, rollback clears the stale subtree directly; concurrent clients undefined per paper)
            FileKind::File => fs.unlink(&p, cred)?,
        }
    }
    Ok(())
}

impl PaconRegion {
    /// Checkpoint the region's workspace subtree on the DFS under `name`.
    /// Runs a sync barrier first so the backup copy is complete, then
    /// copies the subtree (checkpoint overhead = subtree copy).
    pub fn checkpoint(&self, name: &str) -> FsResult<CheckpointStats> {
        if name.is_empty() || name.contains('/') {
            return Err(FsError::InvalidArgument(format!("bad checkpoint name: {name}")));
        }
        self.sync_barrier()?;
        let cred = self.core().config.cred;
        let fs = self.dfs().client();
        let dst = checkpoint_dir(&self.core().root, name);
        // Ensure the checkpoint root chain exists.
        let mut prefix = String::new();
        for comp in fspath::components(fspath::parent(&dst).unwrap_or("/")) {
            prefix.push('/');
            prefix.push_str(comp);
            // lint: allow(commit-path, checkpoint root chain is created directly; runs quiesced (Section III.G))
            match fs.mkdir(&prefix, &Credentials::root(), 0o777) {
                Ok(()) | Err(FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        let mut stats = CheckpointStats::default();
        copy_tree(&fs, &self.core().root, &dst, &cred, &mut stats)?;
        self.core().counters.incr("checkpoints");
        Ok(stats)
    }

    /// Names of this region's checkpoints on the DFS, sorted.
    pub fn list_checkpoints(&self) -> FsResult<Vec<String>> {
        let cred = self.core().config.cred;
        let fs = self.dfs().client();
        let dir = format!("{CHECKPOINT_ROOT}/{}", sanitized(&self.core().root));
        match fs.readdir(&dir, &cred) {
            Ok(names) => Ok(names),
            Err(FsError::NotFound) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Delete one checkpoint (reclaims its DFS space).
    pub fn delete_checkpoint(&self, name: &str) -> FsResult<()> {
        if name.is_empty() || name.contains('/') {
            return Err(FsError::InvalidArgument(format!("bad checkpoint name: {name}")));
        }
        let cred = self.core().config.cred;
        let fs = self.dfs().client();
        let dir = checkpoint_dir(&self.core().root, name);
        if fs.stat(&dir, &cred)?.kind != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        clear_dir(&fs, &dir, &cred)?;
        // lint: allow(commit-path, checkpoint deletion removes the snapshot dir directly; runs quiesced)
        fs.rmdir(&dir, &cred)
    }

    /// Roll the workspace subtree back to checkpoint `name` and rebuild
    /// (clear) the distributed cache. Intended for the recovery path of a
    /// *freshly launched* region after a node failure; concurrent client
    /// activity during rollback is undefined, as in the paper.
    pub fn rollback(&self, name: &str) -> FsResult<CheckpointStats> {
        let cred = self.core().config.cred;
        let fs = self.dfs().client();
        let src = checkpoint_dir(&self.core().root, name);
        // Verify the checkpoint exists before destroying anything.
        if fs.stat(&src, &cred)?.kind != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        clear_dir(&fs, &self.core().root, &cred)?;
        let mut stats = CheckpointStats::default();
        copy_tree(&fs, &src, &self.core().root, &cred, &mut stats)?;
        // Rebuild the primary copy: start empty; getattr misses reload
        // from the DFS. The per-path table goes with it — what it says about
        // queued unlinks, writebacks and committed incarnations describes
        // the tree this rollback just replaced.
        self.core().cache_cluster.clear();
        self.core().in_flight().clear();
        // The node mounts' dentries name the inodes this rollback deleted.
        self.forget_mount_dentries();
        // Ops that never reached a commit queue predate the rollback and
        // must not survive it — drop them where they wait, in the nodes'
        // outboxes, and, in durable mode, reset the commit log so the next
        // launch cannot resurrect rolled-back mutations.
        let nodes = self.core().config.topology.nodes as usize;
        let dropped: u64 = (0..nodes).map(|n| self.core().outbox(n).drop_unsent()).sum();
        for _ in 0..dropped {
            self.core().note_completed();
        }
        self.core().counters.add("rollback_dropped_ops", dropped);
        self.core().reset_wal()?;
        self.core().counters.incr("rollbacks");
        Ok(stats)
    }
}
