//! The hierarchical namespace held by the metadata service.
//!
//! Pure data structure: inode table + directory trees, with POSIX-style
//! checks (existence, kind, emptiness, permission) but no cost accounting
//! — the [`crate::mds`] front end charges service time per request.
//!
//! Inodes live in a slab indexed by their number. Numbers are handed out
//! in sequence and never reused: removing an inode leaves an empty slot,
//! so a stale number (a chunk owner, a replay record) can never name a
//! newer file.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use fsapi::types::{ACCESS_R, ACCESS_W, ACCESS_X};
use fsapi::{Credentials, FileKind, FileStat, FsError, FsResult, Perm};

/// Inode number. The root is always [`Ino::ROOT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u64);

impl Ino {
    pub const ROOT: Ino = Ino(1);

    /// Slab index of this inode (`None` if it cannot be one).
    fn slot(self) -> Option<usize> {
        usize::try_from(self.0).ok()
    }
}

/// Children of a directory by name, sorted (`readdir` lists them in order).
type Children = BTreeMap<String, Ino>;

#[derive(Debug, Clone)]
pub struct Inode {
    pub kind: FileKind,
    pub perm: Perm,
    pub size: u64,
    pub mtime: u64,
    /// Directory children; `None` exactly when `kind` is a file.
    children: Option<Box<Children>>,
}

impl Inode {
    fn new(kind: FileKind, perm: Perm, mtime: u64) -> Self {
        let children = (kind == FileKind::Dir).then(Box::default);
        Self { kind, perm, size: 0, mtime, children }
    }

    /// The children of a directory; `NotADirectory` for a file.
    fn dir(&self) -> FsResult<&Children> {
        self.children.as_deref().ok_or(FsError::NotADirectory)
    }

    fn dir_mut(&mut self) -> FsResult<&mut Children> {
        self.children.as_deref_mut().ok_or(FsError::NotADirectory)
    }
}

/// The namespace: inode table rooted at `/`.
pub struct Namespace {
    /// Slot `n` holds inode `n`; slot 0 is never used, removed inodes
    /// leave `None`.
    inodes: Vec<Option<Inode>>,
    live: usize,
    clock: u64,
}

impl Namespace {
    /// Fresh namespace whose root is owned by root with `root_mode`.
    pub fn new(root_mode: u16) -> Self {
        let root = Inode::new(FileKind::Dir, Perm::new(root_mode, 0, 0), 0);
        Self { inodes: vec![None, Some(root)], live: 1, clock: 1 }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    pub fn get(&self, ino: Ino) -> FsResult<&Inode> {
        ino.slot()
            .and_then(|i| self.inodes.get(i))
            .and_then(Option::as_ref)
            .ok_or(FsError::NotFound)
    }

    fn get_mut(&mut self, ino: Ino) -> FsResult<&mut Inode> {
        ino.slot()
            .and_then(|i| self.inodes.get_mut(i))
            .and_then(Option::as_mut)
            .ok_or(FsError::NotFound)
    }

    /// Empty `ino`'s slot for good (its number is never handed out again).
    fn free(&mut self, ino: Ino) {
        if let Some(slot) = ino.slot().and_then(|i| self.inodes.get_mut(i)) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
    }

    /// A directory whose entries the caller may change, after the kind
    /// and write + search permission checks.
    fn writable_dir(&mut self, parent: Ino, cred: &Credentials) -> FsResult<&mut Inode> {
        let dir = self.get_mut(parent)?;
        dir.dir()?;
        if !dir.perm.allows(cred, ACCESS_W | ACCESS_X) {
            return Err(FsError::PermissionDenied);
        }
        Ok(dir)
    }

    /// Remove the entry `name` from `parent` and stamp the directory.
    fn detach(&mut self, parent: Ino, name: &str, mtime: u64) -> FsResult<()> {
        let dir = self.get_mut(parent)?;
        dir.dir_mut()?.remove(name);
        dir.mtime = mtime;
        Ok(())
    }

    /// Look up one child by name, enforcing search (x) permission on the
    /// parent directory — the per-component check real path traversal pays.
    pub fn lookup(&self, parent: Ino, name: &str, cred: &Credentials) -> FsResult<Ino> {
        let dir = self.get(parent)?;
        let children = dir.dir()?;
        if !dir.perm.allows(cred, ACCESS_X) {
            return Err(FsError::PermissionDenied);
        }
        children.get(name).copied().ok_or(FsError::NotFound)
    }

    /// Attributes of an inode (no permission needed beyond having resolved
    /// the path, per POSIX stat semantics).
    pub fn getattr(&self, ino: Ino) -> FsResult<FileStat> {
        let inode = self.get(ino)?;
        Ok(FileStat {
            kind: inode.kind,
            perm: inode.perm,
            size: inode.size,
            mtime: inode.mtime,
            nlink: inode.children.as_ref().map_or(1, |c| c.len() as u64 + 2),
        })
    }

    /// Create a child (file or directory) under `parent`.
    pub fn create_child(
        &mut self,
        parent: Ino,
        name: &str,
        kind: FileKind,
        mode: u16,
        cred: &Credentials,
    ) -> FsResult<Ino> {
        if name.is_empty() || name.contains('/') {
            return Err(FsError::InvalidPath(name.to_string()));
        }
        let mtime = self.tick();
        let ino = Ino(self.inodes.len() as u64);
        let dir = self.writable_dir(parent, cred)?;
        match dir.dir_mut()?.entry(name.to_string()) {
            Entry::Occupied(_) => return Err(FsError::AlreadyExists),
            Entry::Vacant(slot) => slot.insert(ino),
        };
        dir.mtime = mtime;
        self.inodes.push(Some(Inode::new(kind, Perm::new(mode, cred.uid, cred.gid), mtime)));
        self.live += 1;
        Ok(ino)
    }

    /// Unlink a file child; returns the removed inode number so the data
    /// path can reclaim its chunks.
    pub fn unlink_child(&mut self, parent: Ino, name: &str, cred: &Credentials) -> FsResult<Ino> {
        let mtime = self.tick();
        let &ino = self.writable_dir(parent, cred)?.dir()?.get(name).ok_or(FsError::NotFound)?;
        if self.get(ino)?.kind != FileKind::File {
            return Err(FsError::IsADirectory);
        }
        self.free(ino);
        self.detach(parent, name, mtime)?;
        Ok(ino)
    }

    /// Remove an *empty* directory child (POSIX rmdir).
    pub fn rmdir_child(&mut self, parent: Ino, name: &str, cred: &Credentials) -> FsResult<()> {
        let mtime = self.tick();
        let &ino = self.writable_dir(parent, cred)?.dir()?.get(name).ok_or(FsError::NotFound)?;
        if !self.get(ino)?.dir()?.is_empty() {
            return Err(FsError::NotEmpty);
        }
        self.free(ino);
        self.detach(parent, name, mtime)
    }

    /// Names in a directory (requires read permission).
    pub fn readdir(&self, ino: Ino, cred: &Credentials) -> FsResult<Vec<String>> {
        let dir = self.get(ino)?;
        let children = dir.dir()?;
        if !dir.perm.allows(cred, ACCESS_R) {
            return Err(FsError::PermissionDenied);
        }
        Ok(children.keys().cloned().collect())
    }

    /// Update file size after a data write (requires write permission).
    pub fn set_size(&mut self, ino: Ino, size: u64, cred: &Credentials) -> FsResult<()> {
        let mtime = self.tick();
        let inode = self.get_mut(ino)?;
        if inode.kind != FileKind::File {
            return Err(FsError::IsADirectory);
        }
        if !inode.perm.allows(cred, ACCESS_W) {
            return Err(FsError::PermissionDenied);
        }
        inode.size = size;
        inode.mtime = mtime;
        Ok(())
    }

    /// Check read permission on a file (used by the data path).
    pub fn check_read(&self, ino: Ino, cred: &Credentials) -> FsResult<u64> {
        let inode = self.get(ino)?;
        if inode.kind != FileKind::File {
            return Err(FsError::IsADirectory);
        }
        if !inode.perm.allows(cred, ACCESS_R) {
            return Err(FsError::PermissionDenied);
        }
        Ok(inode.size)
    }

    /// Number of live inodes (diagnostics / leak tests).
    pub fn inode_count(&self) -> usize {
        self.live
    }

    /// Sorted `(path, kind, size)` listing of the whole tree — test and
    /// checkpoint helper, never part of the charged fast path.
    pub fn snapshot(&self) -> Vec<(String, FileKind, u64)> {
        let mut out = Vec::with_capacity(self.live);
        let mut stack: Vec<(Ino, String)> = vec![(Ino::ROOT, "/".to_string())];
        while let Some((ino, path)) = stack.pop() {
            let Ok(inode) = self.get(ino) else { continue };
            out.push((path.clone(), inode.kind, inode.size));
            for (name, child) in inode.children.iter().flat_map(|c| c.iter()) {
                stack.push((*child, fsapi::path::join(&path, name)));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> Namespace {
        Namespace::new(0o777)
    }
    fn cred() -> Credentials {
        Credentials::new(100, 100)
    }

    #[test]
    fn a_slab_slot_costs_40_bytes() {
        // A file carries no child map; a directory's sits behind a box.
        assert_eq!(std::mem::size_of::<Option<Inode>>(), 40);
    }

    #[test]
    fn create_lookup_getattr() {
        let mut n = ns();
        let c = cred();
        let d = n.create_child(Ino::ROOT, "work", FileKind::Dir, 0o755, &c).unwrap();
        let f = n.create_child(d, "data.bin", FileKind::File, 0o644, &c).unwrap();
        assert_eq!(n.lookup(Ino::ROOT, "work", &c).unwrap(), d);
        assert_eq!(n.lookup(d, "data.bin", &c).unwrap(), f);
        let st = n.getattr(f).unwrap();
        assert_eq!(st.kind, FileKind::File);
        assert_eq!(st.perm.uid, 100);
        assert!(n.getattr(d).unwrap().is_dir());
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut n = ns();
        let c = cred();
        n.create_child(Ino::ROOT, "x", FileKind::File, 0o644, &c).unwrap();
        assert_eq!(
            n.create_child(Ino::ROOT, "x", FileKind::Dir, 0o755, &c),
            Err(FsError::AlreadyExists)
        );
    }

    #[test]
    fn lookup_needs_search_permission() {
        let mut n = ns();
        let owner = cred();
        let d = n.create_child(Ino::ROOT, "private", FileKind::Dir, 0o700, &owner).unwrap();
        n.create_child(d, "secret", FileKind::File, 0o644, &owner).unwrap();
        let stranger = Credentials::new(200, 200);
        assert_eq!(n.lookup(d, "secret", &stranger), Err(FsError::PermissionDenied));
        assert!(n.lookup(d, "secret", &owner).is_ok());
    }

    #[test]
    fn create_needs_write_permission() {
        let mut n = ns();
        let owner = cred();
        let d = n.create_child(Ino::ROOT, "ro", FileKind::Dir, 0o555, &owner).unwrap();
        assert_eq!(
            n.create_child(d, "f", FileKind::File, 0o644, &owner),
            Err(FsError::PermissionDenied)
        );
    }

    #[test]
    fn unlink_and_rmdir_enforce_kinds() {
        let mut n = ns();
        let c = cred();
        let d = n.create_child(Ino::ROOT, "d", FileKind::Dir, 0o755, &c).unwrap();
        n.create_child(Ino::ROOT, "f", FileKind::File, 0o644, &c).unwrap();
        assert_eq!(n.unlink_child(Ino::ROOT, "d", &c), Err(FsError::IsADirectory));
        assert_eq!(n.rmdir_child(Ino::ROOT, "f", &c), Err(FsError::NotADirectory));
        // Non-empty dir cannot be removed.
        n.create_child(d, "inner", FileKind::File, 0o644, &c).unwrap();
        assert_eq!(n.rmdir_child(Ino::ROOT, "d", &c), Err(FsError::NotEmpty));
        n.unlink_child(d, "inner", &c).unwrap();
        n.rmdir_child(Ino::ROOT, "d", &c).unwrap();
        n.unlink_child(Ino::ROOT, "f", &c).unwrap();
        assert_eq!(n.inode_count(), 1, "only the root must remain");
    }

    #[test]
    fn readdir_sorted_and_checked() {
        let mut n = ns();
        let c = cred();
        let d = n.create_child(Ino::ROOT, "dir", FileKind::Dir, 0o700, &c).unwrap();
        for name in ["zeta", "alpha", "mid"] {
            n.create_child(d, name, FileKind::File, 0o644, &c).unwrap();
        }
        assert_eq!(n.readdir(d, &c).unwrap(), vec!["alpha", "mid", "zeta"]);
        let stranger = Credentials::new(9, 9);
        assert_eq!(n.readdir(d, &stranger), Err(FsError::PermissionDenied));
    }

    #[test]
    fn set_size_and_mtime_advance() {
        let mut n = ns();
        let c = cred();
        let f = n.create_child(Ino::ROOT, "f", FileKind::File, 0o644, &c).unwrap();
        let before = n.getattr(f).unwrap().mtime;
        n.set_size(f, 4096, &c).unwrap();
        let st = n.getattr(f).unwrap();
        assert_eq!(st.size, 4096);
        assert!(st.mtime > before);
    }

    #[test]
    fn invalid_names_rejected() {
        let mut n = ns();
        let c = cred();
        assert!(matches!(
            n.create_child(Ino::ROOT, "a/b", FileKind::File, 0o644, &c),
            Err(FsError::InvalidPath(_))
        ));
        assert!(matches!(
            n.create_child(Ino::ROOT, "", FileKind::Dir, 0o755, &c),
            Err(FsError::InvalidPath(_))
        ));
    }

    #[test]
    fn snapshot_lists_whole_tree() {
        let mut n = ns();
        let c = cred();
        let d = n.create_child(Ino::ROOT, "a", FileKind::Dir, 0o755, &c).unwrap();
        n.create_child(d, "b", FileKind::File, 0o644, &c).unwrap();
        let snap = n.snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["/", "/a", "/a/b"]);
    }
}
