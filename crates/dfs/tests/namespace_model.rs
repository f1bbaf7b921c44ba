//! Model-based property test of the DFS namespace: random op sequences
//! through the full client/MDS stack must match a naive path->kind map
//! that re-implements the POSIX rules directly. Along the way, every
//! created entry gets an inode number never handed out before (numbers
//! are not reused after `unlink` / `rmdir`), and the live inode count is
//! the model's entry count plus the root.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use dfs::{DfsCluster, Ino};
use fsapi::{path as fspath, Credentials, FileKind, FileSystem, FsError};
use proptest::prelude::*;
use simnet::LatencyProfile;

#[derive(Debug, Clone)]
enum Op {
    Mkdir(u8),
    Create(u8),
    Unlink(u8),
    Rmdir(u8),
    Stat(u8),
    Readdir(u8),
}

/// Universe: 16 paths over a 2-level tree (`/pN` and `/pN/cM`).
fn path_of(i: u8) -> String {
    let i = i % 16;
    if i < 4 {
        format!("/p{i}")
    } else {
        format!("/p{}/c{}", i % 4, i / 4)
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u8>().prop_map(Op::Mkdir),
        3 => any::<u8>().prop_map(Op::Create),
        2 => any::<u8>().prop_map(Op::Unlink),
        2 => any::<u8>().prop_map(Op::Rmdir),
        2 => any::<u8>().prop_map(Op::Stat),
        1 => any::<u8>().prop_map(Op::Readdir),
    ]
}

/// Reference model: path -> kind, enforcing the same POSIX rules.
#[derive(Default)]
struct Model {
    entries: BTreeMap<String, FileKind>,
}

impl Model {
    fn parent_ok(&self, path: &str) -> Result<(), FsError> {
        let parent = fspath::parent(path).unwrap();
        if parent == "/" {
            return Ok(());
        }
        match self.entries.get(parent) {
            Some(FileKind::Dir) => Ok(()),
            Some(FileKind::File) => Err(FsError::NotADirectory),
            None => Err(FsError::NotFound),
        }
    }

    fn create(&mut self, path: &str, kind: FileKind) -> Result<(), FsError> {
        self.parent_ok(path)?;
        if self.entries.contains_key(path) {
            return Err(FsError::AlreadyExists);
        }
        self.entries.insert(path.to_string(), kind);
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        self.parent_ok(path)?;
        match self.entries.get(path) {
            None => Err(FsError::NotFound),
            Some(FileKind::Dir) => Err(FsError::IsADirectory),
            Some(FileKind::File) => {
                self.entries.remove(path);
                Ok(())
            }
        }
    }

    fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
        self.parent_ok(path)?;
        match self.entries.get(path) {
            None => Err(FsError::NotFound),
            Some(FileKind::File) => Err(FsError::NotADirectory),
            Some(FileKind::Dir) => {
                let prefix = format!("{path}/");
                if self.entries.keys().any(|k| k.starts_with(&prefix)) {
                    return Err(FsError::NotEmpty);
                }
                self.entries.remove(path);
                Ok(())
            }
        }
    }

    fn stat(&self, path: &str) -> Result<FileKind, FsError> {
        self.parent_ok(path)?;
        self.entries.get(path).copied().ok_or(FsError::NotFound)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        if path != "/" {
            self.parent_ok(path)?;
            match self.entries.get(path) {
                Some(FileKind::Dir) => {}
                Some(FileKind::File) => return Err(FsError::NotADirectory),
                None => return Err(FsError::NotFound),
            }
        }
        let prefix = if path == "/" { "/".to_string() } else { format!("{path}/") };
        Ok(self
            .entries
            .keys()
            .filter(|k| {
                k.starts_with(&prefix) && !k[prefix.len()..].contains('/') && k.len() > prefix.len()
            })
            .map(|k| k[prefix.len()..].to_string())
            .collect())
    }
}

/// The inode a path resolves to, looked up on the MDS directly.
fn ino_of(cluster: &DfsCluster, path: &str, cred: &Credentials) -> Ino {
    fspath::components(path).fold(Ino::ROOT, |dir, name| {
        cluster.mds_for(dir).lookup(dir, name, cred).expect("a created path resolves")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn namespace_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let cluster = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let fs = cluster.client();
        let cred = Credentials::new(1, 1);
        let mut model = Model::default();
        let mut numbers = HashSet::from([Ino::ROOT]);

        for op in &ops {
            let (got, want): (Result<(), FsError>, Result<(), FsError>) = match op {
                Op::Mkdir(i) => (
                    fs.mkdir(&path_of(*i), &cred, 0o755),
                    model.create(&path_of(*i), FileKind::Dir),
                ),
                Op::Create(i) => (
                    fs.create(&path_of(*i), &cred, 0o644),
                    model.create(&path_of(*i), FileKind::File),
                ),
                Op::Unlink(i) => (fs.unlink(&path_of(*i), &cred), model.unlink(&path_of(*i))),
                Op::Rmdir(i) => (fs.rmdir(&path_of(*i), &cred), model.rmdir(&path_of(*i))),
                Op::Stat(i) => (
                    fs.stat(&path_of(*i), &cred).map(|_| ()),
                    model.stat(&path_of(*i)).map(|_| ()),
                ),
                Op::Readdir(i) => {
                    let got = fs.readdir(&path_of(*i), &cred);
                    let want = model.readdir(&path_of(*i));
                    if let (Ok(a), Ok(b)) = (&got, &want) { prop_assert_eq!(a, b, "listing mismatch at {:?}", op) }
                    (got.map(|_| ()), want.map(|_| ()))
                }
            };
            match (&got, &want) {
                (Ok(()), Ok(())) => {}
                (Err(a), Err(b)) => prop_assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "error mismatch for {:?}: dfs={:?} model={:?}",
                    op, a, b
                ),
                other => prop_assert!(false, "outcome mismatch for {op:?}: {other:?}"),
            }
            if let (Op::Mkdir(i) | Op::Create(i), Ok(())) = (op, &got) {
                let ino = ino_of(&cluster, &path_of(*i), &cred);
                prop_assert!(numbers.insert(ino), "{:?} reused inode {:?}", op, ino);
            }
            prop_assert_eq!(cluster.inode_count(), model.entries.len() + 1, "after {:?}", op);
        }

        // Final tree agrees (paths + kinds).
        let snap: Vec<(String, FileKind)> = cluster
            .snapshot()
            .into_iter()
            .filter(|(p, _, _)| p != "/")
            .map(|(p, k, _)| (p, k))
            .collect();
        let want: Vec<(String, FileKind)> =
            model.entries.iter().map(|(p, k)| (p.clone(), *k)).collect();
        prop_assert_eq!(snap, want);
    }
}
