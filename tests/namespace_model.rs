//! Model-based property test of the DFS namespace: random op sequences
//! through the full client/MDS stack must match the program-order
//! reference (`workloads::history::Reference`), where the namespace rules
//! are stated once. The reference's rmdir is recursive, as Pacon's is;
//! the DFS's follows POSIX, so an rmdir of a directory the reference lists
//! children of must be `NotEmpty`. Along the way, every created entry gets
//! an inode number never handed out before (numbers are not reused after
//! `unlink` / `rmdir`), and the live inode count is the reference's entry
//! count, the root included.

use std::collections::HashSet;
use std::sync::Arc;

use dfs::{DfsCluster, Ino};
use fsapi::{path as fspath, Credentials, FileSystem, FsError};
use proptest::prelude::*;
use simnet::LatencyProfile;
use workloads::history::Reference;
use workloads::FsOp;

/// Universe: 16 paths over a 2-level tree (`/pN` and `/pN/cM`).
fn path_of(i: u8) -> String {
    let i = i % 16;
    if i < 4 {
        format!("/p{i}")
    } else {
        format!("/p{}/c{}", i % 4, i / 4)
    }
}

fn op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        3 => any::<u8>().prop_map(|i| FsOp::Mkdir(path_of(i), 0o755)),
        3 => any::<u8>().prop_map(|i| FsOp::Create(path_of(i), 0o644)),
        2 => any::<u8>().prop_map(|i| FsOp::Unlink(path_of(i))),
        2 => any::<u8>().prop_map(|i| FsOp::Rmdir(path_of(i))),
        2 => any::<u8>().prop_map(|i| FsOp::Stat(path_of(i))),
        1 => any::<u8>().prop_map(|i| FsOp::Readdir(path_of(i))),
    ]
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
        let model = Reference::default();
        let mut numbers = HashSet::from([Ino::ROOT]);

        for op in &ops {
            let got = op.exec(&fs, &cred);
            let want = match op {
                FsOp::Rmdir(p) if model.readdir(p, &cred).is_ok_and(|names| !names.is_empty()) => {
                    Err(FsError::NotEmpty)
                }
                _ => op.exec(&model, &cred),
            };
            prop_assert_eq!(&got, &want, "{:?}", op);
            if let FsOp::Readdir(p) = op {
                prop_assert_eq!(fs.readdir(p, &cred), model.readdir(p, &cred), "listing of {}", p);
            }
            if let (FsOp::Mkdir(p, _) | FsOp::Create(p, _), Ok(())) = (op, &got) {
                let ino = ino_of(&cluster, p, &cred);
                prop_assert!(numbers.insert(ino), "{:?} reused inode {:?}", op, ino);
            }
            prop_assert_eq!(cluster.inode_count(), model.snapshot().len(), "after {:?}", op);
        }

        // Final tree agrees (paths, kinds, sizes).
        prop_assert_eq!(cluster.snapshot(), model.snapshot());
    }
}
