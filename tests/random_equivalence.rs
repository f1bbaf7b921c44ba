//! Randomized cross-backend equivalence: arbitrary op sequences applied
//! through Pacon (with threaded commit) must be answered as the
//! program-order reference answers them, and agree with it on every
//! observable — the application view immediately and the backup copy
//! after quiescing.

use std::sync::Arc;

use fsapi::Credentials;
use pacon::{PaconConfig, PaconRegion};
use proptest::prelude::*;
use simnet::{ClientId, LatencyProfile, Topology};
use workloads::history::{observe, History};
use workloads::FsOp;

/// Path universe: 3 dirs x 4 file slots + the dirs themselves.
fn dir_of(i: u8) -> String {
    format!("/w/d{}", i % 3)
}
fn file_of(i: u8) -> String {
    format!("/w/d{}/f{}", (i / 4) % 3, i % 4)
}

fn op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        2 => any::<u8>().prop_map(|i| FsOp::Mkdir(dir_of(i), 0o755)),
        4 => any::<u8>().prop_map(|i| FsOp::Create(file_of(i), 0o644)),
        2 => any::<u8>().prop_map(|i| FsOp::Unlink(file_of(i))),
        2 => (any::<u8>(), 0u16..2048).prop_map(|(i, n)| FsOp::Write {
            path: file_of(i),
            offset: 0,
            data: vec![i.wrapping_add(1); n as usize],
        }),
        2 => any::<u8>().prop_map(|i| FsOp::Stat(file_of(i))),
        1 => any::<u8>().prop_map(|i| FsOp::Rmdir(dir_of(i))),
        1 => any::<u8>().prop_map(|i| FsOp::Readdir(dir_of(i))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn pacon_matches_reference_on_random_sequences(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let cred = Credentials::new(1, 1);
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let region = PaconRegion::launch(
            PaconConfig::new("/w", Topology::new(2, 1), cred),
            &dfs,
        ).unwrap();
        let client = region.client(ClientId(0));

        let mut history = History::new("/w");
        for op in ops {
            let _ = history.issue(&client, &cred, op);
        }
        history.assert_answers_match(&cred);

        let universe: Vec<String> = (0..3).map(dir_of).chain((0..12).map(file_of)).collect();
        let reference = history.reference(&cred);
        // Application view matches the reference now...
        prop_assert_eq!(
            observe(&client, &cred, &universe),
            observe(&reference, &cred, &universe)
        );
        // ...and the backup copy matches after draining the queues.
        region.quiesce();
        history.assert_backup_matches(&dfs, &cred, &universe);
        region.shutdown().unwrap();
    }
}
