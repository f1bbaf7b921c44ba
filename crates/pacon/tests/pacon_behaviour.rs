//! End-to-end behaviour of Pacon over the simulated DFS, with commit
//! processes running as real threads.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsError};
use pacon::{PaconConfig, PaconRegion, RegionPermissions};
use simnet::{ClientId, LatencyProfile, Topology};

fn setup(nodes: u32, cpn: u32) -> (Arc<DfsCluster>, Arc<PaconRegion>, Credentials) {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1000, 1000);
    let config = PaconConfig::new("/app", Topology::new(nodes, cpn), cred);
    let region = PaconRegion::launch(config, &dfs).unwrap();
    (dfs, region, cred)
}

#[test]
fn create_visible_across_nodes_immediately() {
    let (_dfs, region, cred) = setup(4, 2);
    let a = region.client(ClientId(0)); // node 0
    let b = region.client(ClientId(7)); // node 3
    a.mkdir("/app/d", &cred, 0o755).unwrap();
    a.create("/app/d/f", &cred, 0o644).unwrap();
    // Strong consistency inside the region: no quiesce needed.
    assert!(b.stat("/app/d/f", &cred).unwrap().is_file());
    assert!(b.stat("/app/d", &cred).unwrap().is_dir());
    region.shutdown().unwrap();
}

#[test]
fn async_commit_reaches_the_dfs() {
    let (dfs, region, cred) = setup(2, 2);
    let c = region.client(ClientId(0));
    c.mkdir("/app/out", &cred, 0o755).unwrap();
    for i in 0..50 {
        c.create(&format!("/app/out/f{i:02}"), &cred, 0o644).unwrap();
    }
    region.quiesce();
    let probe = dfs.client();
    assert_eq!(probe.readdir("/app/out", &cred).unwrap().len(), 50);
    assert_eq!(region.core().counters.get("committed"), 51);
    region.shutdown().unwrap();
}

#[test]
fn duplicate_create_rejected_by_cache() {
    let (_dfs, region, cred) = setup(2, 2);
    let a = region.client(ClientId(0));
    let b = region.client(ClientId(2));
    a.create("/app/x", &cred, 0o644).unwrap();
    assert_eq!(b.create("/app/x", &cred, 0o644), Err(FsError::AlreadyExists));
    region.shutdown().unwrap();
}

#[test]
fn getattr_miss_loads_from_dfs() {
    let (dfs, region, cred) = setup(2, 1);
    // Entry created directly on the DFS, bypassing Pacon.
    let raw = dfs.client();
    raw.create("/app/preexisting", &cred, 0o640).unwrap();
    let c = region.client(ClientId(0));
    let st = c.stat("/app/preexisting", &cred).unwrap();
    assert!(st.is_file());
    assert_eq!(st.perm.mode, 0o640);
    // Second stat is served from the cache (hits counter).
    let hits_before = region.core().cache_cluster.stats().hits;
    c.stat("/app/preexisting", &cred).unwrap();
    assert!(region.core().cache_cluster.stats().hits > hits_before);
    region.shutdown().unwrap();
}

#[test]
fn unlink_marks_then_deletes() {
    let (dfs, region, cred) = setup(2, 1);
    let c = region.client(ClientId(0));
    c.create("/app/victim", &cred, 0o644).unwrap();
    c.unlink("/app/victim", &cred).unwrap();
    // Gone immediately from the application's view.
    assert_eq!(c.stat("/app/victim", &cred), Err(FsError::NotFound));
    assert_eq!(c.unlink("/app/victim", &cred), Err(FsError::NotFound));
    region.quiesce();
    assert_eq!(dfs.client().stat("/app/victim", &cred), Err(FsError::NotFound));
    region.shutdown().unwrap();
}

#[test]
fn recreate_after_unlink() {
    let (dfs, region, cred) = setup(2, 1);
    let c = region.client(ClientId(0));
    c.create("/app/f", &cred, 0o644).unwrap();
    c.unlink("/app/f", &cred).unwrap();
    c.create("/app/f", &cred, 0o600).unwrap();
    let st = c.stat("/app/f", &cred).unwrap();
    assert_eq!(st.perm.mode, 0o600);
    region.quiesce();
    let st = dfs.client().stat("/app/f", &cred).unwrap();
    assert!(st.is_file());
    region.shutdown().unwrap();
}

#[test]
fn rmdir_removes_subtree_everywhere() {
    let (dfs, region, cred) = setup(2, 2);
    let c = region.client(ClientId(0));
    c.mkdir("/app/tree", &cred, 0o755).unwrap();
    c.mkdir("/app/tree/sub", &cred, 0o755).unwrap();
    for i in 0..10 {
        c.create(&format!("/app/tree/sub/f{i}"), &cred, 0o644).unwrap();
        c.create(&format!("/app/tree/g{i}"), &cred, 0o644).unwrap();
    }
    c.rmdir("/app/tree", &cred).unwrap();
    assert_eq!(c.stat("/app/tree", &cred), Err(FsError::NotFound));
    assert_eq!(c.stat("/app/tree/sub/f3", &cred), Err(FsError::NotFound));
    // Backup copy is synchronously gone (rmdir is a sync op).
    assert_eq!(dfs.client().stat("/app/tree", &cred), Err(FsError::NotFound));
    // Other entries untouched.
    c.create("/app/alive", &cred, 0o644).unwrap();
    assert!(c.stat("/app/alive", &cred).unwrap().is_file());
    region.shutdown().unwrap();
}

#[test]
fn rmdir_of_workspace_root_rejected() {
    let (_dfs, region, cred) = setup(1, 1);
    let c = region.client(ClientId(0));
    assert!(matches!(c.rmdir("/app", &cred), Err(FsError::InvalidArgument(_))));
    region.shutdown().unwrap();
}

#[test]
fn readdir_reflects_all_prior_ops() {
    let (_dfs, region, cred) = setup(2, 2);
    let a = region.client(ClientId(0));
    let b = region.client(ClientId(3));
    a.mkdir("/app/list", &cred, 0o755).unwrap();
    for i in 0..20 {
        let who = if i % 2 == 0 { &a } else { &b };
        who.create(&format!("/app/list/f{i:02}"), &cred, 0o644).unwrap();
    }
    a.unlink("/app/list/f04", &cred).unwrap();
    // readdir barriers: every async op above must be reflected.
    let names = b.readdir("/app/list", &cred).unwrap();
    assert_eq!(names.len(), 19);
    assert!(!names.contains(&"f04".to_string()));
    region.shutdown().unwrap();
}

#[test]
fn redirection_outside_region() {
    let (dfs, region, cred) = setup(2, 1);
    let c = region.client(ClientId(0));
    // Outside the workspace: straight to the DFS, strong DFS semantics.
    c.mkdir("/other", &cred, 0o755).unwrap();
    c.create("/other/f", &cred, 0o644).unwrap();
    assert!(dfs.client().stat("/other/f", &cred).unwrap().is_file());
    assert!(c.stat("/other/f", &cred).unwrap().is_file());
    c.unlink("/other/f", &cred).unwrap();
    assert_eq!(dfs.client().stat("/other/f", &cred), Err(FsError::NotFound));
    region.shutdown().unwrap();
}

#[test]
fn batch_permissions_enforced_locally() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let owner = Credentials::new(1000, 1000);
    let perms = RegionPermissions::uniform(0o700, owner)
        .with_special("/app/shared", fsapi::Perm::new(0o755, 1000, 1000));
    let config =
        PaconConfig::new("/app", Topology::new(1, 2), owner).with_permissions(perms);
    let region = PaconRegion::launch(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    c.mkdir("/app/shared", &owner, 0o755).unwrap();
    c.mkdir("/app/private", &owner, 0o700).unwrap();
    c.create("/app/shared/pub.txt", &owner, 0o644).unwrap();
    c.create("/app/private/secret", &owner, 0o600).unwrap();

    let stranger = Credentials::new(2000, 2000);
    // Special entry allows read/stat through the shared subtree.
    assert!(c.stat("/app/shared/pub.txt", &stranger).is_ok());
    // Normal permission (0700) blocks the private subtree.
    assert_eq!(c.stat("/app/private/secret", &stranger), Err(FsError::PermissionDenied));
    // Writes to the shared subtree still denied (0755 has no group/other w).
    assert_eq!(
        c.create("/app/shared/hack", &stranger, 0o644),
        Err(FsError::PermissionDenied)
    );
    region.shutdown().unwrap();
}

#[test]
fn parent_check_behaviour() {
    let (dfs, region, cred) = setup(1, 1);
    let c = region.client(ClientId(0));
    // Missing parent rejected.
    assert_eq!(c.create("/app/no/such/f", &cred, 0o644), Err(FsError::NotFound));
    // Parent existing only on the DFS is found and cached.
    dfs.client().mkdir("/app/dfs-only", &cred, 0o777).unwrap();
    c.create("/app/dfs-only/f", &cred, 0o644).unwrap();
    assert!(c.stat("/app/dfs-only/f", &cred).unwrap().is_file());
    region.shutdown().unwrap();
}

#[test]
fn parent_check_can_be_disabled() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let config =
        PaconConfig::new("/app", Topology::new(1, 1), cred).without_parent_check();
    let region = PaconRegion::launch(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    // Out-of-order creation allowed; commits converge once the parent
    // arrives.
    c.create("/app/later/f", &cred, 0o644).unwrap();
    c.mkdir("/app/later", &cred, 0o755).unwrap();
    region.quiesce();
    assert!(dfs.client().stat("/app/later/f", &cred).unwrap().is_file());
    region.shutdown().unwrap();
}

#[test]
fn merged_region_read_only_sharing() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred1 = Credentials::new(1000, 1000);
    let cred2 = Credentials::new(2000, 2000);
    let r1 = PaconRegion::launch(
        PaconConfig::new("/app1", Topology::new(2, 1), cred1).with_permissions(
            RegionPermissions::uniform(0o755, cred1),
        ),
        &dfs,
    )
    .unwrap();
    let r2 = PaconRegion::launch(
        PaconConfig::new("/app2", Topology::new(2, 1), cred2),
        &dfs,
    )
    .unwrap();

    let c1 = r1.client(ClientId(0));
    c1.create("/app1/data.out", &cred1, 0o644).unwrap();
    c1.write("/app1/data.out", &cred1, 0, b"results!").unwrap();

    let c2 = r2.client(ClientId(0));
    // Before merging: /app1 is outside c2's regions; redirected to the
    // DFS, where the create may not have committed yet. After merge, the
    // primary copy is visible immediately.
    c2.merge_region(r1.handle());
    let st = c2.stat("/app1/data.out", &cred2).unwrap();
    assert!(st.is_file());
    assert_eq!(c2.read("/app1/data.out", &cred2, 0, 64).unwrap(), b"results!");
    // Read-only: mutations rejected.
    assert_eq!(c2.create("/app1/mine", &cred2, 0o644), Err(FsError::PermissionDenied));
    assert_eq!(c2.unlink("/app1/data.out", &cred2), Err(FsError::PermissionDenied));
    r1.shutdown().unwrap();
    r2.shutdown().unwrap();
}

#[test]
fn small_file_lifecycle_inline_then_large() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let config = PaconConfig::new("/app", Topology::new(2, 1), cred)
        .with_small_file_threshold(256);
    let region = PaconRegion::launch(config, &dfs).unwrap();
    let c = region.client(ClientId(0));

    c.create("/app/small", &cred, 0o644).unwrap();
    c.write("/app/small", &cred, 0, b"tiny payload").unwrap();
    assert_eq!(c.read("/app/small", &cred, 0, 64).unwrap(), b"tiny payload");
    assert_eq!(c.stat("/app/small", &cred).unwrap().size, 12);
    // Overwrite a byte range.
    c.write("/app/small", &cred, 5, b"PATCH").unwrap();
    assert_eq!(c.read("/app/small", &cred, 0, 64).unwrap(), b"tiny PATCHad");

    // Growing past the threshold transitions to a large (DFS-backed) file.
    let big = vec![7u8; 600];
    c.write("/app/small", &cred, 0, &big).unwrap();
    assert_eq!(c.stat("/app/small", &cred).unwrap().size, 600);
    assert_eq!(c.read("/app/small", &cred, 0, 1000).unwrap(), big);

    region.quiesce();
    // Backup copy has the full content.
    assert_eq!(dfs.client().read("/app/small", &cred, 0, 1000).unwrap(), big);
    region.shutdown().unwrap();
}

#[test]
fn small_file_writeback_reaches_dfs() {
    let (dfs, region, cred) = setup(2, 1);
    let c = region.client(ClientId(0));
    c.create("/app/notes.txt", &cred, 0o644).unwrap();
    c.write("/app/notes.txt", &cred, 0, b"hello backup copy").unwrap();
    region.quiesce();
    assert_eq!(
        dfs.client().read("/app/notes.txt", &cred, 0, 64).unwrap(),
        b"hello backup copy"
    );
    region.shutdown().unwrap();
}

#[test]
fn fsync_stages_uncommitted_small_files() {
    let (_dfs, region, cred) = setup(1, 1);
    let c = region.client(ClientId(0));
    c.create("/app/f", &cred, 0o644).unwrap();
    c.write("/app/f", &cred, 0, b"durable?").unwrap();
    c.fsync("/app/f", &cred).unwrap();
    // Either already committed (fast worker) or staged durably.
    let staged = region.core().in_flight().counts().staged == 1;
    let committed = region
        .core()
        .counters
        .get("committed")
        > 0;
    assert!(staged || committed, "fsync must leave the data durable somewhere");
    region.shutdown().unwrap();
}

#[test]
fn eviction_only_removes_committed_entries() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    // Tiny threshold: evict after a handful of records.
    let config = PaconConfig::new("/app", Topology::new(1, 1), cred)
        .with_eviction_threshold(2_000);
    let region = PaconRegion::launch(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    for d in 0..4 {
        c.mkdir(&format!("/app/d{d}"), &cred, 0o755).unwrap();
        for i in 0..20 {
            c.create(&format!("/app/d{d}/f{i:02}"), &cred, 0o644).unwrap();
        }
    }
    region.quiesce();
    // Everything is committed now; force eviction rounds until the policy
    // has demonstrably fired (workers may already have enabled evictions
    // during the creation loop, so assert on the total).
    for i in 0..8 {
        c.create(&format!("/app/trigger{i}"), &cred, 0o644).unwrap();
        region.quiesce();
    }
    assert!(
        region.core().counters.get("evicted") > 0,
        "eviction must fire above the threshold"
    );
    assert!(region.core().cache_cluster.index_built(), "eviction rides the ordered key index");
    // Every entry remains reachable (reloaded from the DFS on miss).
    for d in 0..4 {
        for i in 0..20 {
            assert!(c.stat(&format!("/app/d{d}/f{i:02}"), &cred).unwrap().is_file());
        }
    }
    region.shutdown().unwrap();
}

/// The cache shards' ordered key index is paid for by cache pressure,
/// `rmdir` and resharding only. The op mix of the three benchmark
/// workloads that never evict — creates, single and batched stats,
/// inline writes, reads, unlinks, a durable commit queue and its
/// recovery — leaves it unbuilt, so their cache writes cost what they
/// did before the index existed.
#[test]
fn point_traffic_never_builds_the_ordered_index() {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let wal_dir =
        std::env::temp_dir().join(format!("pacon-index-lazy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let config = || {
        PaconConfig::new("/app", Topology::new(2, 2), cred)
            .with_commit_batch(8)
            .with_durability(&wal_dir)
            .with_wal_fsync_batch(4)
    };
    let region = PaconRegion::launch(config(), &dfs).unwrap();
    let c = region.client(ClientId(0));
    c.mkdir("/app/d", &cred, 0o755).unwrap();
    let paths: Vec<String> = (0..40).map(|i| format!("/app/d/f{i:02}")).collect();
    for p in &paths {
        c.create(p, &cred, 0o644).unwrap();
        c.write(p, &cred, 0, b"inline payload").unwrap();
    }
    assert!(c.stat_many(&paths, &cred).iter().all(|r| r.is_ok()));
    for p in &paths[..10] {
        assert_eq!(c.read(p, &cred, 0, 64).unwrap(), b"inline payload");
        c.unlink(p, &cred).unwrap();
    }
    region.quiesce();
    assert!(c.stat(&paths[20], &cred).unwrap().is_file());
    assert!(!region.core().cache_cluster.index_built());
    // Kill with journaled work pending, then recover on the same logs.
    for p in &paths[..10] {
        c.create(p, &cred, 0o644).unwrap();
    }
    region.abort();
    drop(c);
    drop(region);
    let region = PaconRegion::launch(config(), &dfs).unwrap();
    region.quiesce();
    assert!(region.client(ClientId(1)).stat(&paths[0], &cred).unwrap().is_file());
    assert!(!region.core().cache_cluster.index_built());
    // The first dependent subtree removal is what asks an ordered question.
    region.client(ClientId(1)).rmdir("/app/d", &cred).unwrap();
    assert!(region.core().cache_cluster.index_built());
    region.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn checkpoint_and_rollback_after_crash() {
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let mk = |dfs: &Arc<DfsCluster>| {
        PaconRegion::launch(PaconConfig::new("/app", Topology::new(2, 1), cred), dfs).unwrap()
    };
    let region = mk(&dfs);
    let c = region.client(ClientId(0));
    c.mkdir("/app/stable", &cred, 0o755).unwrap();
    c.create("/app/stable/keep.dat", &cred, 0o644).unwrap();
    c.write("/app/stable/keep.dat", &cred, 0, b"precious").unwrap();
    let stats = region.checkpoint("ckpt1").unwrap();
    assert!(stats.files >= 1 && stats.dirs >= 1);

    // Post-checkpoint work that will be lost in the crash.
    c.create("/app/stable/lost.dat", &cred, 0o644).unwrap();
    region.abort(); // crash: pending commits dropped
    drop(c);
    drop(region);

    // Restart: fresh region, roll back to the checkpoint.
    let region = mk(&dfs);
    region.rollback("ckpt1").unwrap();
    let c = region.client(ClientId(0));
    assert!(c.stat("/app/stable/keep.dat", &cred).unwrap().is_file());
    assert_eq!(c.read("/app/stable/keep.dat", &cred, 0, 64).unwrap(), b"precious");
    assert_eq!(c.stat("/app/stable/lost.dat", &cred), Err(FsError::NotFound));
    region.shutdown().unwrap();
}

#[test]
fn concurrent_clients_create_disjoint_files() {
    let (dfs, region, cred) = setup(4, 4);
    let region2 = Arc::clone(&region);
    let mut handles = Vec::new();
    let base = region.client(ClientId(0));
    base.mkdir("/app/par", &cred, 0o755).unwrap();
    for t in 0..8u32 {
        let region = Arc::clone(&region2);
        handles.push(std::thread::spawn(move || {
            let c = region.client(ClientId(t * 2));
            let cred = Credentials::new(1000, 1000);
            for i in 0..25 {
                c.create(&format!("/app/par/t{t}-f{i:02}"), &cred, 0o644).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    region.quiesce();
    assert_eq!(dfs.client().readdir("/app/par", &cred).unwrap().len(), 200);
    region.shutdown().unwrap();
}

#[test]
fn checkpoint_management_list_and_delete() {
    let (_dfs, region, cred) = setup(1, 1);
    let c = region.client(ClientId(0));
    c.create("/app/base", &cred, 0o644).unwrap();
    assert!(region.list_checkpoints().unwrap().is_empty());
    region.checkpoint("alpha").unwrap();
    region.checkpoint("beta").unwrap();
    assert_eq!(region.list_checkpoints().unwrap(), vec!["alpha", "beta"]);
    region.delete_checkpoint("alpha").unwrap();
    assert_eq!(region.list_checkpoints().unwrap(), vec!["beta"]);
    // Deleted checkpoints cannot be rolled back to; remaining ones can.
    assert!(region.rollback("alpha").is_err());
    region.rollback("beta").unwrap();
    let c = region.client(ClientId(0));
    assert!(c.stat("/app/base", &cred).unwrap().is_file());
    region.shutdown().unwrap();
}

#[test]
fn overlapping_workspaces_collapse_to_top_region() {
    // The paper's use case 3: one app on /A, another on /A/B — both run
    // in the /A region.
    let roots =
        pacon::region::collapse_overlapping_workspaces(&["/A/B", "/A"]).unwrap();
    assert_eq!(roots, vec!["/A"]);
    let profile = Arc::new(LatencyProfile::zero());
    let dfs = DfsCluster::with_default_config(profile);
    let cred = Credentials::new(1, 1);
    let region = PaconRegion::launch(
        PaconConfig::new(&roots[0], Topology::new(2, 2), cred),
        &dfs,
    )
    .unwrap();
    // "App 1" works under /A, "app 2" under /A/B — same region, strong
    // consistency between them.
    let app1 = region.client(ClientId(0));
    let app2 = region.client(ClientId(3));
    app1.mkdir("/A/B", &cred, 0o755).unwrap();
    app2.create("/A/B/from-app2", &cred, 0o644).unwrap();
    app1.create("/A/from-app1", &cred, 0o644).unwrap();
    assert!(app1.stat("/A/B/from-app2", &cred).unwrap().is_file());
    assert!(app2.stat("/A/from-app1", &cred).unwrap().is_file());
    region.shutdown().unwrap();
}
