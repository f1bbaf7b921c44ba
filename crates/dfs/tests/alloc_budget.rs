//! Allocation budgets of the DFS tables on the commit route, counted by a
//! global allocator that only this test binary installs. Counts are per
//! thread, so the tests of this binary may run in parallel.
//!
//! * A seen-cache probe (`hit`, `data_replay_is_stale`) allocates
//!   nothing: it looks the path up by `&str`. A probe used to build a
//!   `String` key (1 allocation each).
//! * An identified `apply_batch_idempotent` of 1 000 creates in one
//!   directory costs at most `CREATE_BUDGET` allocations per op. Measured
//!   on x86-64 Linux: 7.36 per op with the inodes in a hash map, the
//!   seen-cache keyed by `(String, write_id)` plus a generation map, and a
//!   dentry LRU of `String` keys in a `HashMap` and a `BTreeMap`; 4.19 per
//!   op with the inode slab, one seen-cache record per path and the
//!   slab-backed LRU. What remains per create is the directory entry's
//!   name, the dentry key, and the seen-cache record's path and identity
//!   list; growing the tables adds the rest. Lock-order checking
//!   (`syncguard/check`) allocates on every lock acquisition, so that
//!   build checks the results but not the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dfs::{BatchOp, DfsCluster, Ino, OpId, SeenCache};
use fsapi::{Credentials, FileSystem};
use simnet::LatencyProfile;

/// Allocations per create allowed on the identified batch route.
const CREATE_BUDGET: f64 = 4.5;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // A thread being torn down has no counter left; its allocations are
    // not the measured ones.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn seen_cache_probes_allocate_nothing() {
    let mut seen = SeenCache::default();
    let paths: Vec<String> = (0..64).map(|i| format!("/w/f{i}")).collect();
    for (i, path) in (1..).zip(&paths) {
        seen.record(path, OpId { write_id: i, generation: i }, Ino(i));
    }
    let ((), n) = allocations(|| {
        for (i, path) in (1..).zip(&paths) {
            assert_eq!(seen.hit(path, i), Some(Ino(i)));
            assert_eq!(seen.hit(path, i + 1_000), None);
            assert!(seen.data_replay_is_stale(path, &OpId { write_id: i, generation: i }));
            assert!(!seen.data_replay_is_stale(path, &OpId { write_id: 5_000, generation: i }));
            assert!(!seen.data_replay_is_stale("/w/absent", &OpId { write_id: i, generation: i }));
        }
    });
    assert_eq!(n, 0, "seen-cache probes allocated");
}

#[test]
fn identified_creates_stay_within_the_allocation_budget() {
    const N: u64 = 1_000;
    let cluster = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let client = cluster.client();
    let cred = Credentials::new(1, 1);
    client.mkdir("/w", &cred, 0o755).expect("mkdir /w");
    let ops: Vec<BatchOp> =
        (0..N).map(|i| BatchOp::Create { path: format!("/w/f{i}"), mode: 0o644 }).collect();
    let ids: Vec<OpId> = (1..=N).map(|i| OpId { write_id: i, generation: i }).collect();
    // Warm the counters' names and the dentry of `/w` outside the count.
    let warm = [BatchOp::Create { path: "/w/warm".into(), mode: 0o644 }];
    let warm_id = [OpId { write_id: N + 1, generation: N + 1 }];
    assert!(client.apply_batch_idempotent(&warm, &warm_id, &cred)[0].is_ok());

    let (results, n) = allocations(|| client.apply_batch_idempotent(&ops, &ids, &cred));
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    assert_eq!(cluster.inode_count() as u64, N + 3, "root, /w, /w/warm and the creates");
    let per_op = n as f64 / N as f64;
    if !syncguard::check_enabled() {
        assert!(per_op <= CREATE_BUDGET, "{per_op:.2} allocations per create (budget {CREATE_BUDGET})");
    }

    // A replay of the same batch no-ops on the seen-cache.
    let (replayed, _) = allocations(|| client.apply_batch_idempotent(&ops, &ids, &cred));
    assert!(replayed.iter().all(Result::is_ok));
    assert_eq!(cluster.inode_count() as u64, N + 3);
    assert_eq!(cluster.mds_counter("replay_noop"), N);
}
