//! Allocation budgets of a cache shard's point ops, counted by a global
//! allocator that only this test binary installs. Counts are per thread,
//! so the tests of this binary may run in parallel.
//!
//! * A stored CAS, single or in a batch, allocates only the new value: it
//!   updates the entry in place. It used to copy the key for a second
//!   probe and drop the copy (2 allocations per CAS).
//! * `add` allocates only the key and the value.
//! * `get_many` allocates only its result vector: a hit is a refcount.
//!
//! The tables are grown before the count, so no growth is counted.
//! Lock-order checking (`syncguard/check`) allocates on every lock
//! acquisition, so that build checks the results but not the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use memkv::{CasOutcome, CondOutcome, CondWrite, Shard};

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

/// Assert a budget unless lock-order checking is on (module docs).
fn within(what: &str, n: u64, budget: u64) {
    if !syncguard::check_enabled() {
        assert_eq!(n, budget, "{what}: allocations");
    }
}

const N: usize = 512;

fn keys() -> Vec<Vec<u8>> {
    (0..N).map(|i| format!("/app/f{i:07}").into_bytes()).collect()
}

/// A shard holding every key of [`keys`], its table grown for them.
fn filled(keys: &[Vec<u8>]) -> (Shard, Vec<u64>) {
    let shard = Shard::new();
    let versions = keys.iter().map(|k| shard.add(k, b"v0").expect("fresh key")).collect();
    (shard, versions)
}

#[test]
fn add_allocates_the_key_and_the_value() {
    let keys = keys();
    let (shard, _) = filled(&keys);
    // Emptied, the table keeps its capacity: the adds below grow nothing.
    for k in &keys {
        assert!(shard.delete(k, None));
    }
    let (added, n) = allocations(|| keys.iter().filter(|k| shard.add(k, b"v1").is_some()).count());
    assert_eq!(added, N);
    within("add", n, 2 * N as u64);
    let (again, n) = allocations(|| keys.iter().filter(|k| shard.add(k, b"v2").is_some()).count());
    assert_eq!(again, 0, "every key is present");
    // A refused add still hands the map an owned key to probe with.
    within("refused add", n, N as u64);
}

#[test]
fn a_stored_cas_allocates_only_the_new_value() {
    let keys = keys();
    let (shard, versions) = filled(&keys);
    let (stored, n) = allocations(|| {
        keys.iter()
            .zip(&versions)
            .filter(|&(k, &v)| matches!(shard.cas(k, v, b"v1"), CasOutcome::Stored { .. }))
            .count()
    });
    assert_eq!(stored, N);
    within("cas", n, N as u64);
    let (conflicts, n) = allocations(|| {
        keys.iter()
            .zip(&versions)
            .filter(|&(k, &v)| matches!(shard.cas(k, v, b"v2"), CasOutcome::Conflict { .. }))
            .count()
    });
    assert_eq!(conflicts, N);
    within("conflicting cas", n, 0);
}

#[test]
fn a_batched_cas_allocates_its_values_and_its_outcomes() {
    let keys = keys();
    let (shard, versions) = filled(&keys);
    let items: Vec<CondWrite<'_>> = keys
        .iter()
        .zip(&versions)
        .map(|(k, &version)| CondWrite { key: k, version, value: Some(b"v1") })
        .collect();
    let (outcomes, n) = allocations(|| shard.write_many(&items));
    assert!(outcomes.iter().all(|o| matches!(o, CondOutcome::Stored { .. })), "{outcomes:?}");
    within("write_many", n, N as u64 + 1);
}

#[test]
fn get_many_allocates_only_its_results() {
    let keys = keys();
    let (shard, versions) = filled(&keys);
    let mut probe: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    probe.push(b"/app/absent");
    let (found, n) = allocations(|| shard.get_many(&probe));
    within("get_many", n, 1);
    assert_eq!(found.len(), N + 1);
    assert!(found[N].is_none());
    for ((hit, &version), k) in found.iter().zip(&versions).zip(&keys) {
        assert_eq!(
            hit.as_ref().map(|(v, ver)| (&v[..], *ver)),
            Some((&b"v0"[..], version)),
            "{k:?}"
        );
    }
    let stats = shard.stats();
    assert_eq!((stats.gets, stats.hits), (N as u64 + 1, N as u64));
    assert_eq!(stats.bytes_referenced, 2 * N as u64);
}
