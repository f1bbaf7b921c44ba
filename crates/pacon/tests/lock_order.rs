//! Lock-order inversion regression test (syncguard cycle detection).
//!
//! The shipped hierarchy splits the barrier board into two lock classes:
//! the *slot* (`pacon.barrier.slot`, outermost — held across the whole
//! dependent operation) and the *state* (`pacon.barrier.state`, a leaf
//! taken while region-level locks such as a node's outbox are held).
//! With a single class those two usage patterns would form exactly the
//! inversion this test constructs: one thread nesting region-state →
//! barrier-state, another nesting barrier-state → region-state.
//!
//! Here we recreate that inversion across the same lock classes and
//! assert syncguard reports the cycle with both acquisition sites, which
//! is the diagnostic a developer would get if the hierarchy regressed.
//!
//! The second test is a budget, counted and not timed: how often one step
//! of the commit path takes the node's outbox lock and the queue's. The
//! outbox is the one lock between an acknowledged op and its queue; a
//! second one on that path (there was a `mq.redelivery` class once) shows
//! up here as a count, not as a percent of host throughput.
//!
//! Run with `cargo test -p pacon --features syncguard/check`; without the
//! feature both tests are no-ops (passthrough mode records nothing).

use std::sync::Arc;

use fsapi::{Credentials, FileSystem};
use pacon::commit::WorkerStep;
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, Topology};
use syncguard::level;

/// `(pacon.commit.outbox, mq.queue)` acquisitions `f` made. Only this
/// test's region constructs either class in this binary.
fn locks_taken(f: impl FnOnce()) -> (u64, u64) {
    let snapshot = || {
        let report = syncguard::report();
        let of = |class: &str| {
            report.classes.iter().find(|c| c.name == class).map_or(0, |c| c.acquisitions)
        };
        (of("pacon.commit.outbox"), of("mq.queue"))
    };
    let before = snapshot();
    f();
    let after = snapshot();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn lock_budget_per_commit_step() {
    if !syncguard::check_enabled() {
        eprintln!("syncguard/check disabled; skipping lock budget test");
        return;
    }
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let config = PaconConfig::new("/w", Topology::new(1, 1), cred).with_commit_batch(1);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    let mut w = region.take_worker(0);

    // An idle poll: one look at the queue, one at the outbox — whose empty
    // window does not look at the broker.
    assert_eq!(locks_taken(|| assert_eq!(w.step(), WorkerStep::Idle)), (1, 1));
    // One create at batch 1: push, cut and send in one hold; the window
    // reads the link's state, then enqueues.
    let (outbox, queue) = locks_taken(|| c.create("/w/f", &cred, 0o644).unwrap());
    assert_eq!(outbox, 1, "one hold from push to send");
    assert!(queue <= 2, "link view + enqueue, got {queue}");
    // Receive and acknowledge: the pop, then the window trims its record
    // against the link's state.
    assert_eq!(locks_taken(|| assert_eq!(w.step(), WorkerStep::Committed)), (1, 2));
    assert_eq!(locks_taken(|| assert_eq!(w.step(), WorkerStep::Idle)), (1, 1));

    let report = syncguard::report();
    assert!(!report.classes.iter().any(|c| c.name == "mq.redelivery"), "the window has no lock");
}

#[test]
fn region_barrier_inversion_is_reported_as_cycle() {
    if !syncguard::check_enabled() {
        eprintln!("syncguard/check disabled; skipping inversion test");
        return;
    }

    // Same class names and levels as pacon::region / pacon::commit::barrier.
    let region = std::sync::Arc::new(syncguard::Mutex::new(
        level::REGION_STATE,
        "pacon.region.staging",
        (),
    ));
    let barrier = std::sync::Arc::new(syncguard::Mutex::new(
        level::BARRIER,
        "pacon.barrier.state",
        (),
    ));

    // Thread 1: the legal order — region state outer, barrier state inner
    // (what the outbox does when it stamps a batch with the current epoch).
    {
        let region = std::sync::Arc::clone(&region);
        let barrier = std::sync::Arc::clone(&barrier);
        std::thread::spawn(move || {
            let _r = region.lock();
            let _b = barrier.lock();
        })
        .join()
        .unwrap();
    }

    // Thread 2: the inversion — barrier state held while region state is
    // acquired. Joined after thread 1 so both edges exist; no actual
    // deadlock is needed for the class graph to close the cycle.
    {
        let region = std::sync::Arc::clone(&region);
        let barrier = std::sync::Arc::clone(&barrier);
        std::thread::spawn(move || {
            let _b = barrier.lock();
            let _r = region.lock();
        })
        .join()
        .unwrap();
    }

    let report = syncguard::report();

    let cycle = report
        .cycles
        .iter()
        .find(|c| {
            c.classes.iter().any(|n| n == "pacon.region.staging")
                && c.classes.iter().any(|n| n == "pacon.barrier.state")
        })
        .unwrap_or_else(|| {
            panic!("no cycle across region/barrier classes in {:?}", report.cycles)
        });
    // Both acquisition sites must point into this file so the diagnostic
    // is actionable.
    assert!(cycle.held_site.contains("lock_order.rs"), "held site: {}", cycle.held_site);
    assert!(
        cycle.acquire_site.contains("lock_order.rs"),
        "acquire site: {}",
        cycle.acquire_site
    );

    // The inversion is also a level violation: BARRIER (40) was held while
    // REGION_STATE (16) was acquired.
    assert!(
        report.level_violations.iter().any(|v| {
            v.held == "pacon.barrier.state" && v.acquired == "pacon.region.staging"
        }),
        "no level violation recorded: {:?}",
        report.level_violations
    );
}
