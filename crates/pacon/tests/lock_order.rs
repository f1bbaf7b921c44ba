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
//! The other two tests are budgets, counted and not timed. How often one
//! step of the commit path — one message, or one run of queued messages —
//! takes the node's outbox lock and the queue's:
//! the outbox is the one lock between an acknowledged op and its queue; a
//! second one on that path (there was a `mq.redelivery` class once) shows
//! up here as a count, not as a percent of host throughput. And how often
//! each op class takes the region's own locks (`pacon.region.*`): one
//! per-path table behind one lock, at most one hold per transition.
//!
//! Run with `cargo test -p pacon --features syncguard/check`; without the
//! feature every test is a no-op (passthrough mode records nothing).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fsapi::{Credentials, FileSystem};
use pacon::commit::WorkerStep;
use pacon::{PaconConfig, PaconRegion};
use simnet::{ClientId, LatencyProfile, Topology};
use syncguard::level;

/// syncguard counts acquisitions per class, process-wide: the tests of
/// this binary take turns, so no count sees another test's locks.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `(pacon.commit.outbox, mq.queue)` acquisitions `f` made.
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

    // A run of k queued messages at batch 4: k pops, one look at an empty
    // head unless the run is full, and one acknowledgement for the run.
    const N: usize = 4;
    let config = PaconConfig::new("/r", Topology::new(1, 1), cred).with_commit_batch(N);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    let mut w = region.take_worker(0);
    for k in 1..=N {
        for i in 0..k * N {
            c.create(&format!("/r/k{k}-{i}"), &cred, 0o644).unwrap();
        }
        let committed = (k * N) as u32;
        let run = locks_taken(|| {
            assert_eq!(w.step(), WorkerStep::Batch { committed, retried: 0, discarded: 0 })
        });
        assert_eq!(run, (1, k as u64 + 1 + (k < N) as u64), "a run of {k}");
    }

    let report = syncguard::report();
    assert!(!report.classes.iter().any(|c| c.name == "mq.redelivery"), "the window has no lock");
}

/// `pacon.region.*` acquisitions `f` made.
fn region_locks(f: impl FnOnce()) -> u64 {
    let snapshot = || {
        let report = syncguard::report();
        let region = report.classes.iter().filter(|c| c.name.starts_with("pacon.region."));
        region.map(|c| c.acquisitions).sum::<u64>()
    };
    let before = snapshot();
    f();
    snapshot() - before
}

/// Region-lock acquisitions per op class on one node at batch 32,
/// volatile. The parent of the one-table change took 1, 2, 1, 30, 3, 4,
/// 95 and 4 (seven tables, one lock each; durable mode one more per
/// create, write and unlink): the stale check of every cache hit, `put`
/// and `add_new` now reads an atomic count, an unlink and an `rmdir` are
/// one hold each, and a commit message reads the mark rule's and the
/// staged bytes' inputs in one hold each, not one per op.
#[test]
fn lock_budget_per_op_class() {
    if !syncguard::check_enabled() {
        eprintln!("syncguard/check disabled; skipping region lock budget test");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let config = PaconConfig::new("/w", Topology::new(1, 1), cred).with_commit_batch(32);
    let region = PaconRegion::launch_paused(config, &dfs).unwrap();
    let c = region.client(ClientId(0));
    let mut w = region.take_worker(0);
    let drain = |w: &mut pacon::commit::CommitWorker| {
        while !region.core().drained() {
            w.step();
        }
    };
    c.mkdir("/w/d", &cred, 0o755).unwrap();
    let paths: Vec<String> = (0..30).map(|i| format!("/w/g{i}")).collect();
    for p in &paths {
        c.create(p, &cred, 0o644).unwrap();
    }
    drain(&mut w);

    let create = region_locks(|| c.create("/w/f", &cred, 0o644).unwrap());
    let write = region_locks(|| assert_eq!(c.write("/w/f", &cred, 0, b"x"), Ok(1)));
    drain(&mut w);
    let stat = region_locks(|| assert!(c.stat("/w/f", &cred).unwrap().is_file()));
    let stat_many = region_locks(|| assert!(c.stat_many(&paths, &cred).iter().all(Result::is_ok)));
    let unlink = region_locks(|| c.unlink("/w/f", &cred).unwrap());
    drain(&mut w);
    // The barrier needs the commit process: step it on a second thread,
    // over an empty pipeline (a marker takes no region lock).
    let done = AtomicBool::new(false);
    let rmdir = std::thread::scope(|s| {
        let stepper = s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                w.step();
                std::thread::yield_now();
            }
        });
        let n = region_locks(|| c.rmdir("/w/d", &cred).unwrap());
        done.store(true, Ordering::Release);
        stepper.join().unwrap();
        n
    });
    // One message of 31 creates and a writeback of the first, cut by the
    // commit process's own empty-queue step.
    for i in 0..31 {
        c.create(&format!("/w/h{i}"), &cred, 0o644).unwrap();
    }
    c.write("/w/h0", &cred, 0, b"y").unwrap();
    let message = region_locks(|| {
        assert_eq!(w.step(), WorkerStep::Batch { committed: 32, retried: 0, discarded: 0 })
    });
    c.unlink("/w/h1", &cred).unwrap();
    let unlink_message = region_locks(|| assert_eq!(w.step(), WorkerStep::Committed));
    assert!(region.core().drained());

    let got = [create, write, stat, stat_many, unlink, rmdir, message, unlink_message];
    // create, inline write, stat hit, stat_many(30), unlink, rmdir, one
    // 31-create + 1-write message, one unlink message
    assert_eq!(got, [0, 1, 0, 0, 1, 1, 35, 2]);
    let report = syncguard::report();
    let classes = report.classes.iter().filter(|c| c.name.starts_with("pacon.region."));
    // Besides the driver thread's handle, one class holds region state
    // on these paths.
    let registry = ["pacon.region.driver"];
    let state: Vec<&str> =
        classes.map(|c| c.name.as_str()).filter(|n| !registry.contains(n)).collect();
    assert_eq!(state, ["pacon.region.paths"]);
}

#[test]
fn region_barrier_inversion_is_reported_as_cycle() {
    if !syncguard::check_enabled() {
        eprintln!("syncguard/check disabled; skipping inversion test");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    // Same class names and levels as pacon::region / pacon::commit::barrier.
    let region = std::sync::Arc::new(syncguard::Mutex::new(
        level::REGION_STATE,
        "pacon.region.paths",
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
            c.classes.iter().any(|n| n == "pacon.region.paths")
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
            v.held == "pacon.barrier.state" && v.acquired == "pacon.region.paths"
        }),
        "no level violation recorded: {:?}",
        report.level_violations
    );
}
