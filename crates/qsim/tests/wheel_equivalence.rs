//! Trace equivalence: the timer-wheel scheduler must drive the engine
//! through *exactly* the same execution as the original binary-heap
//! scheduler — every `Process::next` call at the same virtual instant in
//! the same order, and identical aggregate results.
//!
//! Random closed-loop populations exercise the interesting scheduler
//! states: same-timestamp collisions (the FIFO `seq` tie-break),
//! zero-length segments, contended FIFO stations, background drain, and
//! idle jumps far beyond the wheel horizon (the overflow calendar).

use std::cell::RefCell;
use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;
use qsim::{Process, RunOptions, Simulation, Step};
use simnet::{CostTrace, Station};

/// One scripted action of a replayed client.
#[derive(Clone, Debug)]
enum Act {
    /// Route segments `(station_selector, ns)` as one job.
    Work(Vec<(u8, u64)>),
    /// Poll again after this many ns.
    Idle(u64),
}

#[derive(Clone, Debug)]
struct Script {
    acts: Vec<Act>,
    measured: bool,
}

fn station(sel: u8) -> Station {
    match sel % 5 {
        0 => Station::Network,
        1 => Station::ClientCpu,
        2 => Station::Mds(0),
        3 => Station::KvShard(u32::from(sel) % 3),
        _ => Station::CommitProc(0),
    }
}

/// Replays a script, logging every `next` call as `(pid, now)`.
struct Replay {
    script: Script,
    idx: usize,
    pid: u32,
    log: Rc<RefCell<Vec<(u32, u64)>>>,
}

impl Process for Replay {
    fn next(&mut self, now: u64) -> Step {
        self.log.borrow_mut().push((self.pid, now));
        let act = match self.script.acts.get(self.idx) {
            None => return Step::Done,
            Some(a) => a.clone(),
        };
        self.idx += 1;
        match act {
            Act::Work(segs) => {
                let mut t = CostTrace::new();
                for (sel, ns) in segs {
                    t.push(station(sel), ns);
                }
                Step::Work { trace: t, ops: 1, class: u16::from(self.idx as u8 % 3) }
            }
            Act::Idle(ns) => Step::Idle { ns },
        }
    }

    fn measured(&self) -> bool {
        self.script.measured
    }
}

/// One engine's run: aggregate result + the `(pid, now)` call log.
type EngineTrace = (qsim::RunResult, Vec<(u32, u64)>);

fn run(scripts: &[Script]) -> (EngineTrace, EngineTrace) {
    let opts =
        RunOptions { record_latency: true, max_time: u64::MAX, max_events: 500_000 };
    let wheel_log = Rc::new(RefCell::new(Vec::new()));
    let mut wheel_procs: Vec<Replay> = scripts
        .iter()
        .enumerate()
        .map(|(i, s)| Replay {
            script: s.clone(),
            idx: 0,
            pid: i as u32,
            log: wheel_log.clone(),
        })
        .collect();
    let wheel = Simulation::with_options(opts.clone()).run_procs(&mut wheel_procs);

    let heap_log = Rc::new(RefCell::new(Vec::new()));
    let mut heap_procs: Vec<Replay> = scripts
        .iter()
        .enumerate()
        .map(|(i, s)| Replay {
            script: s.clone(),
            idx: 0,
            pid: i as u32,
            log: heap_log.clone(),
        })
        .collect();
    let heap = Simulation::with_options(opts).run_reference_heap(&mut heap_procs);

    let wl = wheel_log.borrow().clone();
    let hl = heap_log.borrow().clone();
    ((wheel, wl), (heap, hl))
}

fn assert_equivalent(scripts: &[Script]) {
    let ((wheel, wheel_log), (heap, heap_log)) = run(scripts);
    assert_eq!(wheel_log, heap_log, "next() call sequences diverge");
    assert_eq!(wheel.makespan_ns, heap.makespan_ns);
    assert_eq!(wheel.drained_ns, heap.drained_ns);
    assert_eq!(wheel.measured_ops, heap.measured_ops);
    assert_eq!(wheel.background_ops, heap.background_ops);
    assert_eq!(wheel.ops_per_process, heap.ops_per_process);
    assert_eq!(wheel.latencies_ns, heap.latencies_ns);
    assert_eq!(wheel.station_busy_ns, heap.station_busy_ns);
    assert_eq!(wheel.events_dispatched, heap.events_dispatched);
    assert_eq!(wheel.class_hists.len(), heap.class_hists.len());
    for (w, h) in wheel.class_hists.iter().zip(&heap.class_hists) {
        assert_eq!(w.count(), h.count());
        assert_eq!(w.percentile(0.5), h.percentile(0.5));
        assert_eq!(w.percentile(0.999), h.percentile(0.999));
    }
}

/// Segment durations biased toward collisions (0 and tiny values) with
/// occasional long services.
fn seg_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..4,
        4 => 1u64..200,
        1 => 1_000u64..100_000,
    ]
}

/// Idle gaps from 1ns to far beyond the wheel horizon (2^58 ns), so the
/// upper levels and the overflow calendar both participate.
fn idle_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 1u64..100,
        2 => 1u64..1_000_000,
        1 => (1u64 << 44)..(1u64 << 52),
        1 => (1u64 << 56)..(1u64 << 62),
    ]
}

fn act() -> impl Strategy<Value = Act> {
    prop_oneof![
        3 => vec((any::<u8>(), seg_ns()), 0..5).prop_map(Act::Work),
        1 => idle_ns().prop_map(Act::Idle),
    ]
}

fn script() -> impl Strategy<Value = Script> {
    (vec(act(), 0..12), 0u8..5)
        .prop_map(|(acts, m)| Script { acts, measured: m != 0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wheel_matches_heap_on_random_schedules(scripts in vec(script(), 1..16)) {
        assert_equivalent(&scripts);
    }
}

/// Deterministic stress of the pure tie-break discipline: many clients
/// whose every event lands on the same timestamps.
#[test]
fn wheel_matches_heap_on_total_collision() {
    let scripts: Vec<Script> = (0..32)
        .map(|i| Script {
            acts: vec![
                Act::Work(vec![(2, 0), (2, 0)]),
                Act::Idle(64),
                Act::Work(vec![(0, 0)]),
                Act::Idle(1 << 20),
                Act::Work(vec![(3, 0), (0, 0), (2, 0)]),
            ],
            measured: i % 4 != 3,
        })
        .collect();
    assert_equivalent(&scripts);
}

/// Deterministic stress of the far-future path: every client leaps past
/// the wheel horizon between ops, some landing on identical instants.
#[test]
fn wheel_matches_heap_across_overflow_horizon() {
    let scripts: Vec<Script> = (0..8)
        .map(|i| Script {
            acts: vec![
                Act::Work(vec![(2, 10)]),
                Act::Idle((1 << 59) + (i as u64 % 2) * 977),
                Act::Work(vec![(2, 5), (4, 3)]),
                Act::Idle(1 << 60),
                Act::Work(vec![(1, 1)]),
            ],
            measured: true,
        })
        .collect();
    assert_equivalent(&scripts);
}
