//! Trace equivalence: the radix-heap scheduler must drive the engine
//! through *exactly* the same execution as the original binary-heap
//! scheduler — every `Process::next` call at the same virtual instant in
//! the same order, and identical aggregate results.
//!
//! Random closed-loop populations exercise the interesting scheduler
//! states: same-timestamp collisions (the FIFO tie-break), zero-length
//! segments, contended FIFO stations, background drain, and idle jumps
//! that land in every bucket up to the top one (bit 63).

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
    let radix_log = Rc::new(RefCell::new(Vec::new()));
    let mut radix_procs: Vec<Replay> = scripts
        .iter()
        .enumerate()
        .map(|(i, s)| Replay {
            script: s.clone(),
            idx: 0,
            pid: i as u32,
            log: radix_log.clone(),
        })
        .collect();
    let radix = Simulation::with_options(opts.clone()).run_procs(&mut radix_procs);

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

    let rl = radix_log.borrow().clone();
    let hl = heap_log.borrow().clone();
    ((radix, rl), (heap, hl))
}

fn assert_equivalent(scripts: &[Script]) {
    let ((radix, radix_log), (heap, heap_log)) = run(scripts);
    assert_eq!(radix_log, heap_log, "next() call sequences diverge");
    assert_eq!(radix.makespan_ns, heap.makespan_ns);
    assert_eq!(radix.drained_ns, heap.drained_ns);
    assert_eq!(radix.measured_ops, heap.measured_ops);
    assert_eq!(radix.background_ops, heap.background_ops);
    assert_eq!(radix.ops_per_process, heap.ops_per_process);
    assert_eq!(radix.latencies_ns, heap.latencies_ns);
    assert_eq!(radix.station_busy_ns, heap.station_busy_ns);
    assert_eq!(radix.events_dispatched, heap.events_dispatched);
    assert_eq!(radix.class_hists.len(), heap.class_hists.len());
    for (r, h) in radix.class_hists.iter().zip(&heap.class_hists) {
        assert_eq!(r.count(), h.count());
        assert_eq!(r.percentile(0.5), h.percentile(0.5));
        assert_eq!(r.percentile(0.999), h.percentile(0.999));
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

/// Idle gaps from 1 ns to 2^62 ns, so low, middle and high buckets all
/// participate.
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
    fn radix_matches_heap_on_random_schedules(scripts in vec(script(), 1..16)) {
        assert_equivalent(&scripts);
    }
}

/// Deterministic stress of the pure tie-break discipline: many clients
/// whose every event lands on the same timestamps.
#[test]
fn radix_matches_heap_on_total_collision() {
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

/// Deterministic stress of the top bucket: every client leaps 2^62 ns and
/// more between ops, pairs of them landing on identical instants, until
/// the clock saturates at `u64::MAX`, where only zero-length work and
/// idles (which saturate again) remain.
#[test]
fn radix_matches_heap_in_the_top_bucket() {
    let scripts: Vec<Script> = (0..8)
        .map(|i| Script {
            acts: vec![
                Act::Work(vec![(2, 10)]),
                Act::Idle((1 << 62) + (i as u64 % 2) * 977),
                Act::Work(vec![(2, 5), (4, 3)]),
                Act::Idle((1 << 62) + (1 << 61) + (i as u64 % 4)),
                Act::Work(vec![(1, 1)]),
                Act::Idle(u64::MAX - (i as u64 % 2)),
                Act::Work(vec![(2, 0), (0, 0)]),
                Act::Idle(1),
                Act::Work(vec![(3, 0)]),
            ],
            measured: i % 4 != 3,
        })
        .collect();
    assert_equivalent(&scripts);
}
