//! The discrete-event engine.
//!
//! Stations come in two disciplines (decided by [`simnet::Station::is_queueing`]):
//!
//! * **FIFO single-server** — one request in service at a time; arrivals
//!   wait. Because the scheduler delivers arrivals in global time order
//!   and a station's `free_at` only moves forward, tracking `free_at` is
//!   sufficient for exact FIFO semantics.
//! * **Pure delay** — infinite servers; the segment always takes exactly
//!   its service time (client CPU, the network fabric, local compute).
//!
//! Processes are closed-loop: the engine calls [`Process::next`] at the
//! virtual instant the previous step finished. A step is either `Work` (a
//! cost trace to route through the stations), `Idle` (poll again later —
//! used by background commit processes waiting on an empty queue), or
//! `Done`.
//!
//! A run ends when every *measured* process is `Done`; after that the
//! engine keeps running background processes until each returns `Idle`
//! (so commit queues drain completely), then stops.
//!
//! **Event scheduling** is a monotone radix heap ([`crate::radix`]): 64
//! buckets indexed by the highest bit in which an event's time differs
//! from the last refill. Pending events are 16-byte nodes appended to and
//! streamed out of those buckets, allocation-free once the buckets reach
//! their high-water mark. The original `BinaryHeap` scheduler survives as the
//! trace-equivalence oracle ([`crate::heap`]). Both schedulers implement
//! the same total `(time, push order)` dispatch order, so runs are
//! bit-for-bit deterministic and scheduler-agnostic.
//!
//! **Dispatch** is monomorphized: [`Simulation::run_procs`] drives a
//! dense table of any concrete [`Process`] type with static dispatch
//! (the scale benches use this), while [`Simulation::run`] keeps the
//! `Box<dyn Process>` convenience API for heterogeneous process sets.
//!
//! **Measurement**: every completed measured job is recorded into a
//! per-op-class log-linear histogram ([`simnet::LatencyHistogram`],
//! ~15 KiB per class), so p50/p99/p999 reporting is always on without
//! holding millions of raw samples; [`RunOptions::record_latency`]
//! additionally keeps the raw per-job response times.

use std::collections::HashMap;

use simnet::{CostTrace, LatencyHistogram, Station};

/// What a process wants to do next.
pub enum Step {
    /// Route this trace through the stations; when the final segment
    /// completes, count `ops` finished operations for this process and
    /// record the job's response time under op class `class`.
    Work { trace: CostTrace, ops: u64, class: u16 },
    /// Nothing to do; ask again after `ns` virtual nanoseconds have passed
    /// (must be > 0 to guarantee progress).
    Idle { ns: u64 },
    /// The process is finished and must not be scheduled again.
    Done,
}

/// A closed-loop virtual client or background worker.
pub trait Process {
    /// Produce the next step. `now` is the current virtual time in ns.
    ///
    /// Implementations typically execute one *functional* operation here
    /// (under `simnet::with_recording`) and return the recorded trace.
    fn next(&mut self, now: u64) -> Step;

    /// Whether this process's completed ops count toward the measured
    /// throughput and whether the run waits for it to finish. Background
    /// services (commit processes) return `false`.
    fn measured(&self) -> bool {
        true
    }
}

impl<P: Process + ?Sized> Process for Box<P> {
    fn next(&mut self, now: u64) -> Step {
        (**self).next(now)
    }
    fn measured(&self) -> bool {
        (**self).measured()
    }
}

/// Options controlling a simulation run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Hard stop at this virtual time (safety net; `u64::MAX` = none).
    pub max_time: u64,
    /// Hard stop after this many events (safety net against livelock).
    pub max_events: u64,
    /// Record the response time of every measured job (issue → last
    /// segment completion) for exact percentile reporting. Off by
    /// default: a million-client run completes hundreds of millions of
    /// jobs, and the always-on per-class histograms already provide
    /// p50/p99/p999 within 3.1%.
    pub record_latency: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self { max_time: u64::MAX, max_events: 10_000_000_000, record_latency: false }
    }
}

/// Aggregate outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Virtual time at which the last *measured* process finished.
    pub makespan_ns: u64,
    /// Virtual time at which the drain phase (background processes) ended.
    pub drained_ns: u64,
    /// Total operations completed by measured processes.
    pub measured_ops: u64,
    /// Total operations completed by background processes.
    pub background_ops: u64,
    /// Per-process completed op counts (index = process index).
    pub ops_per_process: Vec<u64>,
    /// Busy virtual ns per queueing station.
    pub station_busy_ns: HashMap<Station, u64>,
    /// Response time of each measured job, when
    /// [`RunOptions::record_latency`] was set (unsorted).
    pub latencies_ns: Vec<u64>,
    /// Number of events the scheduler dispatched (the engine-throughput
    /// denominator of the scale bench).
    pub events_dispatched: u64,
    /// Per-op-class response-time histograms (index = the `class` tag of
    /// [`Step::Work`]); one sample per completed measured job. Always
    /// recorded.
    pub class_hists: Vec<LatencyHistogram>,
}

impl RunResult {
    /// Measured throughput in operations per (virtual) second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.measured_ops as f64 * 1e9 / self.makespan_ns as f64
    }

    /// Utilization of a station over the measured makespan (can exceed 1.0
    /// only by rounding).
    pub fn utilization(&self, station: Station) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        *self.station_busy_ns.get(&station).unwrap_or(&0) as f64 / self.makespan_ns as f64
    }

    /// Latency percentile in ns (`q` in 0..=1) from the raw samples;
    /// `None` when latencies were not recorded. Sorts a copy; intended
    /// for post-run reporting.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx])
    }

    /// The response-time histogram of one op class (`None` when no job
    /// of that class completed).
    pub fn class_hist(&self, class: u16) -> Option<&LatencyHistogram> {
        self.class_hists.get(class as usize).filter(|h| !h.is_empty())
    }

    /// All op classes merged into one histogram.
    pub fn merged_hist(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for h in &self.class_hists {
            all.merge(h);
        }
        all
    }
}

/// The two event kinds the scheduler carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// Ask the process for its next step.
    Ready,
    /// The current segment finished service; advance to the next one.
    SegDone,
}

/// An event scheduler: a priority queue over `(time, push order)` with
/// FIFO tie-break at equal times. The radix heap runs the engine; the
/// original binary heap is the equivalence oracle. The engine never
/// pushes an event earlier than the last one popped.
pub(crate) trait Scheduler {
    fn push(&mut self, time: u64, pid: u32, kind: EventKind);
    fn pop(&mut self) -> Option<(u64, u32, EventKind)>;
}

struct Job {
    trace: CostTrace,
    next_seg: usize,
    ops: u64,
    class: u16,
    issued_at: u64,
}

/// Open-addressed station table keyed by a packed station id — the
/// per-segment `free_at`/`busy` lookup is on the hot path, where a
/// `HashMap<Station, u64>` (SipHash + tombstone checks) costs more than
/// the rest of the dispatch combined at 10^5+ clients.
struct StationMap {
    /// Packed keys (+1 so 0 means empty), power-of-two sized.
    keys: Vec<u64>,
    stations: Vec<Station>,
    free_at: Vec<u64>,
    busy: Vec<u64>,
    len: usize,
}

impl StationMap {
    fn new() -> Self {
        Self {
            keys: vec![0; 64],
            stations: vec![Station::ClientCpu; 64],
            free_at: vec![0; 64],
            busy: vec![0; 64],
            len: 0,
        }
    }

    fn encode(s: Station) -> u64 {
        let (tag, idx) = match s {
            Station::ClientCpu => (0u64, 0u32),
            Station::Network => (1, 0),
            Station::Mds(i) => (2, i),
            Station::DataServer(i) => (3, i),
            Station::IndexSrv(i) => (4, i),
            Station::KvShard(i) => (5, i),
            Station::CommitProc(i) => (6, i),
            Station::Compute => (7, 0),
        };
        ((tag << 32) | idx as u64) + 1
    }

    /// Slot of `s`, inserting an empty entry on first sight.
    fn slot_of(&mut self, s: Station) -> usize {
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let key = Self::encode(s);
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return i;
            }
            if k == 0 {
                self.keys[i] = key;
                self.stations[i] = s;
                self.len += 1;
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![0; 0]);
        let new_cap = old_keys.len() * 2;
        let old_stations = std::mem::take(&mut self.stations);
        let old_free = std::mem::take(&mut self.free_at);
        let old_busy = std::mem::take(&mut self.busy);
        self.keys = vec![0; new_cap];
        self.stations = vec![Station::ClientCpu; new_cap];
        self.free_at = vec![0; new_cap];
        self.busy = vec![0; new_cap];
        let mask = new_cap - 1;
        for (j, key) in old_keys.into_iter().enumerate() {
            if key == 0 {
                continue;
            }
            let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
            while self.keys[i] != 0 {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.stations[i] = old_stations[j];
            self.free_at[i] = old_free[j];
            self.busy[i] = old_busy[j];
        }
    }

    fn into_busy_map(self) -> HashMap<Station, u64> {
        let mut out = HashMap::new();
        for (i, key) in self.keys.iter().enumerate() {
            if *key != 0 && self.busy[i] > 0 {
                out.insert(self.stations[i], self.busy[i]);
            }
        }
        out
    }
}

/// The simulation executor. Construct, then [`Simulation::run`].
#[derive(Default)]
pub struct Simulation {
    opts: RunOptions,
}

impl Simulation {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_options(opts: RunOptions) -> Self {
        Self { opts }
    }

    /// Run the closed-loop simulation over boxed (heterogeneous)
    /// processes. Process indices in the result match `procs` order.
    pub fn run(&self, procs: &mut [Box<dyn Process>]) -> RunResult {
        self.run_procs(procs)
    }

    /// Run over a dense table of any concrete process type with static
    /// dispatch — the allocation-free fast path for homogeneous
    /// populations (`Box<dyn Process>` slices also satisfy `P`).
    pub fn run_procs<P: Process>(&self, procs: &mut [P]) -> RunResult {
        let mut sched = crate::radix::RadixHeap::new();
        self.run_core(&mut sched, procs)
    }

    /// As [`Simulation::run_procs`], but on the original binary-heap
    /// scheduler — the trace-equivalence oracle and bench baseline.
    pub fn run_reference_heap<P: Process>(&self, procs: &mut [P]) -> RunResult {
        let mut sched = crate::heap::HeapScheduler::new();
        self.run_core(&mut sched, procs)
    }

    fn run_core<S: Scheduler, P: Process>(&self, sched: &mut S, procs: &mut [P]) -> RunResult {
        let n = procs.len();
        assert!(n > 0, "simulation needs at least one process");
        assert!(n <= u32::MAX as usize, "process table limited to u32 indices");
        let measured: Vec<bool> = procs.iter().map(|p| p.measured()).collect();
        let mut measured_left = measured.iter().filter(|m| **m).count();
        let draining_from_start = measured_left == 0;

        for pid in 0..n {
            sched.push(0, pid as u32, EventKind::Ready);
        }

        let mut st = EngineState {
            jobs: (0..n).map(|_| None).collect(),
            stations: StationMap::new(),
            ops_per_process: vec![0; n],
            measured,
            latencies: Vec::new(),
            class_hists: Vec::new(),
            record_latency: self.opts.record_latency,
        };
        let mut done: Vec<bool> = vec![false; n];

        let mut makespan: u64 = 0;
        let mut last_time: u64 = 0;
        let mut draining = draining_from_start;
        let mut events: u64 = 0;

        while let Some((time, pid, kind)) = sched.pop() {
            // The event that trips a hard stop is not dispatched, so it
            // is not counted either.
            if time > self.opts.max_time || events >= self.opts.max_events {
                last_time = last_time.max(time.min(self.opts.max_time));
                break;
            }
            events += 1;
            last_time = time;
            let pid = pid as usize;
            if done[pid] {
                continue;
            }
            match kind {
                EventKind::Ready => match procs[pid].next(time) {
                    Step::Work { trace, ops, class } => {
                        st.jobs[pid] =
                            Some(Job { trace, next_seg: 0, ops, class, issued_at: time });
                        // Enter the first segment immediately.
                        st.advance(pid, time, sched);
                    }
                    Step::Idle { ns } => {
                        if draining && !st.measured[pid] {
                            // Queues are drained; background process may stop.
                            done[pid] = true;
                        } else {
                            let ns = ns.max(1);
                            sched.push(
                                time.saturating_add(ns),
                                pid as u32,
                                EventKind::Ready,
                            );
                        }
                    }
                    Step::Done => {
                        done[pid] = true;
                        if st.measured[pid] {
                            measured_left -= 1;
                            makespan = makespan.max(time);
                            if measured_left == 0 {
                                draining = true;
                            }
                        }
                    }
                },
                EventKind::SegDone => {
                    st.advance(pid, time, sched);
                }
            }
        }

        let measured_ops: u64 = st
            .ops_per_process
            .iter()
            .zip(&st.measured)
            .filter_map(|(o, m)| if *m { Some(*o) } else { None })
            .sum();
        let background_ops: u64 = st
            .ops_per_process
            .iter()
            .zip(&st.measured)
            .filter_map(|(o, m)| if !*m { Some(*o) } else { None })
            .sum();
        if draining_from_start {
            makespan = last_time;
        }

        RunResult {
            makespan_ns: makespan,
            drained_ns: last_time,
            measured_ops,
            background_ops,
            ops_per_process: st.ops_per_process,
            station_busy_ns: st.stations.into_busy_map(),
            latencies_ns: st.latencies,
            events_dispatched: events,
            class_hists: st.class_hists,
        }
    }
}

/// Mutable per-run state shared between the dispatch loop and
/// [`EngineState::advance`].
struct EngineState {
    jobs: Vec<Option<Job>>,
    stations: StationMap,
    ops_per_process: Vec<u64>,
    measured: Vec<bool>,
    latencies: Vec<u64>,
    class_hists: Vec<LatencyHistogram>,
    record_latency: bool,
}

impl EngineState {
    /// Move the process's current job forward: start service of the next
    /// segment (or finish the job) at virtual time `now`.
    fn advance<S: Scheduler>(&mut self, pid: usize, now: u64, sched: &mut S) {
        let job = self.jobs[pid].as_mut().expect("advance without an active job");
        if job.next_seg >= job.trace.segs.len() {
            // Job complete: count ops, ask for the next step right away.
            self.ops_per_process[pid] += job.ops;
            if self.measured[pid] && job.ops > 0 {
                let latency = now - job.issued_at;
                let class = job.class as usize;
                if self.class_hists.len() <= class {
                    self.class_hists.resize_with(class + 1, LatencyHistogram::new);
                }
                self.class_hists[class].record(latency);
                if self.record_latency {
                    self.latencies.push(latency);
                }
            }
            self.jobs[pid] = None;
            sched.push(now, pid as u32, EventKind::Ready);
            return;
        }
        let seg = job.trace.segs[job.next_seg];
        job.next_seg += 1;
        let finish = if seg.station.is_queueing() {
            let slot = self.stations.slot_of(seg.station);
            let start = now.max(self.stations.free_at[slot]);
            let finish = start + seg.ns;
            self.stations.free_at[slot] = finish;
            self.stations.busy[slot] += seg.ns;
            finish
        } else {
            now + seg.ns
        };
        sched.push(finish, pid as u32, EventKind::SegDone);
    }
}

/// Shared test scaffolding: the fixed-op client and trace builder every
/// engine test module previously duplicated.
#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// A client that performs `count` identical ops of class `class`.
    pub struct FixedClient {
        pub remaining: u64,
        pub trace: CostTrace,
        pub class: u16,
    }

    impl FixedClient {
        pub fn new(remaining: u64, trace: CostTrace) -> Self {
            Self { remaining, trace, class: 0 }
        }
    }

    impl Process for FixedClient {
        fn next(&mut self, _now: u64) -> Step {
            if self.remaining == 0 {
                return Step::Done;
            }
            self.remaining -= 1;
            Step::Work { trace: self.trace.clone(), ops: 1, class: self.class }
        }
    }

    pub fn mk_trace(segs: &[(Station, u64)]) -> CostTrace {
        let mut t = CostTrace::new();
        for (s, ns) in segs {
            t.push(*s, *ns);
        }
        t
    }

    /// `n` identical boxed fixed clients — the common test population.
    pub fn fixed_clients(n: usize, remaining: u64, trace: &CostTrace) -> Vec<Box<dyn Process>> {
        (0..n)
            .map(|_| Box::new(FixedClient::new(remaining, trace.clone())) as Box<dyn Process>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::{fixed_clients, mk_trace, FixedClient};
    use super::*;

    #[test]
    fn single_client_serial_time() {
        // 10 ops, each 100ns delay + 50ns at a queueing station.
        let trace = mk_trace(&[(Station::Network, 100), (Station::Mds(0), 50)]);
        let mut procs = fixed_clients(1, 10, &trace);
        let res = Simulation::new().run(&mut procs);
        assert_eq!(res.measured_ops, 10);
        assert_eq!(res.makespan_ns, 10 * 150);
        assert!((res.ops_per_sec() - 10.0 * 1e9 / 1500.0).abs() < 1e-6);
    }

    #[test]
    fn queueing_station_saturates() {
        // 4 clients, each op = 100ns think (delay) + 100ns at shared MDS.
        // MDS is the bottleneck: aggregate rate caps at 1 op / 100ns.
        let trace = mk_trace(&[(Station::Network, 100), (Station::Mds(0), 100)]);
        let mut procs = fixed_clients(4, 50, &trace);
        let res = Simulation::new().run(&mut procs);
        assert_eq!(res.measured_ops, 200);
        // Ideal bottleneck time = 200 ops * 100ns = 20_000ns (plus initial
        // 100ns pipeline fill).
        assert!(res.makespan_ns >= 20_000);
        assert!(res.makespan_ns <= 20_300, "makespan {}", res.makespan_ns);
        let util = res.utilization(Station::Mds(0));
        assert!(util > 0.97, "mds should be saturated, util={util}");
    }

    #[test]
    fn delay_stations_do_not_contend() {
        // 8 clients doing pure-delay work scale linearly.
        let trace = mk_trace(&[(Station::Network, 1000)]);
        let mut procs = fixed_clients(8, 10, &trace);
        let res = Simulation::new().run(&mut procs);
        assert_eq!(res.measured_ops, 80);
        assert_eq!(res.makespan_ns, 10_000); // same as a single client
    }

    #[test]
    fn fifo_order_is_respected() {
        // Two clients hit the same station; the second arrival waits.
        struct One {
            fired: bool,
            delay: u64,
        }
        impl Process for One {
            fn next(&mut self, _now: u64) -> Step {
                if self.fired {
                    return Step::Done;
                }
                self.fired = true;
                let t = mk_trace(&[(Station::Network, self.delay), (Station::Mds(0), 100)]);
                Step::Work { trace: t, ops: 1, class: 0 }
            }
        }
        let mut procs: Vec<Box<dyn Process>> = vec![
            Box::new(One { fired: false, delay: 10 }),
            Box::new(One { fired: false, delay: 20 }),
        ];
        let res = Simulation::new().run(&mut procs);
        // First finishes at 110; second arrives at 20, waits to 110,
        // finishes at 210.
        assert_eq!(res.makespan_ns, 210);
    }

    /// Background process that mirrors a drain-queue: works while a shared
    /// counter is positive, idles otherwise.
    struct Drainer {
        backlog: std::rc::Rc<std::cell::RefCell<u64>>,
    }
    impl Process for Drainer {
        fn next(&mut self, _now: u64) -> Step {
            let mut b = self.backlog.borrow_mut();
            if *b > 0 {
                *b -= 1;
                Step::Work { trace: mk_trace(&[(Station::CommitProc(0), 10)]), ops: 1, class: 0 }
            } else {
                Step::Idle { ns: 100 }
            }
        }
        fn measured(&self) -> bool {
            false
        }
    }

    /// Producer that pushes to the backlog each op.
    struct Producer {
        remaining: u64,
        backlog: std::rc::Rc<std::cell::RefCell<u64>>,
    }
    impl Process for Producer {
        fn next(&mut self, _now: u64) -> Step {
            if self.remaining == 0 {
                return Step::Done;
            }
            self.remaining -= 1;
            *self.backlog.borrow_mut() += 1;
            Step::Work { trace: mk_trace(&[(Station::Network, 5)]), ops: 1, class: 0 }
        }
    }

    #[test]
    fn background_drains_after_measured_done() {
        let backlog = std::rc::Rc::new(std::cell::RefCell::new(0u64));
        let mut procs: Vec<Box<dyn Process>> = vec![
            Box::new(Producer { remaining: 30, backlog: backlog.clone() }),
            Box::new(Drainer { backlog: backlog.clone() }),
        ];
        let res = Simulation::new().run(&mut procs);
        assert_eq!(res.measured_ops, 30);
        assert_eq!(res.background_ops, 30, "commit backlog must fully drain");
        assert_eq!(*backlog.borrow(), 0);
        assert!(res.drained_ns >= res.makespan_ns);
    }

    #[test]
    fn max_time_stops_runaway() {
        struct Forever;
        impl Process for Forever {
            fn next(&mut self, _now: u64) -> Step {
                Step::Work { trace: mk_trace(&[(Station::Network, 100)]), ops: 1, class: 0 }
            }
        }
        let mut procs: Vec<Box<dyn Process>> = vec![Box::new(Forever)];
        let res = Simulation::with_options(RunOptions {
            max_time: 10_000,
            max_events: u64::MAX,
            record_latency: false,
        })
        .run(&mut procs);
        // Ready at 0, then a SegDone and a Ready at every 100 ns up to
        // 10 000: 201 events and 100 ops. The SegDone at 10 100 trips the
        // stop and is not dispatched.
        assert_eq!(res.drained_ns, 10_000);
        assert_eq!(res.ops_per_process[0], 100);
        assert_eq!(res.events_dispatched, 201);
    }

    #[test]
    fn max_events_stops_after_exactly_that_many() {
        struct Forever;
        impl Process for Forever {
            fn next(&mut self, _now: u64) -> Step {
                Step::Work { trace: mk_trace(&[(Station::Network, 100)]), ops: 1, class: 0 }
            }
        }
        let mut procs: Vec<Box<dyn Process>> = vec![Box::new(Forever)];
        let res = Simulation::with_options(RunOptions {
            max_time: u64::MAX,
            max_events: 7,
            record_latency: false,
        })
        .run(&mut procs);
        // Ready at 0, then SegDone + Ready at 100, 200 and 300.
        assert_eq!(res.events_dispatched, 7);
        assert_eq!(res.ops_per_process[0], 3);
    }

    #[test]
    fn empty_trace_job_completes_instantly() {
        let mut procs = fixed_clients(1, 3, &CostTrace::new());
        let res = Simulation::new().run(&mut procs);
        assert_eq!(res.measured_ops, 3);
        assert_eq!(res.makespan_ns, 0);
    }

    #[test]
    fn dense_process_table_matches_boxed_dispatch() {
        // run_procs over a concrete type is the monomorphized fast path;
        // it must agree with the boxed API exactly.
        let trace = mk_trace(&[(Station::Network, 13), (Station::Mds(0), 29)]);
        let mut dense: Vec<FixedClient> =
            (0..6).map(|_| FixedClient::new(25, trace.clone())).collect();
        let mut boxed = fixed_clients(6, 25, &trace);
        let a = Simulation::new().run_procs(&mut dense);
        let b = Simulation::new().run(&mut boxed);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.measured_ops, b.measured_ops);
        assert_eq!(a.ops_per_process, b.ops_per_process);
        assert_eq!(a.events_dispatched, b.events_dispatched);
        assert_eq!(a.station_busy_ns, b.station_busy_ns);
    }

    #[test]
    fn class_histograms_partition_by_op_class() {
        // Two clients on different op classes: class 1 jobs take 100ns,
        // class 2 jobs 10_000ns; the per-class histograms must separate.
        let mut procs: Vec<Box<dyn Process>> = vec![
            Box::new(FixedClient {
                remaining: 20,
                trace: mk_trace(&[(Station::Network, 100)]),
                class: 1,
            }),
            Box::new(FixedClient {
                remaining: 20,
                trace: mk_trace(&[(Station::Network, 10_000)]),
                class: 2,
            }),
        ];
        let res = Simulation::new().run(&mut procs);
        assert!(res.class_hist(0).is_none(), "no class-0 jobs ran");
        let h1 = res.class_hist(1).expect("class 1 recorded");
        let h2 = res.class_hist(2).expect("class 2 recorded");
        assert_eq!(h1.count(), 20);
        assert_eq!(h2.count(), 20);
        assert_eq!(h1.percentile(0.5), Some(100));
        let p2 = h2.percentile(0.5).unwrap();
        assert!((10_000..=10_000 + 10_000 / 32).contains(&p2), "{p2}");
        assert_eq!(res.merged_hist().count(), 40);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::test_util::{fixed_clients, mk_trace};
    use super::*;

    #[test]
    fn latency_recording_captures_queueing_delay() {
        let trace = mk_trace(&[(Station::Mds(0), 100)]);
        let mut procs = fixed_clients(4, 10, &trace);
        let res = Simulation::with_options(RunOptions {
            record_latency: true,
            ..RunOptions::default()
        })
        .run(&mut procs);
        assert_eq!(res.latencies_ns.len(), 40);
        // First job of the first-served client waits 0; the last client's
        // job waits behind three others.
        let p0 = res.latency_percentile(0.0).unwrap();
        let p100 = res.latency_percentile(1.0).unwrap();
        assert_eq!(p0, 100);
        assert_eq!(p100, 400, "worst job queues behind 3 peers");
        let p50 = res.latency_percentile(0.5).unwrap();
        assert!((100..=400).contains(&p50));
        // The always-on histogram agrees at the extremes (exact min/max).
        let h = res.merged_hist();
        assert_eq!(h.count(), 40);
        assert_eq!(h.percentile(0.0), Some(100));
        assert_eq!(h.percentile(1.0), Some(400));
    }

    #[test]
    fn raw_latency_not_recorded_by_default_but_histograms_are() {
        let trace = mk_trace(&[(Station::Mds(0), 10)]);
        let mut procs = fixed_clients(1, 5, &trace);
        let res = Simulation::new().run(&mut procs);
        assert!(res.latencies_ns.is_empty());
        assert_eq!(res.latency_percentile(0.5), None);
        assert_eq!(res.merged_hist().count(), 5);
        assert_eq!(res.class_hist(0).unwrap().percentile(0.999), Some(10));
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::test_util::{mk_trace, FixedClient};
    use super::*;

    /// The engine is fully deterministic: identical inputs give identical
    /// outputs, event for event (the seq tiebreaker makes dispatch order
    /// total). Resumable/reproducible experiments depend on this.
    #[test]
    fn identical_runs_produce_identical_results() {
        let run = || {
            let trace = mk_trace(&[
                (Station::Network, 13),
                (Station::Mds(0), 29),
                (Station::KvShard(1), 7),
            ]);
            let mut procs: Vec<Box<dyn Process>> = (0..7)
                .map(|i| {
                    Box::new(FixedClient::new(20 + i as u64, trace.clone())) as Box<dyn Process>
                })
                .collect();
            Simulation::with_options(RunOptions {
                record_latency: true,
                ..RunOptions::default()
            })
            .run(&mut procs)
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.measured_ops, b.measured_ops);
        assert_eq!(a.ops_per_process, b.ops_per_process);
        assert_eq!(a.latencies_ns, b.latencies_ns);
        assert_eq!(a.station_busy_ns, b.station_busy_ns);
        assert_eq!(a.events_dispatched, b.events_dispatched);
    }
}
