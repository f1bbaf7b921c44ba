//! In-memory span buffer of the traced pass.
//!
//! The benchmark measures every layer from outside: its own process
//! wrappers record a span around each call into the program
//! (`FsOp::exec`, `CommitWorker::step`, the engine run, the relaunch).
//! Spans live in a preallocated buffer and are written out when the run
//! ends; nothing inside the program is instrumented.

use std::io::Write;
use std::time::Instant;

use simnet::{CostTrace, Station};

use crate::gen::NODES;

/// What a span wraps. Client and worker spans are children of the
/// engine-run span that dispatched them, so the engine's self time is
/// its span minus the process spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// One fresh-state repetition (root; its index is the rep id).
    Rep = 0,
    /// Bed build, op generation, pre-population.
    Setup,
    /// `qsim::Simulation::run_procs` — the event engine.
    EngineRun,
    /// `FsOp::exec` on a `PaconClient`.
    ClientExec,
    /// `CommitWorker::step`.
    CommitStep,
    /// `PaconRegion::launch_paused` replaying the commit logs.
    Relaunch,
    /// Output checks after the timed region.
    Check,
}

pub const SPAN_NAMES: [&str; 7] = [
    "rep",
    "setup",
    "qsim.run",
    "pacon.client.exec",
    "pacon.commit.step",
    "pacon.region.relaunch",
    "check",
];

/// Class tag of spans that have no op class.
pub const NO_CLASS: u8 = u8::MAX;
/// Number of `FsOp` classes.
pub const CLASSES: usize = workloads::CLASS_NAMES.len();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Host ns since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    /// Repetition all spans of one rep share.
    pub rep: u32,
    pub name: SpanName,
    /// `FsOp::class` of a client span, `NO_CLASS` otherwise.
    pub class: u8,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Virtual service demand by station kind, summed over recorded traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Demand {
    pub client_cpu: u64,
    pub network: u64,
    pub mds: u64,
    pub data: u64,
    pub kv: [u64; NODES as usize],
    pub commit: [u64; NODES as usize],
    pub segs: u64,
    /// Traces folded in (engine jobs).
    pub jobs: u64,
}

impl Demand {
    pub fn add(&mut self, trace: &CostTrace) {
        self.jobs += 1;
        self.segs += trace.segs.len() as u64;
        for seg in &trace.segs {
            match seg.station {
                Station::ClientCpu | Station::Compute => self.client_cpu += seg.ns,
                Station::Network => self.network += seg.ns,
                Station::Mds(_) => self.mds += seg.ns,
                Station::DataServer(_) | Station::IndexSrv(_) => self.data += seg.ns,
                Station::KvShard(i) => self.kv[i as usize % NODES as usize] += seg.ns,
                Station::CommitProc(i) => self.commit[i as usize % NODES as usize] += seg.ns,
            }
        }
    }

    pub fn total(&self) -> u64 {
        self.client_cpu
            + self.network
            + self.mds
            + self.data
            + self.kv.iter().sum::<u64>()
            + self.commit.iter().sum::<u64>()
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Open (begun, not ended) spans, innermost last.
    stack: Vec<u32>,
    rep: u32,
    /// Demand of client jobs / of commit-worker jobs, one entry per
    /// engine run (opened by its `EngineRun` span).
    pub client_demand: Vec<Demand>,
    pub worker_demand: Vec<Demand>,
    /// Logical ops executed per `FsOp::class` (a `StatMany` counts one
    /// per path).
    pub class_ops: [u64; CLASSES],
}

impl Tracer {
    /// `capacity` spans are allocated up front so recording never
    /// reallocates inside a timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::new(),
            rep: 0,
            client_demand: Vec::new(),
            worker_demand: Vec::new(),
            class_ops: [0; CLASSES],
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Open a span under the innermost open one. A `Rep` span starts a
    /// new rep id.
    pub fn begin(&mut self, name: SpanName) -> u32 {
        let id = self.spans.len() as u32;
        match name {
            SpanName::Rep => self.rep = id,
            SpanName::EngineRun => {
                self.client_demand.push(Demand::default());
                self.worker_demand.push(Demand::default());
            }
            _ => {}
        }
        let start = self.now();
        self.spans.push(Span {
            start,
            end: start,
            parent: self.parent(),
            rep: self.rep,
            name,
            class: NO_CLASS,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end = self.now();
    }

    /// Record a completed childless span under the innermost open one.
    pub fn leaf(&mut self, name: SpanName, class: u8, start: u64, end: u64) {
        self.spans.push(Span {
            start,
            end,
            parent: self.parent(),
            rep: self.rep,
            name,
            class,
        });
    }

    /// A client call finished inside the current engine run.
    pub fn client_call(&mut self, class: u16, weight: u64, start: u64, trace: &CostTrace) {
        let end = self.now();
        self.leaf(SpanName::ClientExec, class as u8, start, end);
        self.class_ops[class as usize] += weight;
        self.client_demand
            .last_mut()
            .expect("inside an engine run")
            .add(trace);
    }

    /// A commit-worker step finished inside the current engine run.
    pub fn worker_step(&mut self, start: u64, trace: &CostTrace) {
        let end = self.now();
        self.leaf(SpanName::CommitStep, NO_CLASS, start, end);
        self.worker_demand
            .last_mut()
            .expect("inside an engine run")
            .add(trace);
    }

    /// One JSON object per line: name, op class, start, end (host ns
    /// since the tracer started), parent span index, rep id; the line
    /// number is the span's own index. The per-station demand sums of
    /// each engine run follow the spans.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let class = workloads::CLASS_NAMES
                .get(s.class as usize)
                .copied()
                .unwrap_or("");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"class\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"rep\":{}}}",
                SPAN_NAMES[s.name as usize], class, s.start, s.end, parent, s.rep
            )?;
        }
        for (who, runs) in [
            ("client", &self.client_demand),
            ("worker", &self.worker_demand),
        ] {
            for (run, d) in runs.iter().enumerate() {
                writeln!(
                    out,
                    "{{\"demand\":\"{who}\",\"engine_run\":{run},\"jobs\":{},\"segs\":{},\
                     \"client_cpu_vns\":{},\"network_vns\":{},\"mds_vns\":{},\"data_vns\":{},\
                     \"kv_shard_vns\":{:?},\"commit_proc_vns\":{:?}}}",
                    d.jobs, d.segs, d.client_cpu, d.network, d.mds, d.data, d.kv, d.commit
                )?;
            }
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its direct children cover (children may nest further,
/// touch, or — defensively — overlap; the covered part is their union).
pub fn self_time_by_name(spans: &[Span]) -> [u64; SPAN_NAMES.len()] {
    let mut total = [0u64; SPAN_NAMES.len()];
    for s in spans {
        total[s.name as usize] += s.end - s.start;
    }
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| {
            let p = &spans[s.parent as usize];
            (
                s.parent,
                s.start.clamp(p.start, p.end),
                s.end.clamp(p.start, p.end),
            )
        })
        .collect();
    children.sort_unstable();
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let mut covered = 0u64;
        let (mut lo, mut hi) = (children[i].1, children[i].2);
        i += 1;
        while i < children.len() && children[i].0 == parent {
            let (_, s, e) = children[i];
            if s <= hi {
                hi = hi.max(e);
            } else {
                covered += hi - lo;
                (lo, hi) = (s, e);
            }
            i += 1;
        }
        covered += hi - lo;
        total[spans[parent as usize].name as usize] -= covered;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, start: u64, end: u64, parent: u32) -> Span {
        Span {
            start,
            end,
            parent,
            rep: 0,
            name,
            class: NO_CLASS,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(SpanName::Rep, 0, 1000, NO_PARENT),
            // Two adjacent engine runs inside the rep.
            span(SpanName::EngineRun, 100, 400, 0),
            span(SpanName::EngineRun, 400, 900, 0),
            // Nested: client spans inside the first run, touching.
            span(SpanName::ClientExec, 100, 150, 1),
            span(SpanName::ClientExec, 150, 250, 1),
            // A worker span inside the second run.
            span(SpanName::CommitStep, 500, 700, 2),
        ];
        let t = self_time_by_name(&spans);
        assert_eq!(t[SpanName::Rep as usize], 1000 - 800);
        assert_eq!(t[SpanName::EngineRun as usize], (300 - 150) + (500 - 200));
        assert_eq!(t[SpanName::ClientExec as usize], 150);
        assert_eq!(t[SpanName::CommitStep as usize], 200);
        assert_eq!(
            t.iter().sum::<u64>(),
            1000,
            "self times partition the root span"
        );
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = vec![
            span(SpanName::EngineRun, 100, 200, NO_PARENT),
            span(SpanName::ClientExec, 120, 160, 0),
            span(SpanName::ClientExec, 150, 180, 0),
            span(SpanName::CommitStep, 190, 250, 0),
        ];
        let t = self_time_by_name(&spans);
        // Covered: [120,180) and [190,200) = 70 of the parent's 100.
        assert_eq!(t[SpanName::EngineRun as usize], 30);
    }

    #[test]
    fn tracer_parents_follow_the_open_stack() {
        let mut t = Tracer::with_capacity(8);
        let rep = t.begin(SpanName::Rep);
        let run = t.begin(SpanName::EngineRun);
        t.leaf(SpanName::ClientExec, 2, 5, 9);
        t.end(run);
        t.leaf(SpanName::Check, NO_CLASS, 10, 11);
        t.end(rep);
        assert_eq!(t.spans[1].parent, rep);
        assert_eq!(t.spans[2].parent, run);
        assert_eq!(t.spans[3].parent, rep);
        assert!(t.spans.iter().all(|s| s.rep == rep));
        let rep2 = t.begin(SpanName::Rep);
        t.end(rep2);
        assert_eq!(t.spans[rep2 as usize].rep, rep2);
        assert_eq!(t.spans[rep2 as usize].parent, NO_PARENT);
    }

    #[test]
    fn demand_sums_by_station_kind() {
        let mut trace = CostTrace::new();
        trace.push(Station::ClientCpu, 5);
        trace.push(Station::Network, 7);
        trace.push(Station::KvShard(3), 11);
        trace.push(Station::Network, 7);
        trace.push(Station::Mds(0), 13);
        let mut d = Demand::default();
        d.add(&trace);
        assert_eq!((d.client_cpu, d.network, d.kv[3], d.mds), (5, 14, 11, 13));
        assert_eq!((d.segs, d.jobs, d.total()), (5, 1, 43));
    }
}
