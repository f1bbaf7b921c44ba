//! The repo benchmark. See `README.md` next to this package for the
//! metric glossary, the workloads and the blind spots.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload (the driver's call)
//! run.sh [--seed N] [--trace] [--smoke] [--out F]        every workload, one child each
//! run.sh --compare A.json B.json                         judge B against A
//! run.sh --self-check [--seed N]                         two sets of runs must agree
//! ```

mod bed;
mod calib;
mod gen;
mod json;
mod metrics;
mod stats;
mod suite;
mod trace;

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use bed::{Probe, Rep};
use gen::Workload;
use json::Json;
use metrics::{Probes, TracedPass, END_TO_END, PER_LAYER};
use stats::Summary;
use trace::Tracer;

/// Fresh-state repetitions a run makes at least, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;
/// `--smoke` divides every op count by this.
const SMOKE_DIV: u32 = 50;
/// Stop adding repetitions after this much wall time, whatever
/// `--seconds` asks: the driver allows one run 180 s.
const WALL_CAP_S: f64 = 120.0;
/// Keys the lower-module probes replay.
const PROBE_KEYS: usize = 32_768;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub out: Option<PathBuf>,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub self_check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n\
         \x20             [--out-dir DIR] [--out FILE] | --compare A.json B.json | --self-check\n\
         workloads: {}",
        Workload::ALL.map(|w| w.name()).join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
        compare: None,
        self_check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::iter::Peekable<_>| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it);
                args.workload = Some(Workload::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name}");
                    usage()
                }));
            }
            "--seed" => args.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                // A bare flag in suite mode, `0|1` in the driver's call.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value(&mut it)),
            "--out" => args.out = Some(PathBuf::from(value(&mut it))),
            "--compare" => {
                let a = PathBuf::from(value(&mut it));
                args.compare = Some((a, PathBuf::from(value(&mut it))));
            }
            "--self-check" => args.self_check = true,
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        std::process::exit(suite::compare_files(a, b));
    }
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let code = match args.workload {
        Some(w) if args.trace => traced_pass(w, &args),
        Some(w) => untraced_pass(w, &args),
        None if args.self_check => suite::self_check(&args),
        None => suite::run(&args),
    };
    std::process::exit(code);
}

fn div(args: &Args) -> u32 {
    if args.smoke {
        SMOKE_DIV
    } else {
        1
    }
}

/// The driver's result line: exactly these four keys, last on stdout.
fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Json)>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
        ("unit", Json::str(unit)),
    ])
}

type Fingerprint = Vec<(&'static str, u64)>;

fn fingerprint_json(rep: &Rep) -> Json {
    Json::obj(
        rep.fingerprint()
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64))),
    )
}

/// End-to-end metrics: repetitions with tracing off until `--seconds`
/// of timed host time have been measured.
fn untraced_pass(workload: Workload, args: &Args) -> i32 {
    let started = Instant::now();
    let mut per_rep: Vec<[f64; 8]> = Vec::new();
    let mut mem_speeds: Vec<f64> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    // Of the first rep: exact counts (typed and rendered), sample count, plain p50.
    let mut first: Option<(Fingerprint, Json, usize, f64)> = None;
    let (mut attempted, mut failed, mut timed_ns) = (0u64, 0u64, 0u64);
    loop {
        let wal_dir = bed::wal_dir(&args.out_dir, workload, per_rep.len());
        let rep = bed::run_rep(workload, args.seed, div(args), &Probe::default(), &wal_dir);
        attempted += rep.attempted;
        failed += rep.failed;
        timed_ns += rep.timed_ns;
        errors.extend(
            rep.errors
                .iter()
                .map(|e| format!("rep {}: {e}", per_rep.len())),
        );
        // Determinism gate: virtual results and exact counts repeat.
        match &first {
            None => {
                let p50 = stats::quantile_sorted(&rep.latencies, 0.5) as f64 / 1e3;
                first = Some((
                    rep.fingerprint(),
                    fingerprint_json(&rep),
                    rep.latencies.len(),
                    p50,
                ));
            }
            Some((fp, ..)) if *fp != rep.fingerprint() => errors.push(format!(
                "rep {} differs from rep 0 on the virtual clock: {:?} vs {fp:?}",
                per_rep.len(),
                rep.fingerprint()
            )),
            Some(_) => {}
        }
        per_rep.push(metrics::end_to_end(&rep));
        mem_speeds.extend(rep.mem_speeds);
        drop(rep);
        let enough = per_rep.len() >= MIN_REPS && timed_ns as f64 / 1e9 >= args.seconds;
        if args.smoke || enough || started.elapsed().as_secs_f64() > WALL_CAP_S {
            break;
        }
    }
    let rss = metrics::peak_rss_mib();
    // Scale the host clock by the median memory speed the run saw.
    let raw_ops: Vec<f64> = per_rep.iter().map(|r| r[metrics::HOST_OPS]).collect();
    let mem_speed = Summary::of(&mem_speeds);
    let scale = calib::time_scale(mem_speed.median);
    for r in &mut per_rep {
        r[metrics::HOST_OPS] /= scale;
        r[metrics::SETUP] *= scale;
    }
    let (_, fingerprint, samples, p50_us) = first.expect("at least one rep ran");
    let summaries: Vec<Summary> = (0..END_TO_END.len())
        .map(|m| {
            if END_TO_END[m].name == "host.peak_rss_mib" {
                Summary::of(&[rss])
            } else {
                Summary::of(&per_rep.iter().map(|r| r[m]).collect::<Vec<_>>())
            }
        })
        .collect();
    let tail = stats::tail_quantile(samples, 0.999);
    if !args.smoke && tail != 0.999 {
        errors.push(format!(
            "{samples} samples leave fewer than ten beyond p999"
        ));
    }
    let correct = errors.is_empty();

    println!(
        "# {} seed={} reps={} timed={:.1}s wall={:.1}s op_samples={samples} tail_quantile={tail}{}",
        workload.name(),
        args.seed,
        per_rep.len(),
        timed_ns as f64 / 1e9,
        started.elapsed().as_secs_f64(),
        if args.smoke {
            " SMOKE (op counts / 50, 1 rep)"
        } else {
            ""
        }
    );
    println!(
        "{:<26} {:>16} {:>16} {:>16} {:>3}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for (m, s) in END_TO_END.iter().zip(&summaries) {
        println!(
            "{:<26} {:>16.4} {:>16.4} {:>16.4} {:>3}  {}",
            m.name, s.median, s.q1, s.q3, s.n, m.unit
        );
    }
    let ungated = [
        ("virt.op_p50_us", "us", Summary::of(&[p50_us])),
        ("host.raw_ops_per_s", "1/s", Summary::of(&raw_ops)),
        ("host.mem_speed", "ratio", mem_speed),
    ];
    for (name, unit, s) in &ungated {
        println!(
            "{:<26} {:>16.4} {:>16.4} {:>16.4} {:>3}  {unit}  (not gated)",
            name, s.median, s.q1, s.q3, s.n
        );
    }
    println!(
        "ops_attempted {attempted}  ops_failed {failed}  exact counts {}",
        fingerprint.render()
    );
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let detail = Json::obj([
        ("workload", Json::str(workload.name())),
        ("correct", Json::Bool(correct)),
        ("reps", Json::Num(per_rep.len() as f64)),
        ("ops_attempted", Json::Num(attempted as f64)),
        ("ops_failed", Json::Num(failed as f64)),
        ("op_samples", Json::Num(samples as f64)),
        ("tail_quantile", Json::Num(tail)),
        ("exact", fingerprint),
        ("errors", Json::Arr(errors.iter().map(Json::str).collect())),
        (
            "ungated",
            Json::obj(
                ungated
                    .iter()
                    .map(|(name, unit, s)| (*name, summary_json(s, unit))),
            ),
        ),
        (
            "end_to_end",
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(&summaries)
                    .map(|(m, s)| (m.name, summary_json(s, m.unit))),
            ),
        ),
    ]);
    println!("DETAIL {}", detail.render());
    let line = END_TO_END
        .iter()
        .zip(&summaries)
        .map(|(m, s)| {
            let v = Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(m.unit))]);
            (m.name.to_string(), v)
        })
        .collect();
    println!("{}", contract_line(correct, attempted, failed, line));
    0
}

/// The workload's key stream for the lower-module probes: paths in
/// op-list order.
fn probe_keys(workload: Workload, args: &Args) -> Vec<String> {
    let inputs = gen::generate(workload, args.seed, div(args));
    let mut keys = Vec::with_capacity(PROBE_KEYS);
    for op in inputs.phases.iter().flatten().flatten() {
        match op {
            workloads::FsOp::Create(p, _) | workloads::FsOp::Stat(p) => keys.push(p.clone()),
            workloads::FsOp::StatMany(ps) => keys.extend(ps.iter().cloned()),
            _ => {}
        }
        if keys.len() >= PROBE_KEYS {
            break;
        }
    }
    keys.truncate(PROBE_KEYS);
    keys
}

fn traced_rep(workload: Workload, args: &Args, capacity: usize) -> (Rep, Tracer) {
    let tracer = Rc::new(RefCell::new(Tracer::with_capacity(capacity)));
    let probe = Probe {
        tracer: Some(Rc::clone(&tracer)),
        record_steps: false,
    };
    let wal_dir = bed::wal_dir(&args.out_dir, workload, 1);
    let rep = bed::run_rep(workload, args.seed, div(args), &probe, &wal_dir);
    drop(probe);
    let tracer = Rc::try_unwrap(tracer)
        .ok()
        .expect("every process released the tracer");
    (rep, tracer.into_inner())
}

/// Host ns per create inside a traced `create_storm` rep.
fn create_hns(tracer: &Tracer) -> f64 {
    let create = workloads::FsOp::Create(String::new(), 0).class();
    let ns: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == trace::SpanName::ClientExec && s.class as u16 == create)
        .map(|s| s.end - s.start)
        .sum();
    ns as f64 / tracer.class_ops[create as usize].max(1) as f64
}

/// Per-layer metrics: one untraced reference rep, one rep with spans on,
/// one rep that records every step for the engine-only replay, and the
/// lower-module probes.
fn traced_pass(workload: Workload, args: &Args) -> i32 {
    let started = Instant::now();
    let mut errors: Vec<String> = Vec::new();
    let plain = bed::run_rep(
        workload,
        args.seed,
        div(args),
        &Probe::default(),
        &bed::wal_dir(&args.out_dir, workload, 0),
    );
    // Every job and every worker step is one span; each takes at least
    // two engine events.
    let capacity = plain.events as usize / 2 + 4096;
    let (traced, tracer) = traced_rep(workload, args, capacity);
    if tracer.spans.len() > capacity {
        errors.push(format!(
            "span buffer grew past its {capacity} preallocated entries"
        ));
    }
    let mut recording = bed::run_rep(
        workload,
        args.seed,
        div(args),
        &Probe {
            tracer: None,
            record_steps: true,
        },
        &bed::wal_dir(&args.out_dir, workload, 2),
    );
    let (replayed, replay_ns) = bed::replay(std::mem::take(&mut recording.recorded));
    if replayed.events_dispatched != recording.run.events_dispatched
        || replayed.makespan_ns != recording.run.makespan_ns
    {
        errors.push(format!(
            "engine-only replay dispatched {} events to {} ns, the recorded run {} to {} ns",
            replayed.events_dispatched,
            replayed.makespan_ns,
            recording.run.events_dispatched,
            recording.run.makespan_ns
        ));
    }
    for (what, rep) in [
        ("untraced", &plain),
        ("traced", &traced),
        ("recording", &recording),
    ] {
        errors.extend(rep.errors.iter().map(|e| format!("{what} rep: {e}")));
        if rep.fingerprint() != plain.fingerprint() {
            errors.push(format!(
                "the {what} rep differs from the untraced one on the virtual clock"
            ));
        }
    }

    // `create_storm` reference for the two cross-workload ratios.
    let (storm_create_hns, storm_hns_per_op) = match workload {
        Workload::CreateStorm => (
            create_hns(&tracer),
            plain.timed_ns as f64 / plain.attempted as f64,
        ),
        Workload::StatHot => (0.0, 0.0),
        Workload::ColdEvict => {
            let (_, storm) = traced_rep(Workload::CreateStorm, args, capacity.max(1 << 20));
            (create_hns(&storm), 0.0)
        }
        Workload::DurableRecover => {
            let storm = bed::run_rep(
                Workload::CreateStorm,
                args.seed,
                div(args),
                &Probe::default(),
                &args.out_dir,
            );
            (0.0, storm.timed_ns as f64 / storm.attempted as f64)
        }
    };
    let probes = Probes::run(&probe_keys(workload, args), &args.out_dir);
    let values = metrics::per_layer(&TracedPass {
        workload,
        plain: &plain,
        traced: &traced,
        tracer: &tracer,
        replay: (replayed.events_dispatched, replay_ns),
        storm_create_hns,
        storm_hns_per_op,
        probes: &probes,
    });
    let trace_file = args
        .out_dir
        .join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = tracer.write_jsonl(&trace_file) {
        errors.push(format!("writing {}: {e}", trace_file.display()));
    }
    let correct = errors.is_empty();

    println!(
        "# {} seed={} traced pass, {} spans -> {} wall={:.1}s{}",
        workload.name(),
        args.seed,
        tracer.spans.len(),
        trace_file.display(),
        started.elapsed().as_secs_f64(),
        if args.smoke { " SMOKE" } else { "" }
    );
    for (m, v) in PER_LAYER.iter().zip(&values) {
        println!("{:<44} {:>18.4}  {}", m.name, v, m.unit);
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let metrics_json: Vec<(String, Json)> = PER_LAYER
        .iter()
        .zip(&values)
        .map(|(m, v)| {
            let v = Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]);
            (m.name.to_string(), v)
        })
        .collect();
    let detail = Json::obj([
        ("workload", Json::str(workload.name())),
        ("correct", Json::Bool(correct)),
        ("errors", Json::Arr(errors.iter().map(Json::str).collect())),
        ("per_layer", Json::Obj(metrics_json.clone())),
    ]);
    println!("DETAIL {}", detail.render());
    println!(
        "{}",
        contract_line(correct, traced.attempted, traced.failed, metrics_json)
    );
    0
}
