//! Suite mode: every workload in its own child process, the result file,
//! `--compare` and `--self-check`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::gen::Workload;
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{judge, Summary, Verdict};
use crate::Args;

/// Run one workload pass in a child process (so `VmHWM` is the
/// workload's own), echo its report, and return its DETAIL object.
fn child(args: &Args, workload: Workload, seed: u64, trace: bool, smoke: bool) -> Json {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn the workload's child process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    let lines: Vec<&str> = stdout.lines().collect();
    // The last line is the driver's result object; suite mode reads the
    // richer DETAIL line instead.
    for line in &lines[..lines.len().saturating_sub(1)] {
        match line.strip_prefix("DETAIL ") {
            Some(d) => detail = Json::parse(d).ok(),
            None => println!("{line}"),
        }
    }
    detail.unwrap_or_else(|| {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        Json::obj([
            ("workload", Json::str(workload.name())),
            ("correct", Json::Bool(false)),
            (
                "errors",
                Json::Arr(vec![Json::str(format!("child exited with {}", out.status))]),
            ),
        ])
    })
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// File system type holding `path`, from the longest matching mount
/// point (where the commit logs of `durable_recover` live).
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
        .unwrap_or_else(|| "unknown".into())
}

fn collect(args: &Args, seed: u64, trace: bool, smoke: bool) -> (Json, bool) {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut detail = child(args, w, seed, false, smoke);
        let mut correct = detail
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        if trace {
            let traced = child(args, w, seed, true, smoke);
            correct &= traced
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if let (Json::Obj(fields), Some(layers)) = (&mut detail, traced.get("per_layer")) {
                fields.push(("per_layer".into(), layers.clone()));
                let errs = traced
                    .get("errors")
                    .map(|e| e.items().to_vec())
                    .unwrap_or_default();
                fields.push(("trace_errors".into(), Json::Arr(errs)));
            }
        }
        println!();
        all_correct &= correct;
        workloads.push((w.name().to_string(), detail));
    }
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let results = Json::obj([
        ("schema", Json::Num(1.0)),
        ("git_rev", Json::str(git_rev())),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::Num(nproc as f64)),
        ("wal_fs", Json::str(fs_type(&args.out_dir))),
        ("workloads", Json::Obj(workloads)),
    ]);
    (results, all_correct)
}

/// Run every workload once (twice with `--trace`), write the result
/// file, and return the exit code: non-zero on a wrong output.
pub fn run(args: &Args) -> i32 {
    let (results, correct) = collect(args, args.seed, args.trace, args.smoke);
    let path = args.out.clone().unwrap_or_else(|| {
        let smoke = if args.smoke { "-smoke" } else { "" };
        args.out_dir
            .join(format!("results-seed{}{smoke}.json", args.seed))
    });
    std::fs::write(&path, results.pretty()).expect("write the result file");
    println!("results written to {}", path.display());
    if !correct {
        println!("FAILED: at least one output check did not hold");
    }
    if correct {
        0
    } else {
        1
    }
}

fn summary_of(metric: &Json) -> Option<Summary> {
    Some(Summary {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        n: metric.get("n")?.as_f64()? as usize,
    })
}

/// One row per workload x end-to-end metric; returns how many rows were
/// `worse` and how many `unresolved`.
pub fn compare(a: &Json, b: &Json) -> (usize, usize) {
    let (mut worse, mut unresolved) = (0, 0);
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "A iqr", "bound"
    );
    for w in Workload::ALL {
        let of = |set: &Json, metric: &str| {
            set.get("workloads")?
                .get(w.name())?
                .get("end_to_end")?
                .get(metric)
                .and_then(summary_of)
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (of(a, m.name), of(b, m.name)) else {
                println!(
                    "{:<16} {:<24} missing from one of the sets  unresolved",
                    w.name(),
                    m.name
                );
                unresolved += 1;
                continue;
            };
            let verdict = judge(&sa, &sb, m.better, m.bound);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<16} {:<24} {:>16.4} {:>16.4} {:>+7.2}% {:>6.2}% {:>6.1}%  {}",
                w.name(),
                m.name,
                sa.median,
                sb.median,
                (sb.median / sa.median - 1.0) * 100.0,
                sa.spread() * 100.0,
                m.bound * 100.0,
                verdict.label()
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    (worse, unresolved)
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        std::process::exit(2)
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        std::process::exit(2)
    })
}

/// `--compare A.json B.json`: non-zero exit on any `worse` row.
pub fn compare_files(a: &Path, b: &Path) -> i32 {
    let (worse, _) = compare(&load(a), &load(b));
    if worse > 0 {
        1
    } else {
        0
    }
}

fn exact_counts(set: &Json, w: Workload) -> Option<Json> {
    set.get("workloads")?.get(w.name())?.get("exact").cloned()
}

/// `--self-check`: two complete sets of runs of this build with the same
/// seed must agree within the benchmark's own bounds (no `worse`, no
/// `unresolved`) and be bit-identical on the virtual clock; a smoke-sized
/// pair shows that another seed changes the inputs.
pub fn self_check(args: &Args) -> i32 {
    let out = |tag: &str| -> PathBuf { args.out_dir.join(format!("self-check-{tag}.json")) };
    let mut failures = 0;
    let mut sets = Vec::new();
    for tag in ["a", "b"] {
        println!("== self-check: set {tag} ==");
        let (set, correct) = collect(args, args.seed, false, args.smoke);
        std::fs::write(out(tag), set.pretty()).expect("write the self-check set");
        if !correct {
            println!("FAILED: set {tag} has a wrong output");
            failures += 1;
        }
        sets.push(set);
    }
    let (worse, unresolved) = compare(&sets[0], &sets[1]);
    failures += worse + unresolved;
    for w in Workload::ALL {
        if exact_counts(&sets[0], w) != exact_counts(&sets[1], w) {
            println!(
                "FAILED: {} is not bit-identical on the virtual clock between the sets",
                w.name()
            );
            failures += 1;
        }
    }
    println!(
        "== self-check: seed {} vs seed {} (smoke-sized) ==",
        args.seed,
        args.seed + 1
    );
    let (this_seed, _) = collect(args, args.seed, false, true);
    let (other_seed, _) = collect(args, args.seed + 1, false, true);
    for w in Workload::ALL {
        if exact_counts(&this_seed, w) == exact_counts(&other_seed, w) {
            println!(
                "FAILED: {} gives the same virtual results for two seeds",
                w.name()
            );
            failures += 1;
        }
    }
    if failures == 0 {
        println!("self-check passed");
        0
    } else {
        println!("self-check FAILED ({failures} problems)");
        1
    }
}
