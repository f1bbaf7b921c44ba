//! R3 (wall-clock ban) coverage of the event-engine hot path.
//!
//! The radix-heap scheduler, the raw scheduler churn bench and the latency
//! histograms are the code most tempted to reach for `Instant::now()` —
//! the first two because they exist to be timed, the histograms because
//! they talk about latency. All three live in deterministic sim crates
//! where wall clocks would break trace equivalence, so this test pins
//! both directions on the *real* sources:
//!
//! 1. the checked-in files carry zero R3 findings and zero
//!    `lint: allow` markers, and
//! 2. the rule actually covers them — a wall-clock call injected into
//!    each file fires R3 (coverage, not silence-by-accident).

use tools_lint::{analyze, Rule};

/// The hot-path files under the wall-clock ban, repo-relative.
const COVERED: &[&str] = &[
    "crates/qsim/src/radix.rs",
    "crates/qsim/src/sched_bench.rs",
    "crates/qsim/src/engine.rs",
    "crates/simnet/src/stats.rs",
];

fn repo_file(rel: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    std::fs::read_to_string(format!("{root}/{rel}"))
        .unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

#[test]
fn engine_hot_path_is_wall_clock_clean_with_no_allow_markers() {
    for rel in COVERED {
        let src = repo_file(rel);
        assert!(
            !src.contains("lint: allow"),
            "{rel}: the event-engine hot path must not carry allow markers"
        );
        let a = analyze(&[(rel.to_string(), src)]).expect("source parses");
        let r3: Vec<_> = a.findings.iter().filter(|f| f.rule == Rule::R3WallClock).collect();
        assert!(r3.is_empty(), "{rel}: unexpected R3 findings {r3:?}");
    }
}

#[test]
fn injected_wall_clock_in_engine_hot_path_fires_r3() {
    for rel in COVERED {
        let mut src = repo_file(rel);
        if !src.ends_with('\n') {
            src.push('\n');
        }
        // The injection lands on the first line past the current text.
        let injected_line = src.lines().count() + 1;
        src.push_str("fn injected_probe() -> std::time::Duration { std::time::Instant::now().elapsed() }\n");
        let a = analyze(&[(rel.to_string(), src)]).expect("source still parses");
        let r3: Vec<_> = a.findings.iter().filter(|f| f.rule == Rule::R3WallClock).collect();
        assert_eq!(
            r3.len(),
            1,
            "{rel}: injected Instant::now() must fire exactly one R3 finding, got {r3:?}"
        );
        assert_eq!(r3[0].line, injected_line, "{rel}: finding must point at the injection");
    }
}
