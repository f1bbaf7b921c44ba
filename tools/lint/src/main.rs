#![forbid(unsafe_code)]
//! Analyzer driver: `cargo run -p tools-lint` from anywhere in the
//! workspace. Exits non-zero on any finding.
//!
//! Flags:
//! - `--json PATH` — write the full analysis (findings, unwrap counts,
//!   lock graph, stats) as JSON.
//! - `--dot PATH` — write the static lock graph in Graphviz DOT form
//!   (CI diffs this against the checked-in `docs/lock_graph.dot`).
//! - `--write-allowlist` — regenerate `tools/lint/unwrap_allowlist.txt`
//!   from the current tree (use only when deleting unwraps, never to
//!   admit new ones).
//!
//! Two budgets are compared exactly on every run: `.unwrap()` per file
//! (`unwrap_allowlist.txt`) and `lint: allow(..)` markers per slug
//! (`allow_budget.txt`, edited by hand when a marker is removed).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tools_lint::{analyze, budget_mismatches, collect_workspace, dot, parse_allowlist, to_json};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_allowlist = args.iter().any(|a| a == "--write-allowlist");
    let flag_path = |name: &str| -> Option<PathBuf> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(PathBuf::from)
    };
    let json_path = flag_path("--json");
    let dot_path = flag_path("--dot");

    let root = repo_root();
    let allowlist_path = root.join("tools/lint/unwrap_allowlist.txt");
    let started = Instant::now();

    let files = match collect_workspace(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let analysis = match analyze(&files) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint: parse failure: {e}");
            return ExitCode::FAILURE;
        }
    };

    if write_allowlist {
        let mut out = String::from(
            "# Per-file .unwrap() budgets for core-crate library code (lint rule R4).\n\
             # Format: `count path`. This list may shrink, never grow: remove\n\
             # entries as unwraps are eliminated. Regenerate with\n\
             # `cargo run -p tools-lint -- --write-allowlist` ONLY after deleting\n\
             # unwraps, never to admit new ones.\n",
        );
        for (file, count) in &analysis.unwrap_counts {
            out.push_str(&format!("{count} {file}\n"));
        }
        if let Err(e) = std::fs::write(&allowlist_path, out) {
            eprintln!("lint: cannot write allowlist: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "lint: wrote {} entries to {}",
            analysis.unwrap_counts.len(),
            allowlist_path.display()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(p) = &json_path {
        if let Err(e) = std::fs::write(p, to_json(&analysis)) {
            eprintln!("lint: cannot write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(p) = &dot_path {
        if let Err(e) = std::fs::write(p, dot(&analysis.graph)) {
            eprintln!("lint: cannot write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }

    // R4 and the `lint: allow` markers: each count must equal its
    // checked-in budget (over, under, and stale entries all fail — a
    // budget matches the tree exactly, so it only ever shrinks).
    let mut budget_errors = Vec::new();
    for (rule, path, found, unit, advice) in [
        (
            "R4 unwrap",
            &allowlist_path,
            &analysis.unwrap_counts,
            "`.unwrap()` calls in library code",
            "handle the error or use expect with an invariant message",
        ),
        (
            "allow budget",
            &root.join("tools/lint/allow_budget.txt"),
            &analysis.allow_counts,
            "`lint: allow(..)` markers",
            "fix the site the new marker excuses",
        ),
    ] {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let budget: BTreeMap<String, usize> = match parse_allowlist(&text) {
            Ok(entries) => entries.into_iter().collect(),
            Err(e) => {
                eprintln!("lint: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        for (key, found, budget) in budget_mismatches(found, &budget) {
            budget_errors.push(if found > budget {
                format!("[{rule}] {key}: {found} {unit} (budget {budget}) — {advice}")
            } else {
                format!(
                    "[{rule}] {key}: budget {budget} but only {found} remain — shrink or \
                     remove the entry (a budget may never overshoot)"
                )
            });
        }
    }

    for f in &analysis.findings {
        eprintln!("lint: {f}");
    }
    for e in &budget_errors {
        eprintln!("lint: {e}");
    }
    let elapsed = started.elapsed();
    let s = &analysis.stats;
    let total = analysis.findings.len() + budget_errors.len();
    if total > 0 {
        eprintln!(
            "lint: {total} finding(s) — {} files, {} fns, {} lock classes, {} edges ({:.2?})",
            s.files,
            s.fns,
            analysis.graph.nodes.len(),
            analysis.graph.edges.len(),
            elapsed
        );
        ExitCode::FAILURE
    } else {
        println!(
            "lint: clean — {} files, {} fns, {} lock classes, {} edges, {} acq sites \
             ({} unresolved) in {:.2?}",
            s.files,
            s.fns,
            analysis.graph.nodes.len(),
            analysis.graph.edges.len(),
            s.acq_sites,
            s.unresolved_acqs,
            elapsed
        );
        ExitCode::SUCCESS
    }
}

/// Repo root = two levels above this crate's manifest (tools/lint).
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("tools/lint lives two levels below the repo root")
        .to_path_buf()
}
