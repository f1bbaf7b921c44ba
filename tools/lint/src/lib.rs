#![forbid(unsafe_code)]
//! Repo-wide concurrency lint, v2: a static protocol analyzer built on
//! the vendored `proc-macro2`/`syn` stand-ins instead of line matching.
//!
//! The engine parses every workspace source file into an item-level
//! AST, walks function bodies into event streams (scopes, statements,
//! loops, lock acquisitions, calls, drops), resolves calls through an
//! intra-workspace call graph, and from that computes the static
//! may-hold-while-acquiring relation over syncguard lock classes. On
//! top of the same facts it enforces:
//!
//! - **R1 direct-lock** — no `std::sync` / `parking_lot` lock use
//!   outside `crates/syncguard`: every lock must declare a level.
//! - **R2 lock-unwrap** — no `.lock().unwrap()` / `.read().expect(..)`
//!   patterns: syncguard locks are non-poisoning.
//! - **R3 wall-clock** — no `Instant::now()` / `SystemTime` inside
//!   `qsim`/`simnet` library code (virtual time only).
//! - **R4 unwrap** — `.unwrap()` budget per file in the core crates,
//!   checked against `unwrap_allowlist.txt` (shrink-only).
//! - **R5 per-key-get** — no per-key `cache.get`/`kv.get` in loop
//!   bodies in `pacon` (use the batched `multi_get` path).
//! - **R6 hold-across-blocking** — no send/recv/fsync-class call while
//!   a syncguard guard is live, found via the call graph, unless
//!   wrapped in `syncguard::permit_blocking`.
//! - **R7 commit-path** — no dfs mutation from `pacon` outside the
//!   `apply_batch`/`write_idempotent`/replay entry points.
//! - **R8 retry-loop** — no cache/kv data-plane call (`get`, `put`,
//!   `cas`, … — every one is fallible) retried in a `while`/`loop`
//!   without a bounded budget and backoff (`RetryPolicy::next_backoff`)
//!   in core-crate library code.
//! - **R9 stale-owner** — no `shard_node(..)` lookup outside `memkv`
//!   in a function that never re-checks `ring_epoch()`: a live reshard
//!   can remap the key after the lookup, so cached owners must be
//!   epoch-validated.
//! - **lock-order** — every static hold-while-acquiring edge must
//!   descend the level hierarchy declared in
//!   `crates/syncguard/src/level.rs`; inversions report both sites.
//!
//! Deliberate exceptions carry `// lint: allow(<slug>)` on or directly
//! above the line; how many each slug may have is budgeted in
//! `allow_budget.txt` (shrink-only, like R4's). Test code — `#[cfg(test)]` items, `#[test]` fns, and
//! anything under `tests/`, `benches/` or `examples/` — is exempt from
//! every rule, excluded structurally from the AST walk.

mod emit;
mod extract;
mod graph;
mod model;
mod resolve;
mod rules;

use std::collections::BTreeMap;

pub use extract::{crate_of, extract, is_test_path, FileFacts};
pub use graph::dot;
pub use model::{
    Acq, AcqMode, Analysis, Base, Call, Event, Finding, FnFacts, GraphEdge, Link, LockDecl,
    LockGraph, Rule, Site, Stats, CORE_CRATES, DETERMINISTIC_CRATES,
};
pub use resolve::Workspace;

pub use emit::to_json;

/// Directories scanned for `.rs` files, relative to the repo root.
/// `vendor/` (third-party stand-ins) and `tools/` (this analyzer — its
/// rule patterns appear literally in its own source) are deliberately
/// absent; `tests/`, `benches/` and `examples/` subtrees are exempt
/// from every rule and skipped during collection.
pub const SCAN_ROOTS: &[&str] = &["crates", "src"];

/// Collect every workspace source file under `root`'s scan roots as
/// `(repo-relative path, source)` pairs, sorted by path — the exact
/// input set the driver feeds [`analyze`].
pub fn collect_workspace(root: &std::path::Path) -> Result<Vec<(String, String)>, String> {
    let mut paths = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    let mut files = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .expect("scanned file under root")
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {rel}: {e}"))?;
        files.push((rel, source));
    }
    Ok(files)
}

fn collect_rs_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && name != "tests" && name != "benches" && name != "examples" {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Analyze a whole workspace: `files` are `(repo-relative path, source)`
/// pairs. Test paths are skipped. Returns every finding except R4,
/// which is reported as per-file counts for the driver's budget check.
pub fn analyze(files: &[(String, String)]) -> Result<Analysis, String> {
    let mut facts: Vec<FileFacts> = Vec::new();
    for (rel, source) in files {
        if is_test_path(rel) {
            continue;
        }
        let f = extract(rel, source).map_err(|e| format!("{rel}: {e}"))?;
        facts.push(f);
    }
    facts.sort_by(|a, b| a.rel.cmp(&b.rel));

    let mut analysis = Analysis::default();
    for f in &facts {
        let (mut token_findings, unwraps) = rules::token_rules(f);
        analysis.findings.append(&mut token_findings);
        if unwraps > 0 {
            analysis.unwrap_counts.insert(f.rel.clone(), unwraps);
        }
        for slug in &f.markers {
            *analysis.allow_counts.entry(slug.clone()).or_default() += 1;
        }
        analysis.findings.append(&mut rules::r5(f));
        analysis.findings.append(&mut rules::r8(f));
        analysis.findings.append(&mut rules::r9(f));
    }

    let ws = Workspace::build(&facts);
    let by_rel: BTreeMap<&str, &FileFacts> =
        facts.iter().map(|f| (f.rel.as_str(), f)).collect();
    let allows = |file: &str, line: usize, slug: &str| {
        by_rel.get(file).is_some_and(|f| f.allows(line, slug))
    };
    analysis.findings.append(&mut rules::r7(&ws, &allows));
    let g = graph::build(&ws, &allows);
    analysis.findings.extend(g.findings);
    analysis.graph = g.graph;

    analysis.stats = Stats {
        files: facts.len(),
        fns: ws.fns.len(),
        lock_decls: ws.decls.len(),
        acq_sites: ws.fns.iter().map(|f| f.acqs.len()).sum(),
        unresolved_acqs: ws.unresolved_acqs,
    };
    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message)));
    Ok(analysis)
}

/// Single-file convenience used by the rule tests: token rules plus R5,
/// with R4 reported as one finding per `.unwrap()` (matching the v1
/// interface). Cross-file passes (R6/R7/lock-order) need
/// [`analyze`].
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    if is_test_path(rel_path) {
        return Vec::new();
    }
    let Ok(facts) = extract(rel_path, source) else {
        return Vec::new();
    };
    let (mut findings, unwraps) = rules::token_rules(&facts);
    findings.append(&mut rules::r5(&facts));
    findings.append(&mut rules::r8(&facts));
    findings.append(&mut rules::r9(&facts));
    for _ in 0..unwraps {
        findings.push(Finding {
            rule: Rule::R4Unwrap,
            file: rel_path.to_string(),
            line: 0,
            message: "`.unwrap()` in core-crate library code".to_string(),
            related: Vec::new(),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Compare counts found in the tree with a checked-in budget (both
/// keyed the same way). A budget must match the tree exactly, so it can
/// shrink with the tree and never grow ahead of it: every key whose two
/// numbers differ comes back as `(key, found, budget)` — over budget,
/// under budget, and entries for things that are gone alike.
pub fn budget_mismatches(
    found: &BTreeMap<String, usize>,
    budget: &BTreeMap<String, usize>,
) -> Vec<(String, usize, usize)> {
    let keys: std::collections::BTreeSet<&String> = found.keys().chain(budget.keys()).collect();
    keys.into_iter()
        .filter_map(|k| {
            let (f, b) = (found.get(k).copied().unwrap_or(0), budget.get(k).copied().unwrap_or(0));
            (f != b).then(|| (k.clone(), f, b))
        })
        .collect()
}

/// Parse a budget file (`unwrap_allowlist.txt`, `allow_budget.txt`):
/// `count<space>key` per line, `#` comments and blank lines ignored.
pub fn parse_allowlist(text: &str) -> Result<Vec<(String, usize)>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (count, path) = line
            .split_once(' ')
            .ok_or_else(|| format!("allowlist line {}: expected `count path`", i + 1))?;
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count `{count}`", i + 1))?;
        entries.push((path.trim().to_string(), count));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn r1_fires_on_direct_parking_lot() {
        let src = "use parking_lot::Mutex;\nfn f() { let m = parking_lot::Mutex::new(0); }\n";
        let f = lint_source("crates/mq/src/bad.rs", src);
        assert!(f.iter().all(|f| f.rule == Rule::R1DirectLock));
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn r1_fires_on_std_sync_lock() {
        let src = "use std::sync::{Arc, Mutex};\n";
        let f = lint_source("crates/pacon/src/bad.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::R1DirectLock]);
        // Arc alone is fine.
        let ok = lint_source("crates/pacon/src/good.rs", "use std::sync::Arc;\n");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn r1_exempts_syncguard() {
        let src = "use parking_lot as pl;\n";
        assert!(lint_source("crates/syncguard/src/checked.rs", src).is_empty());
    }

    #[test]
    fn r2_fires_on_lock_unwrap() {
        let src = "fn f(m: &std::sync::Mutex<u32>) { *m.lock().unwrap() += 1; }\n";
        let f = lint_source("src/thing.rs", src);
        assert!(rules_of(&f).contains(&Rule::R2LockUnwrap), "{f:?}");
        let src2 = "fn g() { let _ = RW.write().expect(\"poisoned\"); }\n";
        let f2 = lint_source("src/thing.rs", src2);
        assert_eq!(rules_of(&f2), vec![Rule::R2LockUnwrap]);
    }

    #[test]
    fn r3_fires_only_in_deterministic_crates() {
        let src = "fn now() -> std::time::Instant { Instant::now() }\n";
        let f = lint_source("crates/qsim/src/engine.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::R3WallClock]);
        assert!(lint_source("crates/mq/src/queue.rs", src).is_empty());
    }

    #[test]
    fn r4_counts_each_unwrap() {
        let src = "fn f() { a().unwrap(); b().unwrap(); }\n";
        let f = lint_source("crates/memkv/src/shard.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == Rule::R4Unwrap));
        // Non-core crates are not under R4.
        assert!(lint_source("crates/qsim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn r5_fires_on_per_key_get_loops_in_pacon() {
        let src = "\
fn warm(cache: &MetaCache, keys: &[&str]) {
    for key in keys {
        let _ = cache.get(key);
    }
}
";
        let f = lint_source("crates/pacon/src/bad.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::R5PerKeyGetLoop], "{f:?}");
        assert_eq!(f[0].line, 3);
        // Other crates may loop over their own stores freely.
        assert!(lint_source("crates/memkv/src/cluster.rs", src).is_empty());
    }

    #[test]
    fn r5_spares_non_loop_gets_and_marked_lines() {
        let straight = "fn one(cache: &MetaCache) { let _ = cache.get(\"/p\"); }\n";
        assert!(lint_source("crates/pacon/src/ok.rs", straight).is_empty());
        let marked = "\
fn baseline(kv: &KvClient, keys: &[&[u8]]) {
    for key in keys {
        let _ = kv.get(key); // lint:allow-per-key-get — ablation baseline
    }
}
";
        assert!(lint_source("crates/pacon/src/ok.rs", marked).is_empty());
        // The modern marker spelling, on the line above.
        let marked2 = "\
fn baseline(kv: &KvClient, keys: &[&[u8]]) {
    for key in keys {
        // lint: allow(per-key-get) — ablation baseline
        let _ = kv.get(key);
    }
}
";
        assert!(lint_source("crates/pacon/src/ok.rs", marked2).is_empty());
        // `.for_each`, identifiers containing `for`, and `impl Trait
        // for Type` blocks are not loop headers.
        let not_a_loop = "fn f(c: &C) { let x = wait_for (c); c.cache.get(\"/p\"); }\n";
        assert!(lint_source("crates/pacon/src/ok.rs", not_a_loop).is_empty());
        let impl_block = "\
impl FileSystem for PaconClient {
    fn stat(&self, path: &str) -> FsResult<FileStat> {
        match self.cache.get(path) {
            Some((m, _)) => Ok(m.to_stat()),
            None => self.load(path),
        }
    }
}
";
        assert!(lint_source("crates/pacon/src/ok.rs", impl_block).is_empty());
    }

    #[test]
    fn r5_sees_single_line_and_while_loops() {
        let one_liner = "fn f(c: &C, ks: &[K]) { for k in ks { c.kv.get(k); } }\n";
        let f = lint_source("crates/pacon/src/bad.rs", one_liner);
        assert_eq!(rules_of(&f), vec![Rule::R5PerKeyGetLoop], "{f:?}");
        let wloop = "\
fn f(c: &C) {
    while busy() {
        c.kv().get(b\"k\");
    }
}
";
        // A `while` has no structural bound, so the same call is also an
        // unbounded retry now that `get` is the fallible surface.
        let f = lint_source("crates/pacon/src/bad.rs", wloop);
        assert_eq!(
            rules_of(&f),
            vec![Rule::R5PerKeyGetLoop, Rule::R8UnboundedRetryLoop],
            "{f:?}"
        );
    }

    #[test]
    fn r5_while_let_body_is_a_loop_but_match_is_not() {
        // v1's line-based loop mask misread `while let` headers; the
        // AST walker must see the body as a loop…
        let wl = "\
fn f(c: &C, it: &mut I) {
    while let Some(k) = it.next() {
        c.kv.get(k);
    }
}
";
        let f = lint_source("crates/pacon/src/bad.rs", wl);
        assert_eq!(
            rules_of(&f),
            vec![Rule::R5PerKeyGetLoop, Rule::R8UnboundedRetryLoop],
            "{f:?}"
        );
        // …and a `match` arm after a loop keyword in a string is not.
        let not_loop = "\
fn g(c: &C) {
    let s = \"for x in y {\";
    c.cache.get(s);
}
";
        assert!(lint_source("crates/pacon/src/ok.rs", not_loop).is_empty());
    }

    #[test]
    fn raw_strings_and_braces_in_literals_do_not_confuse_the_walker() {
        // v1's strip_noncode mishandled raw strings; braces and quotes
        // inside them skewed the depth counters.
        let src = "\
fn f(c: &C) {
    let pat = r#\"weird { \" } parking_lot::Mutex .unwrap() \"#;
    let ch = '{';
    c.cache.get(pat);
}
";
        let f = lint_source("crates/pacon/src/ok.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // And test-exemption still ends at the right brace afterwards.
        let src2 = "\
#[cfg(test)]
mod tests {
    fn t() { let s = r#\"}}}\"#; y.unwrap(); }
}

fn lib() { z.unwrap(); }
";
        let f2 = lint_source("crates/mq/src/queue.rs", src2);
        assert_eq!(f2.len(), 1, "{f2:?}");
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "\
fn lib() {}

#[cfg(test)]
mod tests {
    use parking_lot::Mutex;
    #[test]
    fn t() {
        x.lock().unwrap();
        y.unwrap();
    }
}
";
        let f = lint_source("crates/mq/src/queue.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_fns_inside_library_impls_are_exempt() {
        let src = "\
impl Thing {
    fn lib(&self) { self.a.lock(); }
    #[cfg(test)]
    fn helper(&self) { x.lock().unwrap(); use_of(parking_lot::Mutex::new(0)); }
}
";
        let f = lint_source("crates/mq/src/queue.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn code_after_cfg_test_block_is_linted_again() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}

fn lib() { z.unwrap(); }
";
        let f = lint_source("crates/mq/src/queue.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn integration_tests_and_benches_are_exempt() {
        let src = "fn t() { a.lock().unwrap(); }\nuse parking_lot::Mutex;\n";
        assert!(lint_source("crates/mq/tests/stress.rs", src).is_empty());
        assert!(lint_source("tests/smoke.rs", src).is_empty());
        assert!(lint_source("crates/bench/benches/b.rs", src).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "\
// parking_lot::Mutex is banned; .lock().unwrap() too
fn f() { println!(\"parking_lot::Mutex .unwrap()\"); }
";
        let f = lint_source("crates/mq/src/queue.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let text = "# comment\n3 crates/mq/src/queue.rs\n\n1 src/lib.rs\n";
        let e = parse_allowlist(text).unwrap();
        assert_eq!(
            e,
            vec![
                ("crates/mq/src/queue.rs".to_string(), 3),
                ("src/lib.rs".to_string(), 1)
            ]
        );
        assert!(parse_allowlist("nonsense line").is_err());
        assert!(parse_allowlist("x path").is_err());
    }
}
