//! Seeded-violation fixtures: one deliberately broken source per rule
//! R1–R7 plus a two-lock inversion and a try-lock, fed through the full `analyze`
//! pipeline under virtual repo paths. Each test asserts the rule fires
//! at the seeded line — and, for the inversion, that the finding
//! carries BOTH sites (acquire site + holder site via `related`).

use std::collections::BTreeMap;

use tools_lint::{analyze, budget_mismatches, parse_allowlist, Analysis, Rule};

fn fixture(name: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures");
    std::fs::read_to_string(format!("{dir}/{name}")).expect("fixture readable")
}

/// Run `analyze` over fixtures mapped to virtual repo-relative paths.
fn run(files: &[(&str, &str)]) -> Analysis {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(rel, fixture_name)| (rel.to_string(), fixture(fixture_name)))
        .collect();
    analyze(&files).expect("fixtures parse")
}

fn lines_of(a: &Analysis, rule: Rule) -> Vec<usize> {
    a.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn r1_direct_lock_fixture_fires() {
    let a = run(&[("crates/pacon/src/fix_r1.rs", "r1_direct_lock.rs")]);
    // One finding per offending line: the std::sync import and the
    // parking_lot import.
    assert_eq!(lines_of(&a, Rule::R1DirectLock), vec![3, 4], "{:?}", a.findings);
}

#[test]
fn r2_lock_unwrap_fixture_fires() {
    let a = run(&[("crates/qsim/src/fix_r2.rs", "r2_lock_unwrap.rs")]);
    assert_eq!(lines_of(&a, Rule::R2LockUnwrap), vec![5], "{:?}", a.findings);
}

#[test]
fn r3_wall_clock_fixture_fires() {
    let a = run(&[("crates/qsim/src/fix_r3.rs", "r3_wall_clock.rs")]);
    assert_eq!(lines_of(&a, Rule::R3WallClock), vec![4], "{:?}", a.findings);
}

#[test]
fn r4_unwrap_fixture_is_counted() {
    let a = run(&[("crates/memkv/src/fix_r4.rs", "r4_unwrap.rs")]);
    // R4 surfaces as a per-file budget count, not a finding.
    assert_eq!(a.unwrap_counts.get("crates/memkv/src/fix_r4.rs"), Some(&2));
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

#[test]
fn r5_per_key_get_fixture_fires() {
    let a = run(&[("crates/pacon/src/fix_r5.rs", "r5_per_key_get.rs")]);
    assert_eq!(lines_of(&a, Rule::R5PerKeyGetLoop), vec![5], "{:?}", a.findings);
}

#[test]
fn r6_hold_across_blocking_fixture_fires() {
    let a = run(&[("crates/pacon/src/fix_r6.rs", "r6_hold_across_blocking.rs")]);
    assert_eq!(lines_of(&a, Rule::R6HoldAcrossBlocking), vec![17], "{:?}", a.findings);
    let f = &a.findings[0];
    // The finding names the held class and points back at the
    // acquisition that made the send dangerous.
    assert!(f.message.contains("fix.outbox"), "{}", f.message);
    assert!(
        f.related.iter().any(|s| s.line == 16),
        "expected holder site at line 16: {:?}",
        f.related
    );
}

#[test]
fn r7_commit_bypass_fixture_fires() {
    let a = run(&[
        ("crates/dfs/src/fix_client.rs", "r7_dfs_client.rs"),
        ("crates/pacon/src/fix_r7.rs", "r7_commit_bypass.rs"),
    ]);
    // The point mutation and the grouped data-plane write both fire; the
    // same grouped write inside a `replay*` function is sanctioned.
    assert_eq!(lines_of(&a, Rule::R7CommitPathBypass), vec![10, 14], "{:?}", a.findings);
    // The same call made from under src/commit/ is the commit path
    // itself and must NOT fire.
    let b = run(&[
        ("crates/dfs/src/fix_client.rs", "r7_dfs_client.rs"),
        ("crates/pacon/src/commit/fix_r7.rs", "r7_commit_bypass.rs"),
    ]);
    assert!(lines_of(&b, Rule::R7CommitPathBypass).is_empty(), "{:?}", b.findings);
}

#[test]
fn r8_retry_loop_fixture_fires() {
    let a = run(&[("crates/pacon/src/fix_r8.rs", "r8_retry_loop.rs")]);
    // Only the bare spin fires: the policy-gated loop (next_backoff in
    // the same function) and the allow-marked drain stay silent.
    assert_eq!(lines_of(&a, Rule::R8UnboundedRetryLoop), vec![6], "{:?}", a.findings);
    let r8 = a.findings.iter().find(|f| f.rule == Rule::R8UnboundedRetryLoop).expect("fired");
    assert!(r8.message.contains("next_backoff"), "{}", r8.message);
    // Both rules key on the one fallible surface: the retried reads are
    // per-key gets in a loop as well, policy-gated or not.
    assert_eq!(lines_of(&a, Rule::R5PerKeyGetLoop), vec![6, 19], "{:?}", a.findings);
    // The same source outside the core crates is not the lint's
    // business (a bench may poll freely).
    let b = run(&[("crates/bench/src/fix_r8.rs", "r8_retry_loop.rs")]);
    assert!(lines_of(&b, Rule::R8UnboundedRetryLoop).is_empty(), "{:?}", b.findings);
}

#[test]
fn r9_stale_owner_fixture_fires() {
    let a = run(&[("crates/pacon/src/fix_r9.rs", "r9_stale_owner.rs")]);
    // Only the unchecked grouping fires: the epoch-validated variant
    // and the allow-marked telemetry lookup stay silent.
    assert_eq!(lines_of(&a, Rule::R9StaleOwner), vec![8], "{:?}", a.findings);
    assert!(a.findings[0].message.contains("ring_epoch"), "{}", a.findings[0].message);
    // Inside memkv the cluster consults its own ring under the route
    // lock — the rule must not fire on the implementation itself.
    let b = run(&[("crates/memkv/src/fix_r9.rs", "r9_stale_owner.rs")]);
    assert!(lines_of(&b, Rule::R9StaleOwner).is_empty(), "{:?}", b.findings);
    // Outside the core crates the lookup is not the lint's business.
    let c = run(&[("crates/bench/src/fix_r9.rs", "r9_stale_owner.rs")]);
    assert!(lines_of(&c, Rule::R9StaleOwner).is_empty(), "{:?}", c.findings);
}

#[test]
fn inverted_two_lock_fixture_reports_both_sites() {
    let a = run(&[("crates/pacon/src/fix_inversion.rs", "inversion_two_locks.rs")]);
    let inv: Vec<_> = a.findings.iter().filter(|f| f.rule == Rule::LockOrder).collect();
    assert_eq!(inv.len(), 1, "{:?}", a.findings);
    let f = inv[0];
    // Acquire site: `self.fine.lock()` at line 22; holder site:
    // `self.coarse.lock()` at line 21 — both must be reported.
    assert_eq!((f.file.as_str(), f.line), ("crates/pacon/src/fix_inversion.rs", 22));
    assert_eq!(f.related.len(), 1, "{f:?}");
    assert_eq!(
        (f.related[0].file.as_str(), f.related[0].line),
        ("crates/pacon/src/fix_inversion.rs", 21)
    );
    assert!(f.message.contains("inversion"), "{}", f.message);
    assert!(f.message.contains("fix.coarse") && f.message.contains("fix.fine"), "{}", f.message);
    // The offending edge is still recorded in the graph.
    assert!(a.graph.edges.iter().any(|e| e.from == "fix.coarse" && e.to == "fix.fine"));
}

#[test]
fn clean_ordered_fixture_is_silent_but_edged() {
    let a = run(&[("crates/pacon/src/fix_clean.rs", "clean_ordered.rs")]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // Ascending REGION -> SHARD nesting is legal and must appear as a
    // graph edge with both witness sites.
    let e = a
        .graph
        .edges
        .iter()
        .find(|e| e.from == "fix.fine" && e.to == "fix.coarse")
        .expect("edge recorded");
    assert_eq!(e.from_site.line, 20);
    assert_eq!(e.to_site.line, 21);
}

#[test]
fn a_try_lock_takes_no_edge_in_but_its_guard_is_held() {
    let a = run(&[("crates/pacon/src/fix_try.rs", "try_lock_held.rs")]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    let edges: Vec<(&str, &str)> =
        a.graph.edges.iter().map(|e| (e.from.as_str(), e.to.as_str())).collect();
    assert_eq!(edges, [("fix.outer", "fix.inner"), ("fix.slot", "fix.inner")]);
    let e = &a.graph.edges[1];
    assert_eq!((e.from_site.line, e.to_site.line), (23, 24));
}

#[test]
fn a_typed_closure_parameter_resolves_the_calls_made_on_it() {
    let a = run(&[("crates/pacon/src/fix_closure.rs", "closure_param.rs")]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // `self.cache.get()` under the slot reaches `fix.route` only through
    // `|kv: &Store| kv.get()`.
    let e = a
        .graph
        .edges
        .iter()
        .find(|e| e.from == "fix.slot" && e.to == "fix.route")
        .expect("edge through the closure");
    assert_eq!((e.from_site.line, e.to_site.line), (45, 13));
    // Untyped, the parameter resolves to nothing and the edge is lost.
    let untyped = fixture("closure_param.rs").replace("|kv: &Store|", "|kv|");
    let b = analyze(&[("crates/pacon/src/fix_closure.rs".to_string(), untyped)]).unwrap();
    assert!(b.graph.edges.is_empty(), "{:?}", b.graph.edges);
}

#[test]
fn allow_markers_are_counted_and_held_to_an_exact_budget() {
    // The R9 fixture carries one deliberate `lint: allow(stale-owner)`.
    let a = run(&[("crates/pacon/src/fix_r9.rs", "r9_stale_owner.rs")]);
    assert_eq!(a.allow_counts, BTreeMap::from([("stale-owner".to_string(), 1)]));
    let check = |budget: &str| {
        let budget = parse_allowlist(budget).expect("budget parses").into_iter().collect();
        budget_mismatches(&a.allow_counts, &budget)
    };
    assert!(check("1 stale-owner").is_empty());
    // Seeded violation: a marker the budget does not cover.
    assert_eq!(check(""), vec![("stale-owner".to_string(), 1, 0)]);
    // A budget that overshoots, and an entry for markers that are gone.
    assert_eq!(check("2 stale-owner"), vec![("stale-owner".to_string(), 1, 2)]);
    assert_eq!(check("1 stale-owner\n3 commit-path"), vec![("commit-path".to_string(), 0, 3)]);
}

#[test]
fn a_drop_in_one_match_arm_releases_the_guard_in_that_arm_only() {
    let a = run(&[("crates/pacon/src/fix_drop.rs", "drop_in_arm.rs")]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    let edges: Vec<(&str, &str)> =
        a.graph.edges.iter().map(|e| (e.from.as_str(), e.to.as_str())).collect();
    assert_eq!(edges, [("fix.outer", "fix.late")], "the arm after the drop still holds it");
    assert_eq!((a.graph.edges[0].from_site.line, a.graph.edges[0].to_site.line), (23, 29));
    // Dropped in its own scope, before the match, the guard is gone for
    // good: neither arm takes an edge.
    let early = fixture("drop_in_arm.rs").replace(
        "        match release {\n            true => {\n                drop(held);",
        "        drop(held);\n        match release {\n            true => {",
    );
    let b = analyze(&[("crates/pacon/src/fix_drop.rs".to_string(), early)]).unwrap();
    assert!(b.graph.edges.is_empty(), "{:?}", b.graph.edges);
    // An unbraced arm is a scope as well: its drop ends with the arm.
    let unbraced = fixture("drop_in_arm.rs").replace(
        "            true => {\n                drop(held);\n                *self.early.lock()\n            }\n",
        "            true => drop(held),\n",
    );
    let c = analyze(&[("crates/pacon/src/fix_drop.rs".to_string(), unbraced)]).unwrap();
    let edges: Vec<(&str, &str, usize)> =
        c.graph.edges.iter().map(|e| (e.from.as_str(), e.to.as_str(), e.to_site.line)).collect();
    assert_eq!(edges, [("fix.outer", "fix.late", 26)], "the arm after the drop still holds it");
}
