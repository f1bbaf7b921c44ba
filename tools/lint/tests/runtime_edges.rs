//! Cross-check against the observed runtime lock graph: every waiting
//! edge the instrumented `lock_hierarchy` test reports at runtime (the
//! DESIGN §7 DOT dump) must also be found statically. The static graph is
//! a superset — it sees paths the runtime workload never exercises — so
//! the check is one-directional: runtime ⊆ static. Two runtime edges are
//! left out: the ones into a try-locked class (`pacon.commit.worker` under
//! the barrier slot, `pacon.commit.outbox` under a worker), which the
//! static graph deliberately does not draw, since a try-lock never waits,
//! and `pacon.commit.worker` → `memkv.route`, whose path through
//! `MetaCache` the call resolver does not follow.

use std::path::{Path, PathBuf};

use tools_lint::{analyze, collect_workspace, Rule};

/// The 20 waiting hold-while-acquiring edges observed at runtime by
/// `SYNCGUARD_DOT=1 cargo test --features syncguard/check --test
/// lock_hierarchy` (DESIGN.md §7). Update alongside DESIGN when the
/// runtime graph legitimately changes.
const RUNTIME_EDGES: &[(&str, &str)] = &[
    ("memkv.route", "memkv.shard"),
    ("pacon.barrier.slot", "dfs.client.dentries"),
    ("pacon.barrier.slot", "dfs.namespace"),
    ("pacon.barrier.slot", "memkv.route"),
    ("pacon.barrier.slot", "memkv.shard"),
    ("pacon.barrier.slot", "pacon.barrier.state"),
    ("pacon.barrier.slot", "pacon.client.parent_memo"),
    ("pacon.barrier.slot", "pacon.commit.outbox"),
    ("pacon.barrier.slot", "pacon.region.paths"),
    ("pacon.barrier.slot", "simnet.counters"),
    ("pacon.commit.outbox", "mq.queue"),
    ("pacon.commit.outbox", "pacon.barrier.state"),
    ("pacon.commit.outbox", "simnet.counters"),
    ("pacon.commit.worker", "dfs.client.dentries"),
    ("pacon.commit.worker", "dfs.datasrv.chunks"),
    ("pacon.commit.worker", "dfs.namespace"),
    ("pacon.commit.worker", "mq.queue"),
    ("pacon.commit.worker", "pacon.barrier.state"),
    ("pacon.commit.worker", "pacon.region.paths"),
    ("pacon.commit.worker", "simnet.counters"),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("tools/lint lives two levels below the repo root")
        .to_path_buf()
}

#[test]
fn static_graph_covers_all_runtime_edges() {
    let files = collect_workspace(&repo_root()).expect("workspace readable");
    let a = analyze(&files).expect("workspace parses");

    let missing: Vec<_> = RUNTIME_EDGES
        .iter()
        .filter(|(from, to)| {
            !a.graph.edges.iter().any(|e| e.from == *from && e.to == *to)
        })
        .collect();
    assert!(
        missing.is_empty(),
        "runtime edges absent from the static graph: {missing:?}\n\
         static edges: {:?}",
        a.graph.edges.iter().map(|e| (&e.from, &e.to)).collect::<Vec<_>>()
    );
}

#[test]
fn workspace_has_no_lock_order_findings() {
    let files = collect_workspace(&repo_root()).expect("workspace readable");
    let a = analyze(&files).expect("workspace parses");
    let inversions: Vec<_> =
        a.findings.iter().filter(|f| f.rule == Rule::LockOrder).collect();
    assert!(inversions.is_empty(), "lock-order findings in the tree: {inversions:#?}");
}

#[test]
fn every_runtime_class_is_declared_statically() {
    let files = collect_workspace(&repo_root()).expect("workspace readable");
    let a = analyze(&files).expect("workspace parses");
    let mut classes: Vec<&str> = RUNTIME_EDGES
        .iter()
        .flat_map(|(f, t)| [*f, *t])
        .collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        assert!(
            a.graph.nodes.iter().any(|(c, _, _)| c == class),
            "runtime lock class `{class}` not found among static decls"
        );
    }
}
