//! Rule implementations. R1–R4 are token-pattern rules over the
//! flattened (test-filtered) token stream; R5 and R7 are fact rules
//! over extracted function bodies; R6 and the lock-order check live in
//! `graph.rs` because they need guard liveness.

use crate::extract::{crate_of, FileFacts, FlatKind, FlatTok};
use crate::model::{Base, Call, Finding, Link, Rule, CORE_CRATES, DETERMINISTIC_CRATES};
use crate::resolve::Workspace;

const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// R1–R4 over one file's token stream. Returns findings plus the R4
/// `.unwrap()` count (budget-checked by the driver against the
/// allowlist rather than reported directly).
pub fn token_rules(f: &FileFacts) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut unwraps = 0usize;
    let krate = f.crate_name.as_deref();
    let r1_applies = krate != Some("syncguard");
    let r3_applies = krate.is_some_and(|c| DETERMINISTIC_CRATES.contains(&c));
    let r4_applies = krate.is_some_and(|c| CORE_CRATES.contains(&c));
    let toks = &f.flat;
    // R1 findings deduplicate per line (a `use` list can name two lock
    // types; one finding per line matches the v1 behaviour).
    let mut r1_lines: Vec<usize> = Vec::new();

    let push = |rule: Rule, line: usize, message: String, findings: &mut Vec<Finding>| {
        if !f.allows(line, rule.slug()) {
            findings.push(Finding { rule, file: f.rel.clone(), line, message, related: Vec::new() });
        }
    };

    for i in 0..toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            FlatKind::Ident(id) => {
                // R1: any parking_lot reference.
                if r1_applies && id == "parking_lot" && !r1_lines.contains(&line) {
                    r1_lines.push(line);
                    push(
                        Rule::R1DirectLock,
                        line,
                        "direct lock use `parking_lot` — construct locks through syncguard"
                            .to_string(),
                        &mut findings,
                    );
                }
                // R1: `std::sync::Mutex` / `std::sync::{.., RwLock, ..}`.
                if r1_applies && id == "std" && path_next(toks, i) == Some("sync") {
                    let after = i + 6; // std :: sync :: <target>
                    if ident_at(toks, after).is_some_and(|t| LOCK_TYPES.contains(&t)) {
                        let l = toks[after].line;
                        if !r1_lines.contains(&l) {
                            r1_lines.push(l);
                            push(
                                Rule::R1DirectLock,
                                l,
                                format!(
                                    "direct lock use `std::sync::{}` — construct locks \
                                     through syncguard",
                                    ident_at(toks, after).expect("checked")
                                ),
                                &mut findings,
                            );
                        }
                    } else if matches!(
                        toks.get(after).map(|t| &t.kind),
                        Some(FlatKind::Open(syn::Delimiter::Brace))
                    ) {
                        // Use-tree group: scan to the matching close.
                        let mut depth = 1usize;
                        let mut j = after + 1;
                        while depth > 0 {
                            match toks.get(j).map(|t| &t.kind) {
                                Some(FlatKind::Open(_)) => depth += 1,
                                Some(FlatKind::Close(_)) => depth -= 1,
                                Some(FlatKind::Ident(t)) if LOCK_TYPES.contains(&t.as_str()) => {
                                    let l = toks[j].line;
                                    if !r1_lines.contains(&l) {
                                        r1_lines.push(l);
                                        push(
                                            Rule::R1DirectLock,
                                            l,
                                            format!(
                                                "std::sync lock import `{t}` — construct \
                                                 locks through syncguard"
                                            ),
                                            &mut findings,
                                        );
                                    }
                                }
                                None => break,
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                }
                // R3: wall-clock in deterministic crates.
                if r3_applies {
                    if id == "Instant" && path_next(toks, i) == Some("now") {
                        push(
                            Rule::R3WallClock,
                            line,
                            "`Instant::now()` in deterministic simulator code — use \
                             virtual time"
                                .to_string(),
                            &mut findings,
                        );
                    } else if id == "SystemTime" {
                        push(
                            Rule::R3WallClock,
                            line,
                            "`SystemTime` in deterministic simulator code — use virtual time"
                                .to_string(),
                            &mut findings,
                        );
                    }
                }
            }
            FlatKind::Punct('.') => {
                // `.lock().unwrap()` / `.read().expect(..)` — R2.
                if let Some((m, rest)) = empty_call(toks, i + 1) {
                    if matches!(m, "lock" | "read" | "write") {
                        if let Some(FlatTok { kind: FlatKind::Punct('.'), .. }) = toks.get(rest) {
                            if let Some(u) = ident_at(toks, rest + 1) {
                                if u == "unwrap" || u == "expect" {
                                    push(
                                        Rule::R2LockUnwrap,
                                        line,
                                        format!(
                                            "`.{m}().{u}(..)` in library code — syncguard \
                                             locks are non-poisoning"
                                        ),
                                        &mut findings,
                                    );
                                }
                            }
                        }
                    }
                    // `.unwrap()` — R4 count.
                    if r4_applies && m == "unwrap" && !f.allows(line, Rule::R4Unwrap.slug()) {
                        unwraps += 1;
                    }
                }
            }
            _ => {}
        }
    }
    (findings, unwraps)
}

/// Is `toks[i] ':' ':' <ident>` — returning the ident after a `::`.
fn path_next(toks: &[FlatTok], i: usize) -> Option<&str> {
    if toks.get(i + 1)?.is_punct(':') && toks.get(i + 2)?.is_punct(':') {
        ident_at(toks, i + 3)
    } else {
        None
    }
}

fn ident_at(toks: &[FlatTok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(FlatKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Match `<ident> ( )` at `i`; returns the ident and the index past the
/// close paren.
fn empty_call(toks: &[FlatTok], i: usize) -> Option<(&str, usize)> {
    let name = ident_at(toks, i)?;
    if toks.get(i + 1)?.kind == FlatKind::Open(syn::Delimiter::Parenthesis)
        && toks.get(i + 2)?.kind == FlatKind::Close(syn::Delimiter::Parenthesis)
    {
        Some((name, i + 3))
    } else {
        None
    }
}

/// The one data-plane surface of `memkv::KvClient` and
/// `pacon::MetaCache`. Every method is fallible (a crashed shard or a
/// ring-membership change surfaces as an error), so these names *are*
/// the fault surface R8 watches; `get` is the per-key read R5 watches.
const CACHE_SURFACE: &[&str] = &[
    "get", "multi_get", "multi_gets", "put", "set", "add", "add_new", "cas", "multi_write",
    "update", "delete",
];

/// The receiver of a call on that surface — `cache.m(..)`, `kv.m(..)`,
/// `x.cache.m(..)`, `x.kv().m(..)` — or `None` for any other call.
fn cache_receiver(call: &Call) -> Option<&str> {
    let recv = match call.links.last() {
        Some(Link::Field(n)) | Some(Link::Method(n)) => n.as_str(),
        None => match &call.base {
            Base::Ident(n) => n.as_str(),
            _ => return None,
        },
    };
    (matches!(recv, "cache" | "kv") && CACHE_SURFACE.contains(&call.name.as_str())).then_some(recv)
}

/// R5: per-key `cache.get(..)` / `kv.get(..)` / `kv().get(..)` inside a
/// loop body, pacon library code only.
pub fn r5(f: &FileFacts) -> Vec<Finding> {
    let mut findings = Vec::new();
    if f.crate_name.as_deref() != Some("pacon") {
        return findings;
    }
    for ff in &f.fns {
        for call in &ff.calls {
            if call.name != "get" || call.loop_depth == 0 {
                continue;
            }
            let Some(recv) = cache_receiver(call) else { continue };
            if f.allows(call.line, Rule::R5PerKeyGetLoop.slug()) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::R5PerKeyGetLoop,
                file: f.rel.clone(),
                line: call.line,
                message: format!(
                    "per-key `{recv}.get(..)` inside a loop — batch the keys with \
                     multi_get, or mark the line `lint: allow(per-key-get)`"
                ),
                related: Vec::new(),
            });
        }
    }
    findings
}

/// R8: a cache/kv data-plane call (all of them return `NodeDown`-class
/// errors when a node is crashed or partitioned) inside a
/// `while`/`loop` body, in a function that shows no evidence of a
/// bounded retry envelope. A free-running retry turns a dead node into
/// a hot spin (and, under the virtual clock, a livelock): every such
/// loop must consult `RetryPolicy`-style backoff — whose `next_backoff`
/// bounds both the attempt budget and the deadline — or carry an
/// explicit `lint: allow(retry-loop)` justification. `for` loops are
/// exempt: their iteration is structurally bounded (a sweep over keys is
/// not a retry).
pub fn r8(f: &FileFacts) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !f.crate_name.as_deref().is_some_and(|c| CORE_CRATES.contains(&c)) {
        return findings;
    }
    for ff in &f.fns {
        // Evidence of a bounded envelope anywhere in the function:
        // `next_backoff` / `backoff_ns` gate every delay on the budget
        // and deadline, so their presence marks a policied loop.
        let has_backoff = ff.calls.iter().any(|c| c.name.contains("backoff"));
        if has_backoff {
            continue;
        }
        for call in &ff.calls {
            if call.spin_depth == 0 {
                continue;
            }
            let Some(recv) = cache_receiver(call) else { continue };
            if f.allows(call.line, Rule::R8UnboundedRetryLoop.slug()) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::R8UnboundedRetryLoop,
                file: f.rel.clone(),
                line: call.line,
                message: format!(
                    "`{recv}.{}(..)` retried in a loop with no bounded budget or \
                     backoff — gate the retry on RetryPolicy::next_backoff, or mark \
                     the line `lint: allow(retry-loop)` with a justification",
                    call.name
                ),
                related: Vec::new(),
            });
        }
    }
    findings
}

/// R9: `shard_node(..)` consulted outside `crates/memkv` in a function
/// that never re-checks `ring_epoch()`. The owner `shard_node` returns
/// is advisory — the authoritative routing decision is taken under the
/// route lock inside the cluster's client ops — so code that caches the
/// `NodeId` (for batching, affinity, metrics) can act on a pre-reshard
/// owner once a live join/leave bumps the epoch. Every such use must
/// either re-check `ring_epoch` in the same function (and discard the
/// cached owner on a bump) or carry an explicit
/// `lint: allow(stale-owner)` justification. Inside `memkv` the rule is
/// moot: the cluster consults the ring under its own lock.
pub fn r9(f: &FileFacts) -> Vec<Finding> {
    let mut findings = Vec::new();
    let krate = f.crate_name.as_deref();
    if !krate.is_some_and(|c| CORE_CRATES.contains(&c)) || krate == Some("memkv") {
        return findings;
    }
    for ff in &f.fns {
        // Evidence the function is epoch-aware: any `ring_epoch()` call
        // means the cached owner is validated before use.
        if ff.calls.iter().any(|c| c.name == "ring_epoch") {
            continue;
        }
        for call in &ff.calls {
            if call.name != "shard_node" {
                continue;
            }
            if f.allows(call.line, Rule::R9StaleOwner.slug()) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::R9StaleOwner,
                file: f.rel.clone(),
                line: call.line,
                message: "`shard_node(..)` owner cached without a `ring_epoch` re-check — \
                          a live reshard can remap the key after this lookup; re-check the \
                          epoch before acting on the node, or mark the line \
                          `lint: allow(stale-owner)` with a justification"
                    .to_string(),
                related: Vec::new(),
            });
        }
    }
    findings
}

/// Mutations on the dfs surface that pacon may only reach from the
/// commit path: the point mutations, and the data-plane group commit
/// (`write_small_batch` and the server requests it is made of).
const DFS_MUTATORS: &[&str] = &[
    "mkdir",
    "create",
    "unlink",
    "rmdir",
    "write",
    "set_size",
    "rename",
    "write_small_batch",
    "write_chunks",
    "set_sizes",
];

/// R7: pacon code mutating Mds/cluster state outside the commit path.
/// Commits must flow through `apply_batch` / `write_idempotent` /
/// replay so idempotent-replay identities and failure injection see
/// them; a direct `self.dfs.mkdir(..)` bypasses all of it, and so does
/// a `write_small_batch` issued from anywhere but the commit worker.
pub fn r7(ws: &Workspace, allows: &dyn Fn(&str, usize, &str) -> bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if crate_of(&f.file) != Some("pacon") {
            continue;
        }
        // The replay/commit entry points themselves are the sanctioned
        // writers, and everything under `src/commit/` IS the commit path
        // (the worker applying published batches).
        if f.name.starts_with("replay")
            || f.name.contains("apply_batch")
            || f.file.contains("/commit/")
        {
            continue;
        }
        for (ci, call) in f.calls.iter().enumerate() {
            if !DFS_MUTATORS.contains(&call.name.as_str()) {
                continue;
            }
            let hits_dfs = ws.resolved[i][ci]
                .callees
                .iter()
                .any(|&c| ws.fns[c].crate_name == "dfs");
            if !hits_dfs || allows(&f.file, call.line, Rule::R7CommitPathBypass.slug()) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::R7CommitPathBypass,
                file: f.file.clone(),
                line: call.line,
                message: format!(
                    "direct dfs mutation `{}` outside the commit path — route through \
                     apply_batch/write_idempotent (or mark `lint: allow(commit-path)` \
                     with a justification)",
                    call.name
                ),
                related: Vec::new(),
            });
        }
    }
    findings
}
