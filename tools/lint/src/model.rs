//! Shared data model: rules, findings, and the facts the extractor
//! produces per function (events, calls, acquisitions, lock
//! declarations) for the resolver and graph passes to consume.

use std::fmt;

/// Crates whose non-test code may not call `.unwrap()` (rule R4).
pub const CORE_CRATES: &[&str] = &["memkv", "mq", "pacon", "dfs", "lsmkv"];

/// Crates whose library code must stay on virtual time (rule R3).
pub const DETERMINISTIC_CRATES: &[&str] = &["qsim", "simnet"];

/// Which lint rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Direct lock construction outside syncguard.
    R1DirectLock,
    /// `.lock().unwrap()`-style patterns in library code.
    R2LockUnwrap,
    /// Wall-clock time in deterministic simulator code.
    R3WallClock,
    /// `.unwrap()` in core-crate library code beyond the allowlist.
    R4Unwrap,
    /// Per-key cache/kv `get` calls inside a loop in pacon library code.
    R5PerKeyGetLoop,
    /// Blocking call (send/recv/fsync-class) while a syncguard guard is
    /// live, without a `permit_blocking` wrapper.
    R6HoldAcrossBlocking,
    /// Mds/cluster mutation from pacon outside the commit entry points.
    R7CommitPathBypass,
    /// Retry loop around a fault-surface cache/kv call with no bounded
    /// budget or backoff (`RetryPolicy::next_backoff`-style) in sight.
    R8UnboundedRetryLoop,
    /// `shard_node(..)` consulted outside `crates/memkv` in a function
    /// that never re-checks `ring_epoch()` — the advisory owner can go
    /// stale across a live reshard.
    R9StaleOwner,
    /// Static may-hold-while-acquiring edge that inverts the declared
    /// lock-level hierarchy.
    LockOrder,
}

impl Rule {
    /// Stable slug used in JSON output and `// lint: allow(<slug>)`
    /// markers.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::R1DirectLock => "direct-lock",
            Rule::R2LockUnwrap => "lock-unwrap",
            Rule::R3WallClock => "wall-clock",
            Rule::R4Unwrap => "unwrap",
            Rule::R5PerKeyGetLoop => "per-key-get",
            Rule::R6HoldAcrossBlocking => "hold-across-blocking",
            Rule::R7CommitPathBypass => "commit-path",
            Rule::R8UnboundedRetryLoop => "retry-loop",
            Rule::R9StaleOwner => "stale-owner",
            Rule::LockOrder => "lock-order",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::R1DirectLock => "R1 direct-lock",
            Rule::R2LockUnwrap => "R2 lock-unwrap",
            Rule::R3WallClock => "R3 wall-clock",
            Rule::R4Unwrap => "R4 unwrap",
            Rule::R5PerKeyGetLoop => "R5 per-key-get-loop",
            Rule::R6HoldAcrossBlocking => "R6 hold-across-blocking",
            Rule::R7CommitPathBypass => "R7 commit-path-bypass",
            Rule::R8UnboundedRetryLoop => "R8 retry-loop",
            Rule::R9StaleOwner => "R9 stale-owner",
            Rule::LockOrder => "lock-order",
        };
        f.write_str(s)
    }
}

/// A source location: repo-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    pub file: String,
    pub line: usize,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// One lint hit. `related` carries the other half of two-site findings
/// (e.g. the holder's acquisition site for a lock-order inversion).
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub message: String,
    pub related: Vec<Site>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        for r in &self.related {
            write!(f, " (see {r})")?;
        }
        Ok(())
    }
}

/// Lock flavour, used to disambiguate binder names (`.lock()` can only
/// hit a Mutex, `.read()`/`.write()` only an RwLock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// A syncguard lock construction site:
/// `Mutex::new(level::X, "class.name", ...)`.
#[derive(Debug, Clone)]
pub struct LockDecl {
    pub class: String,
    pub kind: LockKind,
    pub level_name: String,
    pub level: u16,
    /// The `let` binding or struct-literal field the lock lands in, if
    /// the declaration site makes it syntactically evident.
    pub binder: Option<String>,
    /// `impl` self type enclosing the declaration, if any.
    pub owner: Option<String>,
    pub site: Site,
}

impl LockDecl {
    /// Last dot-segment of the class name — a second lookup key for
    /// acquisition receivers (`"pacon.region.publish_buf"` →
    /// `"publish_buf"`).
    pub fn alias(&self) -> &str {
        self.class.rsplit('.').next().unwrap_or(&self.class)
    }
}

/// One link of a receiver chain after the base: `.field` or
/// `.method(...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Link {
    Field(String),
    Method(String),
}

/// Base of a receiver chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Base {
    /// `self.…`
    SelfVal,
    /// `ident.…` (local or parameter).
    Ident(String),
    /// No receiver: free function or `Type::func(...)` (see
    /// `Call::qualifier`).
    None,
}

/// A call the extractor saw inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub base: Base,
    /// Chain links strictly before the called method.
    pub links: Vec<Link>,
    /// `Type` for `Type::name(...)` calls.
    pub qualifier: Option<String>,
    pub name: String,
    pub line: usize,
    /// The argument list was non-empty (distinguishes thread
    /// `handle.join()` from `path.join(seg)`).
    pub has_args: bool,
    /// `let v = <chain ending in this call>;` — the local the result is
    /// bound to, used to type later calls through `v`.
    pub bind_var: Option<String>,
    /// Inside a `syncguard::permit_blocking(|| ...)` closure.
    pub in_permit: bool,
    /// Number of enclosing `for`/`while`/`loop` bodies.
    pub loop_depth: u32,
    /// Number of enclosing `while`/`loop` bodies only — the constructs
    /// with no structural iteration bound (R8 targets these; a `for`
    /// over a key set retries nothing).
    pub spin_depth: u32,
}

/// How a guard was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqMode {
    Lock,
    Read,
    Write,
}

impl AcqMode {
    pub fn kind(self) -> LockKind {
        match self {
            AcqMode::Lock => LockKind::Mutex,
            AcqMode::Read | AcqMode::Write => LockKind::RwLock,
        }
    }
}

/// A `.lock()` / `.read()` / `.write()` acquisition site.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Lookup key for the lock declaration: the last field link before
    /// the acquiring method, else the base identifier.
    pub recv_key: String,
    pub mode: AcqMode,
    pub line: usize,
    /// `let g = …` binding holding the guard, if any (scope-lived);
    /// `None` means the guard is a temporary (statement-lived).
    pub guard_var: Option<String>,
    pub in_permit: bool,
}

/// Body events in source order; `Open`/`Close` are brace scopes,
/// `Stmt` is a top-level `;`. Indices refer into `FnFacts::{acqs,calls}`.
#[derive(Debug, Clone)]
pub enum Event {
    Open,
    Close,
    Stmt,
    LoopOpen,
    LoopClose,
    Acq(usize),
    Call(usize),
    Drop(String),
}

/// Everything the extractor knows about one function.
#[derive(Debug, Clone)]
pub struct FnFacts {
    pub file: String,
    pub crate_name: String,
    pub name: String,
    /// `impl` self type, simplified.
    pub self_ty: Option<String>,
    pub line: usize,
    /// Parameters (binding name if simple, simplified type).
    pub params: Vec<(Option<String>, String)>,
    /// Simplified return type.
    pub ret: Option<String>,
    pub events: Vec<Event>,
    pub calls: Vec<Call>,
    pub acqs: Vec<Acq>,
}

/// One static may-hold-while-acquiring edge.
#[derive(Debug, Clone)]
pub struct GraphEdge {
    pub from: String,
    pub to: String,
    pub from_site: Site,
    pub to_site: Site,
    /// Call chain from the holder's function to the acquisition, empty
    /// for same-function edges.
    pub via: Vec<String>,
}

/// The extracted lock graph: every declared class plus every edge.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// (class, level, declaration site), sorted by (level, class).
    pub nodes: Vec<(String, u16, Site)>,
    /// Sorted by (from, to); one witness per ordered pair.
    pub edges: Vec<GraphEdge>,
}

/// Result of a whole-workspace analysis.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    /// `.unwrap()` count per file (R4 — budget-checked by the driver).
    pub unwrap_counts: std::collections::BTreeMap<String, usize>,
    /// `lint: allow(slug)` markers per slug across the scanned tree
    /// (budget-checked by the driver against `allow_budget.txt`).
    pub allow_counts: std::collections::BTreeMap<String, usize>,
    pub graph: LockGraph,
    pub stats: Stats,
}

#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub files: usize,
    pub fns: usize,
    pub lock_decls: usize,
    pub acq_sites: usize,
    /// Acquisitions whose receiver could not be mapped to a declared
    /// lock class (locals the extractor cannot type).
    pub unresolved_acqs: usize,
}
