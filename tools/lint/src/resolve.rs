//! Workspace-level resolution: joins the per-file facts into indices
//! (structs, methods, lock binders), resolves calls to candidate
//! callees with a type-directed ladder, and computes the transitive
//! `may-acquire` and `may-block` summaries the graph and rule passes
//! consume.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::extract::FileFacts;
use crate::model::{AcqMode, Base, Call, Event, FnFacts, Link, LockDecl, Site};

/// External (unresolvable) callee names treated as blocking primitives
/// for rule R6. `Condvar::wait` is deliberately absent: it releases the
/// mutex while parked.
pub const BLOCKING_PRIMITIVES: &[&str] =
    &["send", "recv", "recv_timeout", "fsync", "sync_all", "sync_data", "join"];

/// Is this call a blocking primitive? `join` only counts with an empty
/// argument list, so thread `handle.join()` matches but `path.join(seg)`
/// never does.
pub fn is_blocking_primitive(call: &Call) -> bool {
    match call.name.as_str() {
        "join" => !call.has_args,
        n => BLOCKING_PRIMITIVES.contains(&n),
    }
}

/// Common collection/iterator method names that must never resolve to
/// repo methods by name alone — `map.get(...)` is not `Mds::get(...)`.
const FALLBACK_DENYLIST: &[&str] = &[
    "get", "insert", "remove", "push", "pop", "len", "is_empty", "clone", "iter", "next",
    "contains", "contains_key", "entry", "extend", "drain", "take", "clear", "new", "default",
    "set", "min", "max", "get_mut", "iter_mut", "into_iter", "keys", "values", "split",
    "join", "send", "recv", "write", "read", "lock", "flush", "sync", "wait", "drop", "get_or_insert_with",
];

/// Upper bound on name-based fallback candidates; more than this means
/// the name is too generic to trust and the call is treated as external.
const FALLBACK_CUTOFF: usize = 6;

/// How a call resolved.
pub struct Resolved {
    pub callees: Vec<usize>,
    /// True when the call could not be mapped to any workspace function.
    pub external: bool,
}

pub struct Workspace {
    pub fns: Vec<FnFacts>,
    pub decls: Vec<LockDecl>,
    /// class → index into `decls` (first declaration wins).
    pub class_decl: BTreeMap<String, usize>,
    /// struct name → fields (merged across files; names are unique in
    /// practice).
    structs: HashMap<String, Vec<(String, String)>>,
    /// (self type, method name) → fn indices.
    methods: HashMap<(String, String), Vec<usize>>,
    /// (crate, free fn name) → fn indices.
    free_fns: HashMap<(String, String), Vec<usize>>,
    /// method/function name → fn indices (fallback).
    by_name: HashMap<String, Vec<usize>>,
    /// Per-function resolved callee lists, index-aligned with
    /// `fns[i].calls`.
    pub resolved: Vec<Vec<Resolved>>,
    /// Per-function transitive acquisition summary:
    /// class → (acquisition site, call chain from this fn).
    pub trans_acq: Vec<BTreeMap<String, (Site, Vec<String>)>>,
    /// Per-function blocking summary: Some((site, chain, label)) if the
    /// function may block outside a permit scope.
    pub trans_blocking: Vec<Option<(Site, Vec<String>, String)>>,
    /// Guard classes a call to this function leaves live in the caller
    /// (guard-returning constructors like `start_barrier`).
    pub carried: Vec<Vec<String>>,
    pub unresolved_acqs: usize,
}

impl Workspace {
    pub fn build(files: &[FileFacts]) -> Workspace {
        let mut fns = Vec::new();
        let mut decls = Vec::new();
        let mut structs: HashMap<String, Vec<(String, String)>> = HashMap::new();
        for f in files {
            fns.extend(f.fns.iter().cloned());
            decls.extend(f.decls.iter().cloned());
            for (name, fields) in &f.structs {
                structs.entry(name.clone()).or_default().extend(fields.iter().cloned());
            }
        }
        let mut class_decl = BTreeMap::new();
        for (i, d) in decls.iter().enumerate() {
            class_decl.entry(d.class.clone()).or_insert(i);
        }
        let mut methods: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut free_fns: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            match &f.self_ty {
                Some(ty) => methods.entry((ty.clone(), f.name.clone())).or_default().push(i),
                None => free_fns
                    .entry((f.crate_name.clone(), f.name.clone()))
                    .or_default()
                    .push(i),
            }
        }
        let mut ws = Workspace {
            fns,
            decls,
            class_decl,
            structs,
            methods,
            free_fns,
            by_name,
            resolved: Vec::new(),
            trans_acq: Vec::new(),
            trans_blocking: Vec::new(),
            carried: Vec::new(),
            unresolved_acqs: 0,
        };
        ws.resolved = (0..ws.fns.len())
            .map(|i| ws.fns[i].calls.iter().map(|c| ws.resolve_call(i, c)).collect())
            .collect();
        ws.compute_trans();
        ws
    }

    /// Map an acquisition's receiver key to a declared lock class.
    /// Ladder: same file → same crate → whole workspace, matching the
    /// declared binder first and the class-name tail as an alias second,
    /// and only declarations of the right flavour (`.lock()` ↔ Mutex).
    pub fn resolve_acq(&self, f: &FnFacts, key: &str, mode: AcqMode) -> Option<usize> {
        let kind = mode.kind();
        let candidates: Vec<usize> = self
            .decls
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind == kind && (d.binder.as_deref() == Some(key) || d.alias() == key))
            .map(|(i, _)| i)
            .collect();
        let pick = |pred: &dyn Fn(&LockDecl) -> bool| -> Option<usize> {
            let hits: Vec<usize> =
                candidates.iter().copied().filter(|&i| pred(&self.decls[i])).collect();
            match hits.as_slice() {
                [] => None,
                [one] => Some(*one),
                many => {
                    // Multiple declarations of the same class (e.g.
                    // dfs.namespace) are fine; distinct classes are
                    // ambiguous.
                    let class = &self.decls[many[0]].class;
                    many.iter().all(|&i| self.decls[i].class == *class).then(|| many[0])
                }
            }
        };
        pick(&|d: &LockDecl| d.site.file == f.file)
            .or_else(|| pick(&|d: &LockDecl| crate_of_file(&d.site.file) == Some(f.crate_name.as_str())))
            .or_else(|| pick(&|_| true))
    }

    /// Resolve a call to candidate workspace functions.
    fn resolve_call(&self, caller: usize, call: &Call) -> Resolved {
        self.resolve_call_depth(caller, call, 0)
    }

    fn resolve_call_depth(&self, caller: usize, call: &Call, depth: u32) -> Resolved {
        let f = &self.fns[caller];
        // `Type::func(...)`.
        if let Some(q) = &call.qualifier {
            let ty = if q == "Self" { f.self_ty.clone().unwrap_or_default() } else { q.clone() };
            if let Some(ids) = self.methods.get(&(ty.clone(), call.name.clone())) {
                return Resolved { callees: ids.clone(), external: false };
            }
            return self.fallback(&f.crate_name, &call.name);
        }
        // Type-directed: walk the chain left to right.
        let start_ty: Option<String> = match &call.base {
            Base::SelfVal => f.self_ty.clone(),
            Base::Ident(v) => f
                .params
                .iter()
                .find(|(n, _)| n.as_deref() == Some(v))
                .map(|(_, t)| t.clone())
                .or_else(|| self.guard_local_ty(f, v))
                .or_else(|| self.call_local_ty(caller, v, depth)),
            Base::None => {
                if let Some(ids) = self.free_fns.get(&(f.crate_name.clone(), call.name.clone())) {
                    return Resolved { callees: ids.clone(), external: false };
                }
                return self.fallback(&f.crate_name, &call.name);
            }
        };
        if let Some(mut ty) = start_ty {
            let mut ok = true;
            for link in &call.links {
                let next = match link {
                    Link::Field(field) => self
                        .structs
                        .get(&ty)
                        .and_then(|fs| fs.iter().find(|(n, _)| n == field))
                        .map(|(_, t)| t.clone()),
                    Link::Method(m) => {
                        let ret = self
                            .methods
                            .get(&(ty.clone(), m.clone()))
                            .and_then(|ids| ids.first())
                            .and_then(|&id| self.fns[id].ret.clone());
                        // Guard methods deref to the locked value: with
                        // no real method of that name, `.lock()` /
                        // `.read()` / `.write()` keep the current type.
                        if ret.is_none() && matches!(m.as_str(), "lock" | "read" | "write") {
                            Some(ty.clone())
                        } else {
                            ret
                        }
                    }
                };
                match next {
                    Some(t) => ty = t,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if let Some(ids) = self.methods.get(&(ty, call.name.clone())) {
                    return Resolved { callees: ids.clone(), external: false };
                }
            }
        }
        self.fallback(&f.crate_name, &call.name)
    }

    /// Type of a call-bound local: `let setup = dfs.client()` gives
    /// `setup` the (unique) return type of the binding call's resolved
    /// callees. Depth-limited so binding chains cannot recurse.
    fn call_local_ty(&self, caller: usize, var: &str, depth: u32) -> Option<String> {
        if depth >= 3 {
            return None;
        }
        let bc =
            self.fns[caller].calls.iter().rev().find(|c| c.bind_var.as_deref() == Some(var))?;
        let r = self.resolve_call_depth(caller, bc, depth + 1);
        let mut rets: Vec<&str> =
            r.callees.iter().filter_map(|&id| self.fns[id].ret.as_deref()).collect();
        rets.sort_unstable();
        rets.dedup();
        match rets.as_slice() {
            [one] => Some(one.to_string()),
            _ => None,
        }
    }

    /// Type of a let-bound guard local: `let g = self.inner.lock()`
    /// gives `g` the lock's inner type (`Mutex<T>` fields simplify to
    /// `T` in the struct index).
    fn guard_local_ty(&self, f: &FnFacts, var: &str) -> Option<String> {
        let acq = f.acqs.iter().find(|a| a.guard_var.as_deref() == Some(var))?;
        self.field_ty(f, &acq.recv_key)
    }

    /// Declared type of a field reachable from this function: the self
    /// type's own field first, then a workspace-unique field name.
    fn field_ty(&self, f: &FnFacts, field: &str) -> Option<String> {
        let own = f.self_ty.as_ref().and_then(|ty| {
            self.structs
                .get(ty)
                .and_then(|fs| fs.iter().find(|(n, _)| n == field))
                .map(|(_, t)| t.clone())
        });
        if own.is_some() {
            return own.filter(|t| !t.is_empty());
        }
        let mut tys: Vec<&str> = self
            .structs
            .values()
            .flat_map(|fs| fs.iter().filter(|(n, t)| n == field && !t.is_empty()))
            .map(|(_, t)| t.as_str())
            .collect();
        tys.sort_unstable();
        tys.dedup();
        match tys.as_slice() {
            [one] => Some(one.to_string()),
            _ => None,
        }
    }

    /// Name-only fallback, restricted to the caller's crate: cross-crate
    /// calls always go through a typed receiver or qualifier, so a bare
    /// name match in another crate is noise, not evidence.
    fn fallback(&self, krate: &str, name: &str) -> Resolved {
        if FALLBACK_DENYLIST.contains(&name) {
            return Resolved { callees: Vec::new(), external: true };
        }
        let same: Vec<usize> = self
            .by_name
            .get(name)
            .map(|ids| {
                ids.iter().copied().filter(|&i| self.fns[i].crate_name == krate).collect()
            })
            .unwrap_or_default();
        if !same.is_empty() && same.len() <= FALLBACK_CUTOFF {
            Resolved { callees: same, external: false }
        } else {
            Resolved { callees: Vec::new(), external: true }
        }
    }

    /// Fixpoint over the call graph: which classes may each function
    /// acquire (directly or transitively), may it block, and which
    /// guards does a call to it leave live in the caller.
    fn compute_trans(&mut self) {
        let n = self.fns.len();
        self.trans_acq = vec![BTreeMap::new(); n];
        self.trans_blocking = vec![None; n];
        self.carried = vec![Vec::new(); n];

        // Direct layer.
        for i in 0..n {
            let f = &self.fns[i];
            let mut dropped: HashSet<String> = HashSet::new();
            for ev in &f.events {
                if let Event::Drop(v) = ev {
                    dropped.insert(v.clone());
                }
            }
            let mut direct_classes: Vec<String> = Vec::new();
            for acq in &f.acqs {
                match self.resolve_acq(f, &acq.recv_key, acq.mode) {
                    // A try-lock is no edge from the caller's guards.
                    Some(_) if !acq.mode.waits() => {}
                    Some(d) => {
                        let decl = &self.decls[d];
                        let site = Site { file: f.file.clone(), line: acq.line };
                        self.trans_acq[i]
                            .entry(decl.class.clone())
                            .or_insert((site, Vec::new()));
                        direct_classes.push(decl.class.clone());
                        // A let-bound guard that is never dropped in a
                        // guard-returning function escapes to the caller.
                        if guard_like(f.ret.as_deref()) {
                            if let Some(var) = &acq.guard_var {
                                if !dropped.contains(var)
                                    && !self.carried[i].contains(&decl.class)
                                {
                                    self.carried[i].push(decl.class.clone());
                                }
                            }
                        }
                    }
                    None => self.unresolved_acqs += 1,
                }
            }
            // `fn guard(&self) -> MutexGuard<_> { self.inner.lock() }`:
            // the guard is a tail expression, not a binding.
            if guard_like(self.fns[i].ret.as_deref()) && self.carried[i].is_empty() {
                direct_classes.dedup();
                self.carried[i] = direct_classes;
            }
            for call in &f.calls {
                if call.in_permit {
                    continue;
                }
                let external_blocking = call.name == "enter_blocking"
                    || (is_blocking_primitive(call) && !matches!(call.base, Base::None));
                if external_blocking && self.trans_blocking[i].is_none() {
                    self.trans_blocking[i] = Some((
                        Site { file: f.file.clone(), line: call.line },
                        Vec::new(),
                        call.name.clone(),
                    ));
                }
            }
        }

        // Propagate until stable.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                for (ci, call) in self.fns[i].calls.iter().enumerate() {
                    for &callee in &self.resolved[i][ci].callees {
                        if callee == i {
                            continue;
                        }
                        let step = format!("{}:{}", call.name, call.line);
                        let updates: Vec<(String, Site, Vec<String>)> = self.trans_acq[callee]
                            .iter()
                            .filter(|(class, _)| !self.trans_acq[i].contains_key(*class))
                            .map(|(class, (site, chain))| {
                                let mut c = vec![step.clone()];
                                c.extend(chain.iter().cloned());
                                c.truncate(6);
                                (class.clone(), site.clone(), c)
                            })
                            .collect();
                        for (class, site, chain) in updates {
                            self.trans_acq[i].insert(class, (site, chain));
                            changed = true;
                        }
                        // Guard-returning wrappers hand their callee's
                        // escaped guards onward (`barrier()` returns the
                        // `BarrierGuard` from `start_barrier()`).
                        if guard_like(self.fns[i].ret.as_deref()) {
                            let adds: Vec<String> = self.carried[callee]
                                .iter()
                                .filter(|c| !self.carried[i].contains(c))
                                .cloned()
                                .collect();
                            if !adds.is_empty() {
                                self.carried[i].extend(adds);
                                changed = true;
                            }
                        }
                        if !call.in_permit
                            && self.trans_blocking[i].is_none()
                            && self.trans_blocking[callee].is_some()
                        {
                            let (site, chain, label) =
                                self.trans_blocking[callee].clone().expect("checked");
                            let mut c = vec![step.clone()];
                            c.extend(chain);
                            c.truncate(6);
                            self.trans_blocking[i] = Some((site, c, label));
                            changed = true;
                        }
                    }
                }
            }
        }
    }
}

/// Return types that hand a live guard back to the caller: raw guard
/// types plus repo wrapper structs that embed one (detected by name
/// convention — `BarrierGuard` et al end in `Guard`).
fn guard_like(ret: Option<&str>) -> bool {
    ret.is_some_and(|t| t.ends_with("Guard"))
}

fn crate_of_file(rel: &str) -> Option<&str> {
    crate::extract::crate_of(rel)
}
