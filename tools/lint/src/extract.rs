//! Per-file fact extraction: parse a source file with the vendored
//! `syn` stand-in, walk every non-test function body into an event
//! stream (scopes, statements, loops, acquisitions, calls, drops), and
//! scan for syncguard lock declarations, struct field types and
//! `// lint: allow(...)` markers.
//!
//! Test code is excluded structurally: `#[cfg(test)]` items and
//! `#[test]` functions never contribute facts or scan tokens, including
//! test functions nested inside non-test `impl` blocks.

use std::collections::{BTreeMap, BTreeSet};

use syn::{Comment, Delimiter, Item, ItemFn, ItemRec, Spacing, TokenTree};

use crate::model::{Acq, AcqMode, Base, Call, Event, FnFacts, Link, LockDecl, LockKind, Site};

/// A flattened token: groups become explicit open/close markers so
/// pattern rules can match linear sequences like `std :: sync :: Mutex`
/// or `. unwrap ( )` without recursion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatKind {
    Ident(String),
    Punct(char),
    Open(Delimiter),
    Close(Delimiter),
    /// String/byte-string literal (cooked value).
    Str(String),
    /// Any other literal (raw text).
    Lit(String),
}

#[derive(Debug, Clone)]
pub struct FlatTok {
    pub kind: FlatKind,
    pub line: usize,
}

impl FlatTok {
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, FlatKind::Ident(i) if i == s)
    }
    pub fn is_punct(&self, c: char) -> bool {
        matches!(&self.kind, FlatKind::Punct(p) if *p == c)
    }
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    pub rel: String,
    pub crate_name: Option<String>,
    pub fns: Vec<FnFacts>,
    pub decls: Vec<LockDecl>,
    /// Struct definitions: name → (field, simplified type).
    pub structs: Vec<(String, Vec<(String, String)>)>,
    /// Non-test tokens of the whole file, flattened, for token-pattern
    /// rules (R1–R4).
    pub flat: Vec<FlatTok>,
    /// Line → allowed rule slugs from `// lint: allow(slug)` markers
    /// (the marker covers its own line and the next).
    pub allow: BTreeMap<usize, BTreeSet<String>>,
    /// The slug of every marker in the file, one entry per marker.
    pub markers: Vec<String>,
}

impl FileFacts {
    pub fn allows(&self, line: usize, slug: &str) -> bool {
        self.allow.get(&line).is_some_and(|s| s.contains(slug))
    }
}

/// Which crate (directory under `crates/`) a repo-relative path is in.
/// The workspace root package (`src/`) reports `None`.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Is this path test code as a whole (integration tests, benches,
/// examples)?
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path.split('/').any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Extract all facts from one source file.
pub fn extract(rel: &str, source: &str) -> Result<FileFacts, syn::Error> {
    let (file, comments) = syn::parse_file(source)?;
    let (allow, markers) = allow_markers(&comments);
    let mut facts = FileFacts {
        rel: rel.to_string(),
        crate_name: crate_of(rel).map(str::to_string),
        allow,
        markers,
        ..FileFacts::default()
    };
    walk_items(&file.items, None, &mut facts);
    Ok(facts)
}

/// Parse `lint: allow(slug[, reason])` markers (and the legacy
/// `lint:allow-per-key-get` spelling) out of the comment stream: the
/// lines each marker covers, and the flat list of marker slugs.
fn allow_markers(comments: &[Comment]) -> (BTreeMap<usize, BTreeSet<String>>, Vec<String>) {
    let mut map: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut markers = Vec::new();
    for c in comments {
        let mut slugs: Vec<String> = Vec::new();
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lint: allow(") {
            let after = &rest[pos + "lint: allow(".len()..];
            let end = after.find([',', ')']).unwrap_or(after.len());
            let slug = after[..end].trim();
            if !slug.is_empty() {
                slugs.push(slug.to_string());
            }
            rest = after;
        }
        if c.text.contains("lint:allow-per-key-get") {
            slugs.push("per-key-get".to_string());
        }
        for line in [c.line, c.line + 1] {
            map.entry(line).or_default().extend(slugs.iter().cloned());
        }
        markers.append(&mut slugs);
    }
    map.retain(|_, s| !s.is_empty());
    (map, markers)
}

fn is_test_fn(f: &ItemFn) -> bool {
    f.attrs.cfg_test || f.attrs.test_fn
}

/// Line range an impl/trait member function covers (signature through
/// body close), for filtering test members out of the impl's raw
/// tokens.
fn fn_line_range(f: &ItemFn) -> (usize, usize) {
    let start = f.sig.span.line;
    let end = f.body.as_ref().map(|b| b.span_close().line).unwrap_or(start);
    (start, end.max(start))
}

fn walk_items(items: &[ItemRec], owner: Option<&str>, facts: &mut FileFacts) {
    for rec in items {
        match &rec.item {
            Item::Fn(f) => {
                if is_test_fn(f) {
                    continue;
                }
                flatten(&rec.tokens, &[], &mut facts.flat);
                scan_decls(&rec.tokens, owner, facts);
                push_fn(f, owner, facts);
            }
            Item::Impl(im) => {
                if im.attrs.cfg_test {
                    continue;
                }
                let excluded: Vec<(usize, usize)> =
                    im.fns.iter().filter(|f| is_test_fn(f)).map(fn_line_range).collect();
                flatten(&rec.tokens, &excluded, &mut facts.flat);
                for f in &im.fns {
                    if is_test_fn(f) {
                        continue;
                    }
                    if let Some(body) = &f.body {
                        scan_decls(&body.stream().trees, Some(&im.self_ty), facts);
                    }
                    push_fn(f, Some(&im.self_ty), facts);
                }
            }
            Item::Trait(tr) => {
                if tr.attrs.cfg_test {
                    continue;
                }
                flatten(&rec.tokens, &[], &mut facts.flat);
                for f in &tr.fns {
                    if is_test_fn(f) {
                        continue;
                    }
                    push_fn(f, Some(&tr.name), facts);
                }
            }
            Item::Mod(m) => {
                if m.attrs.cfg_test {
                    continue;
                }
                if let Some(items) = &m.items {
                    walk_items(items, owner, facts);
                }
            }
            Item::Struct(st) => {
                if st.attrs.cfg_test {
                    continue;
                }
                flatten(&rec.tokens, &[], &mut facts.flat);
                facts.structs.push((st.name.clone(), st.fields.clone()));
            }
            Item::Use(_) | Item::Verbatim(_) => {
                flatten(&rec.tokens, &[], &mut facts.flat);
                scan_decls(&rec.tokens, owner, facts);
            }
        }
    }
}

fn push_fn(f: &ItemFn, owner: Option<&str>, facts: &mut FileFacts) {
    let mut ff = FnFacts {
        file: facts.rel.clone(),
        crate_name: facts.crate_name.clone().unwrap_or_default(),
        name: f.sig.name.clone(),
        self_ty: owner.map(str::to_string),
        line: f.sig.span.line,
        params: f.sig.params.clone(),
        ret: f.sig.ret.clone(),
        events: Vec::new(),
        calls: Vec::new(),
        acqs: Vec::new(),
    };
    if let Some(body) = &f.body {
        let mut w = Walker { facts: &mut ff, loop_depth: 0, spin_depth: 0, permit: 0 };
        w.walk(&body.stream().trees);
    }
    facts.fns.push(ff);
}

/// Flatten token trees in source order, skipping any token whose line
/// falls in an excluded (test member) range.
fn flatten(trees: &[TokenTree], excluded: &[(usize, usize)], out: &mut Vec<FlatTok>) {
    let skip = |line: usize| excluded.iter().any(|&(s, e)| line >= s && line <= e);
    for t in trees {
        match t {
            TokenTree::Group(g) => {
                if !skip(g.span_open().line) {
                    out.push(FlatTok {
                        kind: FlatKind::Open(g.delimiter()),
                        line: g.span_open().line,
                    });
                }
                flatten(&g.stream().trees, excluded, out);
                if !skip(g.span_close().line) {
                    out.push(FlatTok {
                        kind: FlatKind::Close(g.delimiter()),
                        line: g.span_close().line,
                    });
                }
            }
            TokenTree::Ident(i) => {
                if !skip(i.span().line) {
                    out.push(FlatTok {
                        kind: FlatKind::Ident(i.as_str().to_string()),
                        line: i.span().line,
                    });
                }
            }
            TokenTree::Punct(p) => {
                if !skip(p.span().line) {
                    out.push(FlatTok { kind: FlatKind::Punct(p.as_char()), line: p.span().line });
                }
            }
            TokenTree::Literal(l) => {
                if !skip(l.span().line) {
                    let kind = match l.str_value() {
                        Some(v) => FlatKind::Str(v),
                        None => FlatKind::Lit(l.text().to_string()),
                    };
                    out.push(FlatTok { kind, line: l.span().line });
                }
            }
        }
    }
}

/// Scan a token region for `Mutex::new(level::X, "class", ...)` /
/// `RwLock::new(...)` syncguard declarations.
fn scan_decls(trees: &[TokenTree], owner: Option<&str>, facts: &mut FileFacts) {
    let mut flat = Vec::new();
    flatten(trees, &[], &mut flat);
    let mut i = 0;
    while i + 4 < flat.len() {
        let kind = match &flat[i].kind {
            FlatKind::Ident(s) if s == "Mutex" => LockKind::Mutex,
            FlatKind::Ident(s) if s == "RwLock" => LockKind::RwLock,
            _ => {
                i += 1;
                continue;
            }
        };
        if !(flat[i + 1].is_punct(':')
            && flat[i + 2].is_punct(':')
            && flat[i + 3].is_ident("new")
            && flat[i + 4].kind == FlatKind::Open(Delimiter::Parenthesis))
        {
            i += 1;
            continue;
        }
        if let Some(decl) = parse_decl_args(&flat, i, kind, owner, &facts.rel) {
            facts.decls.push(decl);
        }
        i += 5;
    }
}

/// Parse the `(level::X, "class", ...)` argument head and backward-scan
/// for the binder (`let name =`, `name:` struct field, `self.name =`),
/// skipping wrapper constructors like `Arc::new(...)`.
fn parse_decl_args(
    flat: &[FlatTok],
    idx: usize,
    kind: LockKind,
    owner: Option<&str>,
    rel: &str,
) -> Option<LockDecl> {
    // First argument: tokens up to the first depth-0 comma.
    let mut j = idx + 5;
    let mut depth = 0usize;
    let mut first: Vec<&FlatTok> = Vec::new();
    loop {
        let t = flat.get(j)?;
        match &t.kind {
            FlatKind::Open(_) => depth += 1,
            FlatKind::Close(_) => {
                if depth == 0 {
                    return None; // no comma: not a syncguard constructor
                }
                depth -= 1;
            }
            FlatKind::Punct(',') if depth == 0 => break,
            _ => {}
        }
        first.push(t);
        j += 1;
    }
    let (level_name, level) = match first.last().map(|t| &t.kind) {
        Some(FlatKind::Ident(name)) => {
            // `level::NAME` or `syncguard::level::NAME`; require the
            // `level` path segment so arbitrary expressions don't match.
            if !first.iter().any(|t| t.is_ident("level")) {
                return None;
            }
            (name.clone(), syncguard::level::value_of(name)?)
        }
        Some(FlatKind::Lit(text)) => {
            let v: u16 = text.parse().ok()?;
            (syncguard::level::name_of(v).unwrap_or("?").to_string(), v)
        }
        _ => return None,
    };
    // Second argument must be the class string literal.
    let class = match &flat.get(j + 1)?.kind {
        FlatKind::Str(s) => s.clone(),
        _ => return None,
    };
    let line = flat[idx].line;
    let binder = binder_of(flat, idx);
    Some(LockDecl {
        class,
        kind,
        level_name,
        level,
        binder,
        owner: owner.map(str::to_string),
        site: Site { file: rel.to_string(), line },
    })
}

/// Walk backward from a `Mutex::new` match to the nearest enclosing
/// binding: a struct-literal field label, a `let` binding, or a field
/// assignment. `depth` goes negative as the scan exits into ancestor
/// expressions (e.g. out of `Arc::new(` or a `.map(|_| ...)` closure).
fn binder_of(flat: &[FlatTok], idx: usize) -> Option<String> {
    let mut depth: i32 = 0;
    let mut j = idx;
    for _ in 0..60 {
        if j == 0 {
            return None;
        }
        j -= 1;
        match &flat[j].kind {
            FlatKind::Close(_) => depth += 1,
            FlatKind::Open(Delimiter::Brace) if depth <= 0 => return None,
            FlatKind::Open(_) => depth -= 1,
            // Struct-literal label `name: …` — a single colon preceded
            // by an identifier (not a `::` path).
            FlatKind::Punct(':')
                if depth <= 0
                    && j >= 1
                    && !flat[j - 1].is_punct(':')
                    && (j < 2 || !flat[j + 1].is_punct(':')) =>
            {
                if let FlatKind::Ident(name) = &flat[j - 1].kind {
                    return Some(name.clone());
                }
            }
            FlatKind::Punct('=') if depth <= 0 => {
                if let Some(FlatKind::Ident(name)) = flat.get(j - 1).map(|t| &t.kind) {
                    return Some(name.clone());
                }
            }
            FlatKind::Punct(';') if depth <= 0 => return None,
            _ => {}
        }
    }
    None
}

/// Names whose bare call form we treat as entering a permitted-blocking
/// region: everything inside the closure argument is `in_permit`.
const PERMIT_FNS: &[&str] = &["permit_blocking"];

struct Walker<'w> {
    facts: &'w mut FnFacts,
    loop_depth: u32,
    /// Enclosing `while`/`loop` bodies only (no structural bound).
    spin_depth: u32,
    permit: u32,
}

impl Walker<'_> {
    fn walk(&mut self, trees: &[TokenTree]) {
        let mut i = 0;
        let mut pending_loop = false;
        // The pending loop is a `while`/`loop` (unbounded construct).
        let mut pending_spin = false;
        // The next brace opens an `if`/`while` body whose condition
        // temporaries drop before the block runs (unlike `match` and
        // `if let`/`while let`, whose scrutinee temporaries live on).
        let mut pending_cond = false;
        let mut pending_let: Option<String> = None;
        // The next brace opens a `match` body.
        let mut pending_match = false;
        while i < trees.len() {
            match &trees[i] {
                TokenTree::Ident(id) => {
                    let s = id.as_str();
                    match s {
                        "let" => {
                            // `let (mut)? name (= | :)` — anything more
                            // structured is a pattern, not a guard bind.
                            let mut j = i + 1;
                            if matches!(trees.get(j), Some(TokenTree::Ident(m)) if m.as_str() == "mut")
                            {
                                j += 1;
                            }
                            pending_let = match (trees.get(j), trees.get(j + 1)) {
                                (Some(TokenTree::Ident(n)), Some(TokenTree::Punct(p)))
                                    if p.as_char() == '=' || p.as_char() == ':' =>
                                {
                                    Some(n.as_str().to_string())
                                }
                                _ => None,
                            };
                            i += 1;
                        }
                        "for" | "while" | "loop" => {
                            pending_loop = true;
                            pending_spin = s != "for";
                            if s == "while"
                                && !matches!(trees.get(i + 1), Some(TokenTree::Ident(n)) if n.as_str() == "let")
                            {
                                pending_cond = true;
                            }
                            i += 1;
                        }
                        "match" => {
                            pending_match = true;
                            i += 1;
                        }
                        "if" => {
                            if !matches!(trees.get(i + 1), Some(TokenTree::Ident(n)) if n.as_str() == "let")
                            {
                                pending_cond = true;
                            }
                            i += 1;
                        }
                        "drop" => {
                            if let Some(TokenTree::Group(g)) = trees.get(i + 1) {
                                if g.delimiter() == Delimiter::Parenthesis {
                                    if let [TokenTree::Ident(v)] = &g.stream().trees[..] {
                                        self.facts
                                            .events
                                            .push(Event::Drop(v.as_str().to_string()));
                                        i += 2;
                                        continue;
                                    }
                                }
                            }
                            i += 1;
                        }
                        _ if !id.is_lifetime() && chain_starts(trees, i) => {
                            i = self.parse_chain(trees, i, &mut pending_let);
                        }
                        _ => i += 1,
                    }
                }
                TokenTree::Group(g) => {
                    match g.delimiter() {
                        Delimiter::Brace => {
                            if pending_cond {
                                // Condition temporaries die here.
                                pending_cond = false;
                                self.facts.events.push(Event::Stmt);
                            }
                            if std::mem::take(&mut pending_match) {
                                self.facts.events.push(Event::Open);
                                self.walk_arms(&g.stream().trees);
                                self.facts.events.push(Event::Close);
                            } else if pending_loop {
                                pending_loop = false;
                                let spin = std::mem::take(&mut pending_spin);
                                self.facts.events.push(Event::LoopOpen);
                                self.loop_depth += 1;
                                self.spin_depth += spin as u32;
                                self.walk(&g.stream().trees);
                                self.spin_depth -= spin as u32;
                                self.loop_depth -= 1;
                                self.facts.events.push(Event::LoopClose);
                            } else {
                                self.facts.events.push(Event::Open);
                                self.walk(&g.stream().trees);
                                self.facts.events.push(Event::Close);
                            }
                        }
                        _ => self.walk(&g.stream().trees),
                    }
                    i += 1;
                }
                TokenTree::Punct(p) => {
                    if p.as_char() == '|' {
                        self.closure_params(trees, i + 1);
                    }
                    if p.as_char() == ';' {
                        self.facts.events.push(Event::Stmt);
                        pending_let = None;
                        pending_loop = false;
                        pending_spin = false;
                        pending_cond = false;
                        pending_match = false;
                    }
                    i += 1;
                }
                TokenTree::Literal(_) => i += 1,
            }
        }
    }

    /// A `match` body: each arm's body is a scope of its own, braced or
    /// not — its temporaries and a `drop` in it end with the arm. An arm
    /// runs from its `=>` to the next top-level `,` (or the next arm's
    /// `=>`, after a block body that needs no comma).
    fn walk_arms(&mut self, trees: &[TokenTree]) {
        let punct = |j: usize, c: char| {
            matches!(trees.get(j), Some(TokenTree::Punct(p)) if p.as_char() == c)
        };
        let (mut start, mut in_arm) = (0, false);
        let mut i = 0;
        while i < trees.len() {
            let arrow = matches!(&trees[i], TokenTree::Punct(p)
                if p.as_char() == '=' && p.spacing() == Spacing::Joint)
                && punct(i + 1, '>');
            if arrow || (in_arm && punct(i, ',')) {
                self.walk(&trees[start..i]);
                if in_arm {
                    self.facts.events.push(Event::Close);
                }
                if arrow {
                    self.facts.events.push(Event::Open);
                }
                in_arm = arrow;
                i += if arrow { 2 } else { 1 };
                start = i;
            } else {
                i += 1;
            }
        }
        self.walk(&trees[start..]);
        if in_arm {
            self.facts.events.push(Event::Close);
        }
    }

    /// Typed closure parameters (`|kv: &KvClient| kv.get(key)`, read
    /// from `trees[i]`, just past a `|`) join the function's parameters,
    /// so calls on them resolve by type as calls on a declared parameter
    /// do. A declared parameter of the same name keeps its type.
    fn closure_params(&mut self, trees: &[TokenTree], mut i: usize) {
        let punct = |j: usize, c: char| {
            matches!(trees.get(j), Some(TokenTree::Punct(p)) if p.as_char() == c)
        };
        while let Some(TokenTree::Ident(name)) = trees.get(i) {
            if !punct(i + 1, ':') || punct(i + 2, ':') {
                return;
            }
            // The type runs to the next top-level `,` or the closing `|`.
            let (start, mut end, mut depth) = (i + 2, i + 2, 0i32);
            while end < trees.len() && !(depth == 0 && (punct(end, ',') || punct(end, '|'))) {
                if punct(end, '<') {
                    depth += 1;
                } else if punct(end, '>') && !punct(end.wrapping_sub(1), '-') {
                    depth -= 1;
                }
                end += 1;
            }
            let known = self.facts.params.iter().any(|(n, _)| n.as_deref() == Some(name.as_str()));
            if let Some(ty) = syn::simplify_type(&trees[start..end]).filter(|_| !known) {
                self.facts.params.push((Some(name.as_str().to_string()), ty));
            }
            if !punct(end, ',') {
                return;
            }
            i = end + 1;
        }
    }

    /// Parse a receiver chain starting at `trees[i]` (an identifier):
    /// `self.a.b.method(args).c`, `helper(args)`, `Type::func(args)`,
    /// `x.lock()`. Emits `Call`/`Acq` events and returns the index past
    /// the chain.
    fn parse_chain(
        &mut self,
        trees: &[TokenTree],
        mut i: usize,
        pending_let: &mut Option<String>,
    ) -> usize {
        let first = match &trees[i] {
            TokenTree::Ident(id) => id.as_str().to_string(),
            _ => return i + 1,
        };
        let line = trees[i].span().line;
        i += 1;
        let base;
        let mut links: Vec<Link> = Vec::new();
        let mut last_acq: Option<usize> = None;
        let mut last_call: Option<usize> = None;

        if first == "self" {
            base = Base::SelfVal;
        } else {
            // Collect a `::` path if present.
            let mut path = vec![first];
            while path_sep(trees, i) {
                if let Some(TokenTree::Ident(seg)) = trees.get(i + 2) {
                    path.push(seg.as_str().to_string());
                    i += 3;
                } else {
                    break;
                }
            }
            let name = path.last().expect("path has at least one segment").clone();
            match trees.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    // Free or path-qualified call.
                    if PERMIT_FNS.contains(&name.as_str()) {
                        self.permit += 1;
                        self.walk(&g.stream().trees);
                        self.permit -= 1;
                    } else {
                        let qualifier = if path.len() > 1 {
                            Some(path[path.len() - 2].clone())
                        } else {
                            None
                        };
                        let spawn = name == "spawn";
                        self.push_call(
                            Base::None,
                            Vec::new(),
                            qualifier,
                            name,
                            line,
                            !g.stream().trees.is_empty(),
                        );
                        last_call = Some(self.facts.calls.len() - 1);
                        // `thread::spawn(move || ...)` closures run on
                        // another stack: nothing inside nests under the
                        // caller's guards.
                        if !spawn {
                            self.walk(&g.stream().trees);
                        }
                    }
                    i += 1;
                    base = Base::None;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '.' && path.len() == 1 => {
                    base = Base::Ident(path.pop().expect("single segment"));
                }
                _ => return i, // plain path or identifier, no chain
            }
        }

        // Chain links.
        loop {
            match trees.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '.' => match trees.get(i + 1) {
                    Some(TokenTree::Ident(seg)) => {
                        let seg_line = seg.span().line;
                        let seg = seg.as_str().to_string();
                        match trees.get(i + 2) {
                            Some(TokenTree::Group(g))
                                if g.delimiter() == Delimiter::Parenthesis =>
                            {
                                let acq_mode = match seg.as_str() {
                                    "lock" => Some(AcqMode::Lock),
                                    "try_lock" => Some(AcqMode::TryLock),
                                    "read" => Some(AcqMode::Read),
                                    "write" => Some(AcqMode::Write),
                                    _ => None,
                                };
                                match acq_mode {
                                    Some(mode) if g.stream().trees.is_empty() => {
                                        let key = recv_key(&base, &links);
                                        self.facts.acqs.push(Acq {
                                            recv_key: key,
                                            mode,
                                            line: seg_line,
                                            guard_var: None,
                                            in_permit: self.permit > 0,
                                        });
                                        last_acq = Some(self.facts.acqs.len() - 1);
                                        last_call = None;
                                        self.facts
                                            .events
                                            .push(Event::Acq(self.facts.acqs.len() - 1));
                                    }
                                    _ => {
                                        self.push_call(
                                            base.clone(),
                                            links.clone(),
                                            None,
                                            seg.clone(),
                                            seg_line,
                                            !g.stream().trees.is_empty(),
                                        );
                                        last_acq = None;
                                        last_call = Some(self.facts.calls.len() - 1);
                                        if seg != "spawn" {
                                            self.walk(&g.stream().trees);
                                        }
                                    }
                                }
                                links.push(Link::Method(seg));
                                i += 3;
                            }
                            _ => {
                                links.push(Link::Field(seg));
                                last_call = None;
                                i += 2;
                            }
                        }
                    }
                    Some(TokenTree::Literal(l)) => {
                        links.push(Link::Field(l.text().to_string()));
                        i += 2;
                    }
                    _ => break,
                },
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    // Indexing: the receiver key is unchanged
                    // (`bufs[node].lock()` still resolves via `bufs`).
                    self.walk(&g.stream().trees);
                    i += 1;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '?' => i += 1,
                _ => break,
            }
        }

        // A chain that *ends* on an acquisition and sits on the RHS of a
        // `let` binds the guard to that variable (scope-lived).
        if let Some(a) = last_acq {
            if matches!(links.last(), Some(Link::Method(m)) if ["lock", "try_lock", "read", "write"].contains(&m.as_str()))
            {
                self.facts.acqs[a].guard_var = pending_let.take();
            }
        }
        // Likewise a chain ending on a call binds the call's result.
        if let Some(c) = last_call {
            self.facts.calls[c].bind_var = pending_let.take();
        }
        i
    }

    fn push_call(
        &mut self,
        base: Base,
        links: Vec<Link>,
        qualifier: Option<String>,
        name: String,
        line: usize,
        has_args: bool,
    ) {
        self.facts.calls.push(Call {
            base,
            links,
            qualifier,
            name,
            line,
            has_args,
            bind_var: None,
            in_permit: self.permit > 0,
            loop_depth: self.loop_depth,
            spin_depth: self.spin_depth,
        });
        self.facts.events.push(Event::Call(self.facts.calls.len() - 1));
    }
}

/// Receiver key for an acquisition: last field link, else the base
/// identifier (`self.core.staging.lock()` → `staging`,
/// `buf.lock()` → `buf`).
fn recv_key(base: &Base, links: &[Link]) -> String {
    for l in links.iter().rev() {
        if let Link::Field(f) = l {
            return f.clone();
        }
    }
    match base {
        Base::Ident(n) => n.clone(),
        Base::SelfVal => "self".to_string(),
        Base::None => String::new(),
    }
}

/// Could `trees[i]` (an identifier) start a chain or call? True when
/// followed by `.`, `::` or `(`.
fn chain_starts(trees: &[TokenTree], i: usize) -> bool {
    match trees.get(i + 1) {
        Some(TokenTree::Punct(p)) if p.as_char() == '.' => {
            // `1.0` floats never reach here (identifier base), but rule
            // out range expressions `a..b`.
            !matches!(trees.get(i + 2), Some(TokenTree::Punct(q)) if q.as_char() == '.')
        }
        Some(TokenTree::Group(g)) => g.delimiter() == Delimiter::Parenthesis,
        Some(TokenTree::Punct(p)) if p.as_char() == ':' => {
            path_sep(trees, i + 1) && matches!(trees.get(i + 3), Some(TokenTree::Ident(_)))
        }
        _ => false,
    }
}

/// Is `trees[i]` the start of a `::` separator followed by an ident?
fn path_sep(trees: &[TokenTree], i: usize) -> bool {
    matches!(
        (trees.get(i), trees.get(i + 1)),
        (Some(TokenTree::Punct(a)), Some(TokenTree::Punct(b)))
            if a.as_char() == ':' && b.as_char() == ':'
    )
}
