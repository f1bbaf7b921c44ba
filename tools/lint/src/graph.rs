//! Static lock-graph construction: replay each function's event stream
//! with a live-guard stack, record every may-hold-while-acquiring edge
//! (direct or through resolved calls), check the edges against the
//! declared level hierarchy, and flag blocking calls made while a guard
//! is live (rule R6).

use std::collections::BTreeMap;

use crate::model::{
    Event, Finding, GraphEdge, LockGraph, Rule, Site,
};
use crate::resolve::{is_blocking_primitive, Workspace};

struct Live {
    class: String,
    site: Site,
    var: Option<String>,
    /// Scope depth the guard dies at (for `let`-bound guards) — or the
    /// depth whose next statement boundary kills it (temporaries).
    depth: usize,
    stmt_lived: bool,
}

pub struct GraphOut {
    pub graph: LockGraph,
    pub findings: Vec<Finding>,
}

/// `allows(file, line, slug)` consults the per-file marker maps.
pub fn build(ws: &Workspace, allows: &dyn Fn(&str, usize, &str) -> bool) -> GraphOut {
    let mut edges: BTreeMap<(String, String), GraphEdge> = BTreeMap::new();
    let mut findings = Vec::new();

    for (i, f) in ws.fns.iter().enumerate() {
        let mut live: Vec<Live> = Vec::new();
        let mut depth = 0usize;
        let mut r6_lines: Vec<usize> = Vec::new();
        for ev in &f.events {
            match ev {
                Event::Open | Event::LoopOpen => depth += 1,
                Event::Close | Event::LoopClose => {
                    live.retain(|l| l.depth < depth);
                    depth = depth.saturating_sub(1);
                }
                Event::Stmt => live.retain(|l| !(l.stmt_lived && l.depth == depth)),
                Event::Drop(v) => live.retain(|l| l.var.as_deref() != Some(v.as_str())),
                Event::Acq(a) => {
                    let acq = &f.acqs[*a];
                    let Some(d) = ws.resolve_acq(f, &acq.recv_key, acq.mode) else {
                        continue;
                    };
                    let class = ws.decls[d].class.clone();
                    let site = Site { file: f.file.clone(), line: acq.line };
                    if acq.mode.waits() {
                        for l in &live {
                            add_edge(&mut edges, &l.class, &class, &l.site, &site, Vec::new());
                        }
                    }
                    live.push(Live {
                        class,
                        site,
                        var: acq.guard_var.clone(),
                        depth,
                        stmt_lived: acq.guard_var.is_none(),
                    });
                }
                Event::Call(c) => {
                    let call = &f.calls[*c];
                    let res = &ws.resolved[i][*c];
                    // Interprocedural edges: everything the callee may
                    // acquire is acquired while our guards are live.
                    for &callee in &res.callees {
                        for (class, (site, chain)) in &ws.trans_acq[callee] {
                            let mut via = vec![format!("{}:{}", call.name, call.line)];
                            via.extend(chain.iter().cloned());
                            for l in &live {
                                add_edge(&mut edges, &l.class, class, &l.site, site, via.clone());
                            }
                        }
                    }
                    // R6: blocking while holding a guard.
                    if !live.is_empty() && !call.in_permit && !r6_lines.contains(&call.line) {
                        let blocking: Option<(Site, Vec<String>, String)> = if res.external {
                            is_blocking_primitive(call).then(|| {
                                (
                                    Site { file: f.file.clone(), line: call.line },
                                    Vec::new(),
                                    call.name.clone(),
                                )
                            })
                        } else {
                            res.callees
                                .iter()
                                .find_map(|&callee| ws.trans_blocking[callee].clone())
                                .map(|(site, chain, label)| {
                                    let mut via = vec![format!("{}:{}", call.name, call.line)];
                                    via.extend(chain);
                                    (site, via, label)
                                })
                        };
                        if let Some((bsite, via, label)) = blocking {
                            if !allows(&f.file, call.line, Rule::R6HoldAcrossBlocking.slug()) {
                                let holder = &live[live.len() - 1];
                                let via_s = if via.is_empty() {
                                    String::new()
                                } else {
                                    format!(" via {}", via.join(" -> "))
                                };
                                findings.push(Finding {
                                    rule: Rule::R6HoldAcrossBlocking,
                                    file: f.file.clone(),
                                    line: call.line,
                                    message: format!(
                                        "blocking call `{label}`{via_s} while holding \
                                         `{}` — wrap in syncguard::permit_blocking with a \
                                         deadlock-freedom argument, or release the guard",
                                        holder.class
                                    ),
                                    related: vec![holder.site.clone(), bsite],
                                });
                                r6_lines.push(call.line);
                            }
                        }
                    }
                    // Guard-carrying constructors (`start_barrier`)
                    // leave their guard live in this scope.
                    for &callee in &res.callees {
                        for class in &ws.carried[callee] {
                            if live.iter().any(|l| l.class == *class) {
                                continue;
                            }
                            let site = Site { file: f.file.clone(), line: call.line };
                            for l in &live {
                                add_edge(&mut edges, &l.class, class, &l.site, &site, Vec::new());
                            }
                            live.push(Live {
                                class: class.clone(),
                                site,
                                var: None,
                                depth,
                                stmt_lived: false,
                            });
                        }
                    }
                }
            }
        }
    }

    // Level check over the deduplicated edge set.
    let level_of = |class: &str| ws.class_decl.get(class).map(|&i| ws.decls[i].level);
    for e in edges.values() {
        let (Some(from_lv), Some(to_lv)) = (level_of(&e.from), level_of(&e.to)) else {
            continue;
        };
        if allows(&e.to_site.file, e.to_site.line, Rule::LockOrder.slug()) {
            continue;
        }
        let via_s = if e.via.is_empty() {
            String::new()
        } else {
            format!(" via {}", e.via.join(" -> "))
        };
        let problem = if e.from == e.to {
            Some(format!(
                "`{}` (level {}) may be re-acquired while already held{via_s}",
                e.from, from_lv
            ))
        } else if to_lv < from_lv {
            Some(format!(
                "lock-order inversion: acquiring `{}` (level {to_lv}) while holding \
                 `{}` (level {from_lv}){via_s} — levels must not decrease",
                e.to, e.from
            ))
        } else if to_lv == from_lv {
            Some(format!(
                "same-level acquisition: `{}` and `{}` are both level {from_lv} and \
                 may nest{via_s} — equal levels must never be held together",
                e.to, e.from
            ))
        } else {
            None
        };
        if let Some(message) = problem {
            findings.push(Finding {
                rule: Rule::LockOrder,
                file: e.to_site.file.clone(),
                line: e.to_site.line,
                message,
                related: vec![e.from_site.clone()],
            });
        }
    }

    // Nodes: every declared class, one entry each, sorted by (level,
    // class) like the runtime report.
    let mut nodes: Vec<(String, u16, Site)> = Vec::new();
    for (class, &i) in &ws.class_decl {
        let d = &ws.decls[i];
        nodes.push((class.clone(), d.level, d.site.clone()));
    }
    nodes.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));

    GraphOut {
        graph: LockGraph { nodes, edges: edges.into_values().collect() },
        findings,
    }
}

fn add_edge(
    edges: &mut BTreeMap<(String, String), GraphEdge>,
    from: &str,
    to: &str,
    from_site: &Site,
    to_site: &Site,
    via: Vec<String>,
) {
    edges.entry((from.to_string(), to.to_string())).or_insert_with(|| GraphEdge {
        from: from.to_string(),
        to: to.to_string(),
        from_site: from_site.clone(),
        to_site: to_site.clone(),
        via,
    });
}

/// The static lock graph in Graphviz DOT form — same shape as the
/// runtime `syncguard::dot()` dump (nodes labelled with levels), with
/// edge labels carrying the witness call chain instead of dynamic
/// acquisition counts.
pub fn dot(graph: &LockGraph) -> String {
    let mut out = String::from(
        "digraph lock_order_static {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    for (class, level, _) in &graph.nodes {
        out.push_str(&format!("  \"{class}\" [label=\"{class}\\nlevel {level}\"];\n"));
    }
    for e in &graph.edges {
        let label = if e.via.is_empty() {
            format!("{}:{}", tail(&e.to_site.file), e.to_site.line)
        } else {
            e.via.join("\\n")
        };
        out.push_str(&format!("  \"{}\" -> \"{}\" [label=\"{label}\"];\n", e.from, e.to));
    }
    out.push_str("}\n");
    out
}

fn tail(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}
