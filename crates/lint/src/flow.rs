//! The graph-aware rules (F001–F004), and the configuration registry
//! that names the workspace's replicated-state types, ordered-delivery
//! gates, and audited exemptions.
//!
//! JOSHUA's symmetric active/active replication (PAPER.md §3) is
//! correct only if every head is a deterministic state machine driven
//! exclusively by the totally ordered command stream: replicated state
//! may change *only* in response to delivered commands, never from
//! timers, raw network receives, or local fault handlers. The D/P rules
//! check determinism *lexically* (per file) and jrs-mc checks it
//! *dynamically* (bounded interleavings); these rules close the gap in
//! between with graph-reachability invariants over [`crate::graph`],
//! each reported with its shortest-call-chain witness:
//!
//! * **F001** — replication boundary: a registered replicated-state
//!   type may only be mutated on call paths that pass through an
//!   ordered-delivery/recovery gate. Checked by *gate interposition*:
//!   BFS from every `Process` callback root with the gate functions
//!   removed from the graph; any mutator still reachable is a leak,
//!   and the BFS parent chain is the shortest gate-avoiding witness.
//! * **F002** — no nondeterminism source (wall clock, ambient RNG,
//!   env, thread spawn, hash-ordered collections) transitively
//!   reachable from a replicated-state mutator or gate. This is
//!   D001–D003 upgraded from lexical to reachability form: it ignores
//!   test/bench code automatically and catches cross-crate leaks the
//!   per-crate line scoping cannot see.
//! * **F003** — no panic construct (`unwrap`/`expect`/`panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!`) reachable from a
//!   `Process` callback, reported with the full call chain (upgrading
//!   the file-scoped P001 to the whole delivery graph).
//! * **F004** — protocol matches over the registered protocol enums
//!   must not end in a catch-all arm: a new protocol variant must be a
//!   compile error, never a silent drop.
//!
//! Receiver resolution is heuristic (see [`crate::graph`]).
//! Unresolvable calls degrade to *no edge* (possible false negatives
//! through trait objects and closures) or, when a method name is unique
//! workspace-wide, to a name-matched edge (possible false positives —
//! waived with audited pragmas). That trade keeps the analysis
//! zero-dependency, fast, and honest about what it proves: the *shape*
//! of the call graph, not a type-checked semantics.

use crate::graph::Graph;
use crate::model::{AtomKind, Model};
use crate::report::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// The F rule table.
pub const RULES: &[Rule] = &[
    Rule {
        code: "F001",
        summary: "replicated state is only written through ordered-delivery gates",
        why: "checked by gate interposition: BFS from Process callbacks with the gates removed; any reachable mutator is a leak (shortest chain shown)",
    },
    Rule {
        code: "F002",
        summary: "no nondeterminism source (wall clock, ambient RNG, env, thread spawn, hash-ordered collections) reachable from a state mutator",
        why: "a replicated decision derived from one makes state a function of which machine applied the command, not just the command stream",
    },
    Rule {
        code: "F003",
        summary: "no panic construct (unwrap/expect/panic!/unreachable!/todo!) reachable from a Process callback",
        why: "a replica must degrade, not die",
    },
    Rule {
        code: "F004",
        summary: "matches over protocol enums never end in a catch-all arm",
        why: "a new protocol variant must be a compile error, not a silent drop",
    },
];

/// The `Process` trait callbacks that constitute event roots.
pub const CALLBACKS: &[&str] = &["on_start", "on_message", "on_timer"];

/// One registered replicated-state type.
#[derive(Clone, Debug, Default)]
pub struct ReplicatedState {
    /// Type name (struct/enum) whose `&mut self` methods, `&mut`
    /// params, and field replacements count as state writes.
    pub type_name: String,
    /// Crates whose event roots are held to the F001 boundary for this
    /// type.
    pub scope: Vec<String>,
    /// Why this type is registered (shown by `rules`).
    pub why: String,
}

/// Analysis configuration: the registry the rules run against.
/// `FlowConfig::workspace` is the audited production registry;
/// fixtures construct their own (the default registry is empty).
#[derive(Clone, Debug, Default)]
pub struct FlowConfig {
    /// Replicated-state types (F001/F002).
    pub replicated: Vec<ReplicatedState>,
    /// Ordered-delivery / recovery-replay gate functions, as
    /// `Type::method`, `Type::*`, or free-fn name specs.
    pub gates: Vec<String>,
    /// `Process` impl types exempt from F001 roots, with audited
    /// reasons (the paper's intentionally-unreplicated baselines).
    pub exempt_roots: Vec<(String, String)>,
    /// Protocol enums whose matches must stay exhaustive (F004).
    pub protocol_enums: Vec<String>,
    /// Crates whose `match` sites are checked (F004).
    pub match_scope: Vec<String>,
    /// Crates whose panic atoms are reportable (F003).
    pub panic_scope: Vec<String>,
    /// Crates whose `Process` impls are F003 roots.
    pub root_scope: Vec<String>,
    /// Crates whose nondeterminism atoms are reportable (F002).
    pub nondet_scope: Vec<String>,
}

impl FlowConfig {
    /// The audited registry for this workspace.
    pub(crate) fn workspace() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        FlowConfig {
            replicated: vec![
                ReplicatedState {
                    type_name: "PbsServerCore".into(),
                    scope: s(&["pbs", "core"]),
                    why: "the PBS job/queue/node state every head must hold identically".into(),
                },
                ReplicatedState {
                    type_name: "JMutexState".into(),
                    scope: s(&["core"]),
                    why: "the job-launch mutex grant table (paper §4: exactly-one-launch)".into(),
                },
                ReplicatedState {
                    type_name: "Engine".into(),
                    scope: s(&["core", "pbs"]),
                    why: "the total-order engine; only the GCS membership layer may drive it"
                        .into(),
                },
            ],
            gates: s(&[
                // The single choke point where delivered commands are
                // applied, plus recovery replay and state transfer —
                // the paths the paper's §3 model *requires* to touch
                // replicated state.
                "JoshuaServer::apply",
                "JoshuaServer::apply_command",
                "JoshuaServer::install_snapshot",
                "JoshuaServer::adopt_recovery",
                "JoshuaServer::on_catch_up",
                "JoshuaServer::on_ejected",
                // The GCS membership/ordering layer owns the engine.
                "GroupMember::*",
            ]),
            exempt_roots: vec![
                (
                    "PbsHeadProcess".into(),
                    "the paper's unreplicated baseline: one head, one copy — no \
                     replication boundary to protect"
                        .into(),
                ),
                (
                    "ActiveStandbyHead".into(),
                    "the active/standby baseline: state diverges by design between \
                     checkpoints"
                        .into(),
                ),
            ],
            protocol_enums: s(&["EngineMsg", "GcsMsg", "Wire", "Payload", "MomInbound"]),
            match_scope: s(&["gcs", "pbs", "core", "store", "joshua-repro"]),
            panic_scope: s(&["gcs", "pbs", "core", "store"]),
            root_scope: s(&["gcs", "pbs", "core"]),
            nondet_scope: s(&["gcs", "pbs", "core", "store", "sim", "joshua-repro"]),
        }
    }
}

/// Run every F rule over the call graph; raw findings, before
/// suppression.
pub(crate) fn check(cfg: &FlowConfig, model: &Model, g: &Graph<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    check_f001(cfg, model, g, &mut out);
    check_f002(cfg, model, g, &mut out);
    check_f003(cfg, g, &mut out);
    check_f004(cfg, model, &mut out);
    out
}

/// Function ids of `Process` callbacks in the given crates.
fn roots(g: &Graph<'_>, crates: &[String], exempt: &[(String, String)]) -> Vec<usize> {
    g.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test
                && f.impl_trait.as_deref() == Some("Process")
                && CALLBACKS.contains(&f.name.as_str())
                && crates.iter().any(|c| c == &f.crate_key)
                && !exempt
                    .iter()
                    .any(|(t, _)| Some(t.as_str()) == f.impl_type.as_deref())
        })
        .map(|(id, _)| id)
        .collect()
}

/// Function ids that write state of `type_name`: `&mut self` methods
/// of the type, functions taking it by `&mut`, and functions replacing
/// a field of that type.
fn mutators(g: &Graph<'_>, model: &Model, type_name: &str) -> Vec<usize> {
    g.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            if f.is_test {
                return false;
            }
            if f.impl_type.as_deref() == Some(type_name) && f.mut_self {
                return true;
            }
            if f.mut_param_types.iter().any(|t| t == type_name) {
                return true;
            }
            f.field_writes.iter().any(|w| {
                f.impl_type
                    .as_deref()
                    .and_then(|t| model.field_type(t, &w.field))
                    .is_some_and(|t| t == type_name)
            })
        })
        .map(|(id, _)| id)
        .collect()
}

/// The witness for the BFS path ending at `v`: the `A -> B -> C` text
/// for the message, and one `Type::method (path:line)` line per hop —
/// the line of the call site into the next hop (the function's own
/// definition line for the final hop).
fn witness(
    g: &Graph<'_>,
    parents: &BTreeMap<usize, Option<(usize, usize)>>,
    v: usize,
) -> (String, Vec<String>) {
    let chain = g.chain_to(parents, v);
    let names: Vec<&str> = chain
        .iter()
        .map(|(id, _)| g.fns[*id].qualified.as_str())
        .collect();
    let hops = chain
        .iter()
        .map(|(id, via)| {
            let f = g.fns[*id];
            format!("{} ({}:{})", f.qualified, f.path, via.unwrap_or(f.line))
        })
        .collect();
    (names.join(" -> "), hops)
}

fn check_f001(cfg: &FlowConfig, model: &Model, g: &Graph<'_>, out: &mut Vec<Finding>) {
    let blocked: BTreeSet<usize> = cfg.gates.iter().flat_map(|s| g.resolve_spec(s)).collect();
    for state in &cfg.replicated {
        let rs = roots(g, &state.scope, &cfg.exempt_roots);
        if rs.is_empty() {
            continue;
        }
        let parents = g.reach(&rs, &blocked);
        for m in mutators(g, model, &state.type_name) {
            if !parents.contains_key(&m) {
                continue;
            }
            let (text, chain) = witness(g, &parents, m);
            let f = g.fns[m];
            out.push(Finding {
                rule: "F001",
                path: f.path.clone(),
                line: f.line,
                message: format!(
                    "replicated state `{}` is written by `{}` on a path that avoids \
                     every ordered-delivery gate: {text}",
                    state.type_name, f.qualified,
                ),
                chain,
            });
        }
    }
}

fn check_f002(cfg: &FlowConfig, model: &Model, g: &Graph<'_>, out: &mut Vec<Finding>) {
    let mut starts: BTreeSet<usize> = cfg
        .replicated
        .iter()
        .flat_map(|s| mutators(g, model, &s.type_name))
        .collect();
    starts.extend(cfg.gates.iter().flat_map(|s| g.resolve_spec(s)));
    let starts: Vec<usize> = starts.into_iter().collect();
    let parents = g.reach(&starts, &BTreeSet::new());
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for &v in parents.keys() {
        let f = g.fns[v];
        if f.is_test || !cfg.nondet_scope.iter().any(|c| c == &f.crate_key) {
            continue;
        }
        for atom in &f.atoms {
            let kind_ok = matches!(
                atom.kind,
                AtomKind::WallClock
                    | AtomKind::Rng
                    | AtomKind::Env
                    | AtomKind::ThreadSpawn
                    | AtomKind::HashOrder
            );
            if !kind_ok || !seen.insert((f.path.clone(), atom.line, atom.token.clone())) {
                continue;
            }
            let (text, chain) = witness(g, &parents, v);
            out.push(Finding {
                rule: "F002",
                path: f.path.clone(),
                line: atom.line,
                message: format!(
                    "nondeterminism source `{}` is reachable from a replicated-state \
                     mutator: {text} (at {}:{})",
                    atom.token, f.path, atom.line,
                ),
                chain,
            });
        }
    }
}

fn check_f003(cfg: &FlowConfig, g: &Graph<'_>, out: &mut Vec<Finding>) {
    let rs = roots(g, &cfg.root_scope, &[]);
    if rs.is_empty() {
        return;
    }
    let parents = g.reach(&rs, &BTreeSet::new());
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for &v in parents.keys() {
        let f = g.fns[v];
        if f.is_test || !cfg.panic_scope.iter().any(|c| c == &f.crate_key) {
            continue;
        }
        for atom in &f.atoms {
            if atom.kind != AtomKind::Panic || !seen.insert((f.path.clone(), atom.line)) {
                continue;
            }
            let (text, chain) = witness(g, &parents, v);
            out.push(Finding {
                rule: "F003",
                path: f.path.clone(),
                line: atom.line,
                message: format!(
                    "panic-capable `{}` is reachable from a process callback: {text} \
                     (at {}:{})",
                    atom.token, f.path, atom.line,
                ),
                chain,
            });
        }
    }
}

/// Is this arm pattern a catch-all (`_`, `_name`, or a bare binding)?
fn is_catch_all(pattern: &str) -> bool {
    // Drop a guard: `x if cond` — the guard keeps it a catch-all shape
    // (a guarded wildcard still swallows unnamed variants when the
    // guard is true, and the F004 point is exhaustiveness at compile
    // time).
    let p = match pattern.find(" if ") {
        Some(i) => &pattern[..i],
        None => pattern,
    };
    let p = p.trim().trim_start_matches('&').trim();
    if p == "_" {
        return true;
    }
    p.chars().all(|c| c.is_alphanumeric() || c == '_')
        && p.chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
}

fn check_f004(cfg: &FlowConfig, model: &Model, out: &mut Vec<Finding>) {
    // The registry is audited like a pragma: a name that stops
    // resolving would otherwise leave its matches unchecked in silence.
    for e in &cfg.protocol_enums {
        if let Some(why) = model.stale_enum(e) {
            out.push(Finding::new(
                "SUPP",
                "crates/lint/src/flow.rs",
                1,
                format!(
                    "protocol-enum registry entry `{e}` {why} — F004 cannot name the \
                     variants a catch-all swallows; fix the name or remove the entry"
                ),
                Vec::new(),
            ));
        }
    }
    for facts in &model.files {
        if !cfg.match_scope.iter().any(|c| c == &facts.crate_key) {
            continue;
        }
        for site in &facts.matches {
            if site.is_test || site.arms.is_empty() {
                continue;
            }
            let mentioned: Vec<&str> = cfg
                .protocol_enums
                .iter()
                .map(String::as_str)
                .filter(|e| {
                    let needle = format!("{e}::");
                    site.arms.iter().any(|a| a.pattern.contains(&needle))
                })
                .collect();
            if mentioned.is_empty() {
                continue;
            }
            let Some(catch) = site.arms.iter().find(|a| is_catch_all(&a.pattern)) else {
                continue;
            };
            let mut swallowed = Vec::new();
            for e in &mentioned {
                if let Some(def) = model.enum_def(e) {
                    let missing: Vec<&str> = def
                        .variants
                        .iter()
                        .map(String::as_str)
                        .filter(|v| {
                            let needle = format!("{e}::{v}");
                            !site.arms.iter().any(|a| a.pattern.contains(&needle))
                        })
                        .collect();
                    if missing.is_empty() {
                        swallowed.push(format!("{e} (future variants)"));
                    } else {
                        swallowed.push(format!("{e}::{{{}}}", missing.join(", ")));
                    }
                }
            }
            out.push(Finding::new(
                "F004",
                &facts.path,
                catch.line,
                format!(
                    "match over protocol enum{} {} ends in catch-all `{}` — silently \
                     swallows {}; name every variant so new protocol messages are a \
                     compile error",
                    if mentioned.len() > 1 { "s" } else { "" },
                    mentioned.join(", "),
                    catch.pattern,
                    swallowed.join("; "),
                ),
                Vec::new(),
            ));
        }
    }
}
