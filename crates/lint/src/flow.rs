//! The one graph-aware rule, F001, and the registry that names the
//! workspace's replicated-state types, ordered-delivery gates and
//! audited exemptions.
//!
//! JOSHUA's symmetric active/active replication (PAPER.md §3) is
//! correct only if every head is a deterministic state machine driven
//! exclusively by the totally ordered command stream: replicated state
//! may change *only* in response to delivered commands, never from
//! timers, raw network receives, or local fault handlers. Which
//! *constructs* a replica may use (hash collections, clocks, floats,
//! panics, catch-all arms) is clippy's to check, over resolved names
//! and types (DESIGN.md §7.2); which *functions* may write replicated
//! state needs a registry the compiler does not have, and that is this
//! rule:
//!
//! * **F001** — replication boundary: a registered replicated-state
//!   type may only be mutated on call paths that pass through an
//!   ordered-delivery/recovery gate. Checked by *gate interposition*:
//!   BFS from every `Process` callback root with the gate functions
//!   removed from the graph; any mutator still reachable is a leak,
//!   and the BFS parent chain is the shortest gate-avoiding witness.
//!
//! Receiver resolution is heuristic (see [`crate::graph`]).
//! Unresolvable calls degrade to *no edge* (possible false negatives
//! through trait objects and closures) or, when a method name is unique
//! workspace-wide, to a name-matched edge (possible false positives —
//! waived with audited pragmas). That trade keeps the analysis
//! zero-dependency, fast, and honest about what it proves: the *shape*
//! of the call graph, not a type-checked semantics.

use crate::graph::Graph;
use crate::model::Model;
use crate::report::{Finding, Rule};
use std::collections::BTreeSet;

/// The F rule table.
pub const RULES: &[Rule] = &[
    Rule {
        code: "F001",
        summary: "replicated state is only written through ordered-delivery gates",
        why: "checked by gate interposition: BFS from Process callbacks with the gates removed; any reachable mutator is a leak (shortest chain shown)",
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

/// Analysis configuration: the registry F001 runs against.
/// `FlowConfig::workspace` is the audited production registry;
/// fixtures construct their own (the default registry is empty).
#[derive(Clone, Debug, Default)]
pub struct FlowConfig {
    /// Replicated-state types.
    pub replicated: Vec<ReplicatedState>,
    /// Ordered-delivery / recovery-replay gate functions, as
    /// `Type::method`, `Type::*`, or free-fn name specs.
    pub gates: Vec<String>,
    /// `Process` impl types exempt from F001 roots, with audited
    /// reasons (the paper's intentionally-unreplicated baselines).
    pub exempt_roots: Vec<(String, String)>,
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
        }
    }
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

/// Run F001 over the call graph; raw findings, before suppression.
/// Each carries its witness: the `A -> B -> C` text in the message and
/// one `Type::method (path:line)` line per hop — the line of the call
/// site into the next hop (the function's own definition line for the
/// final hop).
pub(crate) fn check(cfg: &FlowConfig, model: &Model, g: &Graph<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
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
            let hops = g.chain_to(&parents, m);
            let names: Vec<&str> = hops
                .iter()
                .map(|(id, _)| g.fns[*id].qualified.as_str())
                .collect();
            let chain = hops
                .iter()
                .map(|(id, via)| {
                    let f = g.fns[*id];
                    format!("{} ({}:{})", f.qualified, f.path, via.unwrap_or(f.line))
                })
                .collect();
            let f = g.fns[m];
            out.push(Finding {
                rule: "F001",
                path: f.path.clone(),
                line: f.line,
                message: format!(
                    "replicated state `{}` is written by `{}` on a path that avoids \
                     every ordered-delivery gate: {}",
                    state.type_name,
                    f.qualified,
                    names.join(" -> "),
                ),
                chain,
            });
        }
    }
    out
}
