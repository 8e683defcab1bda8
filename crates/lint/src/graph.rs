//! Cross-crate call graph over the extracted model, with the receiver
//! resolution heuristics and shortest-path (BFS) witness chains the
//! rules report.
//!
//! Resolution is deliberately conservative for the workspace's shapes:
//!
//! * `self.m(..)` → the impl type's method.
//! * `self.field.m(..)` → the field's (peeled) type's method.
//! * `var.m(..)` → the parameter's or `let` binding's type's method.
//! * `Type::m(..)` / `Self::m(..)` → that type's method.
//! * `free_fn(..)` → same-crate free function, else any workspace free
//!   function of that name.
//! * anything else (chained receivers) → linked only when the method
//!   name is unique workspace-wide, so common std names never create
//!   phantom edges.
//!
//! Edges never point into `#[cfg(test)]` functions from production
//! functions: a test helper sharing a name with a production method
//! must not create a phantom path.

use crate::model::{BindSrc, FnDef, Model, Recv};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A resolved call edge: callee function id plus the source line of
/// the call site (for witness chains).
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee function id.
    pub to: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
}

/// The call graph: flat function table plus adjacency.
pub struct Graph<'m> {
    /// Flattened function list; ids index into this.
    pub fns: Vec<&'m FnDef>,
    /// Outgoing edges per function id.
    pub edges: Vec<Vec<Edge>>,
    /// `Type::name` / bare `name` → function ids.
    pub by_qualified: BTreeMap<&'m str, Vec<usize>>,
    /// Method name → function ids (methods only, for the unique-name
    /// fallback).
    by_method_name: BTreeMap<&'m str, Vec<usize>>,
}

/// Build the call graph for a whole model.
pub(crate) fn build(model: &Model) -> Graph<'_> {
    let fns: Vec<&FnDef> = model.fns().collect();
    let mut by_qualified: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_method_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, f) in fns.iter().enumerate() {
        by_qualified
            .entry(f.qualified.as_str())
            .or_default()
            .push(id);
        if f.impl_type.is_some() {
            by_method_name.entry(f.name.as_str()).or_default().push(id);
        }
    }
    let mut g = Graph {
        fns,
        edges: Vec::new(),
        by_qualified,
        by_method_name,
    };

    // A call site that resolves to no function (std calls, closures,
    // macros) simply contributes no edge.
    let mut all_edges: Vec<Vec<Edge>> = Vec::with_capacity(g.fns.len());
    for f in &g.fns {
        let mut edges = Vec::new();
        for call in &f.calls {
            let targets: Vec<usize> = match &call.recv {
                Recv::SelfDot => match f.impl_type.as_deref() {
                    Some(t) => g.lookup_method(f, t, &call.name),
                    None => Vec::new(),
                },
                Recv::Field(field) => {
                    let ft = f
                        .impl_type
                        .as_deref()
                        .and_then(|t| model.field_type(t, field));
                    match ft {
                        Some(t) => g.lookup_method(f, t, &call.name),
                        None => Vec::new(),
                    }
                }
                Recv::Var(v) => match g.var_type(model, f, v) {
                    Some(t) => g.lookup_method(f, &t, &call.name),
                    None => g.unique_method(f, &call.name),
                },
                Recv::Path(p) => {
                    let t = if p == "Self" {
                        f.impl_type.clone().unwrap_or_else(|| p.clone())
                    } else {
                        p.clone()
                    };
                    g.lookup_method(f, &t, &call.name)
                }
                Recv::Bare => {
                    // Free function: same name, no impl type.
                    let ids: Vec<usize> = g
                        .by_qualified
                        .get(call.name.as_str())
                        .map(|ids| {
                            ids.iter()
                                .copied()
                                .filter(|&id| g.fns[id].impl_type.is_none())
                                .collect()
                        })
                        .unwrap_or_default();
                    g.prefer_same_crate(f, &ids)
                }
                Recv::Chain => g.unique_method(f, &call.name),
            };
            for t in targets {
                edges.push(Edge {
                    to: t,
                    line: call.line,
                });
            }
        }
        all_edges.push(edges);
    }
    g.edges = all_edges;
    g
}

impl<'m> Graph<'m> {
    /// Candidate targets for `ty::name`, preferring the caller's
    /// crate; production callers never link into test functions.
    fn lookup_method(&self, caller: &FnDef, ty: &str, name: &str) -> Vec<usize> {
        let q = format!("{ty}::{name}");
        let Some(ids) = self.by_qualified.get(q.as_str()) else {
            return Vec::new();
        };
        self.prefer_same_crate(caller, ids)
    }

    /// The candidates `caller` may link to: production callers never
    /// see test functions.
    fn visible(&self, caller: &FnDef, ids: &[usize]) -> Vec<usize> {
        ids.iter()
            .copied()
            .filter(|&id| caller.is_test || !self.fns[id].is_test)
            .collect()
    }

    fn prefer_same_crate(&self, caller: &FnDef, ids: &[usize]) -> Vec<usize> {
        let visible = self.visible(caller, ids);
        let same: Vec<usize> = visible
            .iter()
            .copied()
            .filter(|&id| self.fns[id].crate_key == caller.crate_key)
            .collect();
        if same.is_empty() {
            visible
        } else {
            same
        }
    }

    /// Unique-name fallback for unresolvable receivers: link only when
    /// exactly one non-test method in the workspace has this name.
    fn unique_method(&self, caller: &FnDef, name: &str) -> Vec<usize> {
        let Some(ids) = self.by_method_name.get(name) else {
            return Vec::new();
        };
        let vis = self.visible(caller, ids);
        if vis.len() == 1 {
            vis
        } else {
            Vec::new()
        }
    }

    /// Type of a variable inside `f`: `let` bindings first (last one
    /// wins), then parameters.
    fn var_type(&self, model: &Model, f: &FnDef, var: &str) -> Option<String> {
        let bound = f
            .bindings
            .iter()
            .rev()
            .find(|(n, _)| n == var)
            .map(|(_, s)| s);
        if let Some(src) = bound {
            return match src {
                BindSrc::Typed(t) => Some(t.clone()),
                BindSrc::FieldOf(field) => {
                    let t = f.impl_type.as_deref()?;
                    model.field_type(t, field).map(str::to_string)
                }
                BindSrc::SelfRet(m) => {
                    let t = f.impl_type.as_deref()?;
                    let q = format!("{t}::{m}");
                    self.by_qualified
                        .get(q.as_str())
                        .and_then(|ids| ids.first())
                        .and_then(|&id| self.fns[id].ret.clone())
                }
            };
        }
        f.params
            .iter()
            .find(|(n, _)| n == var)
            .map(|(_, t)| t.clone())
    }

    /// Function ids matching a gate spec: `Type::method`, `Type::*`
    /// (every method of `Type`), or a bare free-function name.
    pub(crate) fn resolve_spec(&self, spec: &str) -> Vec<usize> {
        if let Some(ty) = spec.strip_suffix("::*") {
            let prefix = format!("{ty}::");
            return self
                .by_qualified
                .iter()
                .filter(|(q, _)| q.starts_with(&prefix))
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect();
        }
        self.by_qualified.get(spec).cloned().unwrap_or_default()
    }

    /// Shortest-hop BFS from `starts`, never entering `blocked`.
    /// Returns a parent map: reached id → `Some((pred, call line))`,
    /// or `None` for the starts themselves.
    pub(crate) fn reach(
        &self,
        starts: &[usize],
        blocked: &BTreeSet<usize>,
    ) -> BTreeMap<usize, Option<(usize, usize)>> {
        let mut parents: BTreeMap<usize, Option<(usize, usize)>> = BTreeMap::new();
        let mut q = VecDeque::new();
        for &s in starts {
            if blocked.contains(&s) || parents.contains_key(&s) {
                continue;
            }
            parents.insert(s, None);
            q.push_back(s);
        }
        while let Some(v) = q.pop_front() {
            for e in &self.edges[v] {
                if blocked.contains(&e.to) || parents.contains_key(&e.to) {
                    continue;
                }
                parents.insert(e.to, Some((v, e.line)));
                q.push_back(e.to);
            }
        }
        parents
    }

    /// Walk parent pointers back to a start: the chain of function ids
    /// from start to `v`, each with the line of its call into the next
    /// one (`None` for `v` itself).
    pub(crate) fn chain_to(
        &self,
        parents: &BTreeMap<usize, Option<(usize, usize)>>,
        v: usize,
    ) -> Vec<(usize, Option<usize>)> {
        let mut chain = Vec::new();
        let mut cur = v;
        let mut entered_via: Option<usize> = None;
        loop {
            chain.push((cur, entered_via));
            match parents.get(&cur) {
                Some(Some((pred, line))) => {
                    entered_via = Some(*line);
                    cur = *pred;
                }
                _ => break,
            }
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(files: &[(&str, &str)]) -> Model {
        Model::build(files)
    }

    #[test]
    fn edges_resolve_through_fields_and_params() {
        let m = model_of(&[(
            "crates/core/src/a.rs",
            "\
struct Server { group: Member }
struct Member { n: u64 }
impl Member {
    fn broadcast(&mut self) {}
}
impl Server {
    fn tick(&mut self, ctx: &mut Ctx) {
        self.group.broadcast();
        self.flush();
    }
    fn flush(&mut self) {}
}
",
        )]);
        let g = build(&m);
        let tick = g.resolve_spec("Server::tick")[0];
        let names: Vec<&str> = g.edges[tick]
            .iter()
            .map(|e| g.fns[e.to].qualified.as_str())
            .collect();
        assert!(names.contains(&"Member::broadcast"));
        assert!(names.contains(&"Server::flush"));
    }

    #[test]
    fn bfs_respects_blocked_gates_and_yields_chains() {
        let m = model_of(&[(
            "crates/core/src/a.rs",
            "\
impl S {
    fn root(&mut self) {
        self.gate();
        self.side();
    }
    fn gate(&mut self) {
        self.target();
    }
    fn side(&mut self) {
        self.target();
    }
    fn target(&mut self) {}
}
",
        )]);
        let g = build(&m);
        let root = g.resolve_spec("S::root")[0];
        let gate = g.resolve_spec("S::gate")[0];
        let target = g.resolve_spec("S::target")[0];
        let blocked: BTreeSet<usize> = [gate].into_iter().collect();
        let parents = g.reach(&[root], &blocked);
        assert!(
            parents.contains_key(&target),
            "reaches target around the gate"
        );
        let chain = g.chain_to(&parents, target);
        let path: Vec<&str> = chain
            .iter()
            .map(|(id, _)| g.fns[*id].qualified.as_str())
            .collect();
        assert_eq!(path, vec!["S::root", "S::side", "S::target"]);
        // With the side door also blocked nothing reaches the target.
        let blocked2: BTreeSet<usize> = [gate, g.resolve_spec("S::side")[0]].into_iter().collect();
        assert!(!g.reach(&[root], &blocked2).contains_key(&target));
    }

    #[test]
    fn test_helpers_never_shadow_production_methods() {
        let m = model_of(&[(
            "crates/core/src/a.rs",
            "\
impl S {
    fn caller(&mut self, x: Widget) {
        x.frob();
    }
}
#[cfg(test)]
mod tests {
    impl Widget {
        fn frob(&self) {}
    }
}
",
        )]);
        let g = build(&m);
        let caller = g.resolve_spec("S::caller")[0];
        assert!(g.edges[caller].is_empty(), "no edge into a test-only impl");
    }
}
