//! Compute-node resource tracking.

use jrs_sim::ProcId;
use std::collections::BTreeMap;

/// State of one compute node from the server's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// Available for allocation.
    Free,
    /// Allocated to a running job.
    Busy,
    /// Administratively or by failure unavailable.
    Offline,
}

/// One compute node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ComputeNode {
    /// Node name (sorted order defines deterministic allocation).
    pub name: String,
    /// The mom daemon process serving this node, once known.
    pub mom: Option<ProcId>,
    /// Allocation state.
    pub state: NodeState,
}

/// The server's pool of compute nodes.
///
/// Determinism note: all iteration is in node-name order, so every replica
/// allocates the same nodes to the same job.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodePool {
    nodes: BTreeMap<String, ComputeNode>,
}

impl NodePool {
    /// Pool from a list of node names.
    pub fn new(names: impl IntoIterator<Item = String>) -> Self {
        let nodes = names
            .into_iter()
            .map(|name| {
                (
                    name.clone(),
                    ComputeNode {
                        name,
                        mom: None,
                        state: NodeState::Free,
                    },
                )
            })
            .collect();
        NodePool { nodes }
    }

    /// Pool from fully described nodes (decoding a durable snapshot).
    pub fn from_nodes(nodes: impl IntoIterator<Item = ComputeNode>) -> Self {
        NodePool {
            nodes: nodes.into_iter().map(|n| (n.name.clone(), n)).collect(),
        }
    }

    /// Register (or update) the mom process for a node.
    pub fn set_mom(&mut self, name: &str, mom: ProcId) {
        if let Some(n) = self.nodes.get_mut(name) {
            n.mom = Some(mom);
        }
    }

    /// The mom serving a node.
    pub fn mom_of(&self, name: &str) -> Option<ProcId> {
        self.nodes.get(name).and_then(|n| n.mom)
    }

    /// Names of currently free nodes, sorted.
    pub(crate) fn free_nodes(&self) -> Vec<String> {
        self.nodes
            .values()
            .filter(|n| n.state == NodeState::Free)
            .map(|n| n.name.clone())
            .collect()
    }

    /// Names of all non-offline nodes, sorted.
    pub(crate) fn online_nodes(&self) -> Vec<String> {
        self.nodes
            .values()
            .filter(|n| n.state != NodeState::Offline)
            .map(|n| n.name.clone())
            .collect()
    }

    /// Count of free nodes.
    #[cfg(test)]
    pub(crate) fn free_count(&self) -> usize {
        self.nodes
            .values()
            .filter(|n| n.state == NodeState::Free)
            .count()
    }

    /// Are all non-offline nodes free (cluster idle)?
    pub(crate) fn all_idle(&self) -> bool {
        self.nodes.values().all(|n| n.state != NodeState::Busy)
    }

    /// Mark nodes busy (allocation).
    pub fn allocate(&mut self, names: &[String]) {
        for name in names {
            if let Some(n) = self.nodes.get_mut(name) {
                debug_assert_eq!(n.state, NodeState::Free, "double allocation of {name}");
                n.state = NodeState::Busy;
            }
        }
    }

    /// Mark nodes free again (job finished).
    pub fn release(&mut self, names: &[String]) {
        for name in names {
            if let Some(n) = self.nodes.get_mut(name) {
                if n.state == NodeState::Busy {
                    n.state = NodeState::Free;
                }
            }
        }
    }

    /// Take a node offline (mom failure); releases it from allocations.
    pub fn set_offline(&mut self, name: &str) {
        if let Some(n) = self.nodes.get_mut(name) {
            n.state = NodeState::Offline;
        }
    }

    /// Bring a node back online.
    pub fn set_online(&mut self, name: &str) {
        if let Some(n) = self.nodes.get_mut(name) {
            if n.state == NodeState::Offline {
                n.state = NodeState::Free;
            }
        }
    }

    /// Iterate nodes in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ComputeNode> {
        self.nodes.values()
    }

    /// Allocation state only — excludes mom registrations, which are
    /// replica-local wiring rather than replicated state.
    pub fn alloc_state(&self) -> Vec<(String, NodeState)> {
        self.nodes
            .values()
            .map(|n| (n.name.clone(), n.state))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> NodePool {
        NodePool::new(["n2", "n1", "n3"].map(String::from))
    }

    #[test]
    fn nodes_sorted_by_name() {
        let p = pool();
        let names: Vec<&str> = p.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["n1", "n2", "n3"]);
    }

    #[test]
    fn allocate_and_release() {
        let mut p = pool();
        assert!(p.all_idle());
        let alloc = vec!["n1".to_string(), "n2".to_string()];
        p.allocate(&alloc);
        assert_eq!(p.free_nodes(), vec!["n3"]);
        assert!(!p.all_idle());
        p.release(&alloc);
        assert_eq!(p.free_count(), 3);
    }

    #[test]
    fn offline_excluded_from_free() {
        let mut p = pool();
        p.set_offline("n2");
        assert_eq!(p.free_nodes(), vec!["n1", "n3"]);
        assert_eq!(p.online_nodes(), vec!["n1", "n3"]);
        // A cluster with running nothing but an offline node is still idle.
        assert!(p.all_idle());
        p.set_online("n2");
        assert_eq!(p.free_count(), 3);
    }

    #[test]
    fn mom_registration() {
        let mut p = pool();
        assert_eq!(p.mom_of("n1"), None);
        p.set_mom("n1", ProcId(9));
        assert_eq!(p.mom_of("n1"), Some(ProcId(9)));
        p.set_mom("unknown", ProcId(1)); // silently ignored
        assert_eq!(p.mom_of("unknown"), None);
    }
}
