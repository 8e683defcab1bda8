//! The scheduler (the Maui stand-in): one fixed decision.
//!
//! The paper configures Maui with its default FIFO policy and exclusive
//! per-job cluster access "to produce deterministic allocation behavior".
//! That is the only scheduler here, [`FifoExclusive`]. Its decision reads
//! the queue head, the node pool and whether any job still runs. It never
//! reads the clock, so replicas that apply the same command at different
//! local times start the same job on the same nodes.

use crate::job::Job;
use crate::resources::NodePool;
use std::rc::Rc;

/// The paper's configuration: strict FIFO, one job at a time, whole
/// cluster per job.
#[derive(Clone, Copy, Debug)]
pub struct FifoExclusive;

impl FifoExclusive {
    /// The nodes to start `head`, the first queued job, on: every online
    /// node, once no job is `Running` or `Exiting` (`busy`) and no node is
    /// busy. `None` while it must wait, which includes asking for more
    /// nodes than are online.
    ///
    /// `busy` is its own input because the pool cannot see every running
    /// job: one whose nodes all went offline leaves no node busy.
    pub(crate) fn select(head: &Job, pool: &NodePool, busy: bool) -> Option<Vec<Rc<str>>> {
        if busy || !pool.all_idle() {
            return None;
        }
        let nodes = pool.online_nodes();
        (!nodes.is_empty() && head.spec.nodes as usize <= nodes.len()).then_some(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobSpec};

    fn pool(n: usize) -> NodePool {
        NodePool::new((0..n).map(|i| format!("c{i:02}")))
    }

    fn job(nodes: u32) -> Job {
        let mut spec = JobSpec::trivial("j");
        spec.nodes = nodes;
        Job::queued(JobId(1), spec)
    }

    #[test]
    fn exclusive_gives_whole_cluster_to_head() {
        let nodes = FifoExclusive::select(&job(1), &pool(4), false);
        assert_eq!(nodes.map(|n| n.len()), Some(4), "exclusive = all nodes");
    }

    #[test]
    fn exclusive_refuses_while_any_job_runs() {
        let mut p = pool(2);
        p.allocate(&[Rc::from("c00")]);
        assert_eq!(FifoExclusive::select(&job(1), &p, true), None);
    }

    #[test]
    fn exclusive_refuses_oversized_job_and_an_offline_cluster() {
        let mut p = pool(2);
        assert_eq!(FifoExclusive::select(&job(5), &p, false), None);
        p.set_offline("c00");
        p.set_offline("c01");
        assert_eq!(FifoExclusive::select(&job(1), &p, false), None);
    }
}
