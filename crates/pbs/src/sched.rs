//! Scheduling policies (the Maui stand-in).
//!
//! The paper configures Maui with its default FIFO policy and exclusive
//! per-job cluster access "to produce deterministic allocation behavior" —
//! that is [`FifoExclusive`]. [`FifoShared`] and [`Backfill`] lift that
//! restriction (the paper's "may be lifted in the future if deterministic
//! allocation behavior can be assured" — both are deterministic here) and
//! serve as scheduling ablations.

use crate::job::{Job, JobId};
use crate::resources::NodePool;
use jrs_sim::SimTime;
use std::fmt;

/// A scheduling decision: run `job` on `nodes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// The job to start.
    pub job: JobId,
    /// Node names to run it on (deterministically ordered).
    pub nodes: Vec<String>,
}

/// A scheduling policy. Must be deterministic: identical inputs must yield
/// identical decisions on every replica.
pub trait Policy: fmt::Debug {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Clone into a fresh box (policies are stateless markers; this lets
    /// a whole [`crate::PbsServerCore`] be cloned, e.g. by the model
    /// checker when branching states).
    fn clone_box(&self) -> Box<dyn Policy>;

    /// Pick the next job to start, or `None` if nothing can run now.
    /// `queued` yields the `Queued` jobs in submission order and is
    /// *pulled*: take only what the decision needs, since the backlog can
    /// be thousands of jobs and every scheduling pass calls this. Each call
    /// gets a fresh iterator from the queue head, so the decision must not
    /// depend on how far an earlier call iterated.
    /// `running` contains `Running` jobs with their start times.
    fn select(
        &self,
        now: SimTime,
        queued: &mut dyn Iterator<Item = &Job>,
        pool: &NodePool,
        running: &[(&Job, SimTime)],
    ) -> Option<Allocation>;
}

impl Clone for Box<dyn Policy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The paper's configuration: strict FIFO, one job at a time, whole
/// cluster per job.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoExclusive;

impl Policy for FifoExclusive {
    fn name(&self) -> &'static str {
        "fifo-exclusive"
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }

    fn select(
        &self,
        _now: SimTime,
        queued: &mut dyn Iterator<Item = &Job>,
        pool: &NodePool,
        running: &[(&Job, SimTime)],
    ) -> Option<Allocation> {
        if !running.is_empty() || !pool.all_idle() {
            return None;
        }
        let head = queued.next()?;
        let nodes = pool.online_nodes();
        if nodes.is_empty() || (head.spec.nodes as usize) > nodes.len() {
            return None;
        }
        Some(Allocation {
            job: head.id,
            nodes,
        })
    }
}

/// FIFO with space sharing: the head of the queue runs as soon as enough
/// free nodes exist; jobs behind it wait (no overtaking).
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoShared;

impl Policy for FifoShared {
    fn name(&self) -> &'static str {
        "fifo-shared"
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }

    fn select(
        &self,
        _now: SimTime,
        queued: &mut dyn Iterator<Item = &Job>,
        pool: &NodePool,
        _running: &[(&Job, SimTime)],
    ) -> Option<Allocation> {
        let head = queued.next()?;
        let free = pool.free_nodes();
        let want = head.spec.nodes as usize;
        if want == 0 || want > free.len() {
            return None;
        }
        Some(Allocation {
            job: head.id,
            nodes: free[..want].to_vec(),
        })
    }
}

/// Conservative backfill: strict FIFO for the queue head; a later job may
/// overtake only if it fits in the currently free nodes *and* its
/// requested walltime ends before the head's earliest possible start time
/// (estimated from the running jobs' walltimes), so it can never delay the
/// head.
#[derive(Clone, Copy, Debug, Default)]
pub struct Backfill;

impl Policy for Backfill {
    fn name(&self) -> &'static str {
        "backfill"
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }

    fn select(
        &self,
        now: SimTime,
        queued: &mut dyn Iterator<Item = &Job>,
        pool: &NodePool,
        running: &[(&Job, SimTime)],
    ) -> Option<Allocation> {
        let head = queued.next()?;
        let free = pool.free_nodes();
        let want_head = head.spec.nodes as usize;
        if want_head <= free.len() && want_head > 0 {
            return Some(Allocation {
                job: head.id,
                nodes: free[..want_head].to_vec(),
            });
        }
        // Head blocked: when could it start at the earliest? Nodes come
        // back as running jobs hit their walltimes (worst case).
        let mut releases: Vec<(SimTime, usize)> = running
            .iter()
            .map(|(j, started)| (*started + j.spec.walltime, j.allocated.len()))
            .collect();
        releases.sort_unstable();
        let mut avail = free.len();
        let mut head_start = SimTime::MAX;
        for (t, n) in releases {
            avail += n;
            if avail >= want_head {
                head_start = t;
                break;
            }
        }
        // Backfill candidates: first fitting job that finishes (by
        // walltime) before the head's reservation.
        for j in queued {
            let want = j.spec.nodes as usize;
            if want == 0 || want > free.len() {
                continue;
            }
            if now + j.spec.walltime <= head_start {
                return Some(Allocation {
                    job: j.id,
                    nodes: free[..want].to_vec(),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use jrs_sim::SimDuration;

    fn pool(n: usize) -> NodePool {
        NodePool::new((0..n).map(|i| format!("c{i:02}")))
    }

    fn job(id: u64, nodes: u32, wall_s: u64) -> Job {
        let mut spec = JobSpec::trivial(format!("j{id}"));
        spec.nodes = nodes;
        spec.walltime = SimDuration::from_secs(wall_s);
        Job::queued(JobId(id), spec)
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn exclusive_gives_whole_cluster_to_head() {
        let p = pool(4);
        let j1 = job(1, 1, 100);
        let j2 = job(2, 1, 100);
        let alloc = FifoExclusive
            .select(T0, &mut [&j1, &j2].into_iter(), &p, &[])
            .expect("idle cluster must schedule");
        assert_eq!(alloc.job, JobId(1));
        assert_eq!(alloc.nodes.len(), 4, "exclusive = all nodes");
    }

    #[test]
    fn exclusive_refuses_while_any_job_runs() {
        let mut p = pool(2);
        p.allocate(&["c00".to_string()]);
        let j2 = job(2, 1, 100);
        let mut running = job(1, 1, 100);
        running.state = crate::job::JobState::Running;
        running.allocated = vec!["c00".into()];
        assert!(FifoExclusive
            .select(T0, &mut [&j2].into_iter(), &p, &[(&running, T0)])
            .is_none());
    }

    #[test]
    fn exclusive_refuses_oversized_job() {
        let p = pool(2);
        let big = job(1, 5, 100);
        assert!(FifoExclusive
            .select(T0, &mut [&big].into_iter(), &p, &[])
            .is_none());
    }

    #[test]
    fn shared_packs_head_into_free_nodes() {
        let mut p = pool(4);
        p.allocate(&["c00".to_string()]);
        let j = job(7, 2, 100);
        let alloc = FifoShared
            .select(T0, &mut [&j].into_iter(), &p, &[])
            .unwrap();
        assert_eq!(alloc.nodes, vec!["c01".to_string(), "c02".to_string()]);
    }

    #[test]
    fn shared_blocks_behind_big_head() {
        let mut p = pool(4);
        p.allocate(&["c00".to_string(), "c01".to_string()]);
        let head = job(1, 3, 100); // needs 3, only 2 free
        let small = job(2, 1, 1);
        assert!(
            FifoShared
                .select(T0, &mut [&head, &small].into_iter(), &p, &[])
                .is_none(),
            "FIFO must not let job 2 overtake"
        );
    }

    #[test]
    fn backfill_lets_short_job_overtake() {
        let mut p = pool(4);
        p.allocate(&["c00".to_string(), "c01".to_string()]);
        let mut running = job(9, 2, 1000);
        running.state = crate::job::JobState::Running;
        running.allocated = vec!["c00".into(), "c01".into()];
        let head = job(1, 3, 100); // blocked: 2 free < 3
        let short = job(2, 1, 10); // fits and ends before head could start
        let alloc = Backfill
            .select(T0, &mut [&head, &short].into_iter(), &p, &[(&running, T0)])
            .expect("short job should backfill");
        assert_eq!(alloc.job, JobId(2));
    }

    #[test]
    fn backfill_rejects_job_that_would_delay_head() {
        let mut p = pool(4);
        p.allocate(&["c00".to_string(), "c01".to_string()]);
        let mut running = job(9, 2, 50);
        running.state = crate::job::JobState::Running;
        running.allocated = vec!["c00".into(), "c01".into()];
        let head = job(1, 3, 100); // could start at t+50
        let long = job(2, 1, 500); // would block a node past t+50
        let picked = Backfill.select(T0, &mut [&head, &long].into_iter(), &p, &[(&running, T0)]);
        assert!(picked.is_none());
    }

    #[test]
    fn backfill_prefers_head_when_it_fits() {
        let p = pool(4);
        let head = job(1, 2, 100);
        let other = job(2, 1, 1);
        let alloc = Backfill
            .select(T0, &mut [&head, &other].into_iter(), &p, &[])
            .unwrap();
        assert_eq!(alloc.job, JobId(1));
    }

    #[test]
    fn policies_pull_only_what_they_need() {
        let mut p = pool(4);
        let waiting: Vec<Job> = (1..=50).map(|i| job(i, 3, 100)).collect();
        let pulled_by = |policy: &dyn Policy, p: &NodePool| {
            let mut pulled = 0;
            let _ = policy.select(T0, &mut waiting.iter().inspect(|_| pulled += 1), p, &[]);
            pulled
        };
        // Head fits: nobody looks behind it.
        for policy in [&FifoExclusive as &dyn Policy, &FifoShared, &Backfill] {
            assert_eq!(pulled_by(policy, &p), 1, "{}", policy.name());
        }
        // Head blocked: the FIFO policies stop there, backfill walks on.
        p.allocate(&["c00".to_string(), "c01".to_string()]);
        assert_eq!(
            pulled_by(&FifoExclusive, &p),
            0,
            "busy cluster: no look at the queue"
        );
        assert_eq!(pulled_by(&FifoShared, &p), 1);
        assert_eq!(pulled_by(&Backfill, &p), 50);
    }
}
