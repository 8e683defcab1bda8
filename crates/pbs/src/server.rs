//! The PBS server (TORQUE stand-in): job registry, queue, command
//! handling, and dispatch to mom daemons.
//!
//! `PbsServerCore` is a **pure, deterministic state machine**: identical
//! command/report sequences produce identical state and identical actions.
//! That determinism is the property JOSHUA's symmetric active/active
//! replication depends on — every replica applies the totally ordered
//! command stream to its own server and must reach the same state.
//!
//! Note on time: no decision here reads the clock. The scheduler,
//! [`FifoExclusive`], decides from the queue head, the node pool and
//! whether any job still runs. `now` is only recorded as a job's start
//! time, which is replica-local and left out of
//! [`ServerSnapshot::consistent_with`] and [`PbsServerCore::state_hash`].
//! So replicas that deliver a command at different (virtual) times still
//! start the same job on the same nodes.

use crate::job::{exit, Job, JobId, JobSpec, JobState, JobStatus};
use crate::resources::{ComputeNode, NodePool};
use crate::sched::FifoExclusive;
use jrs_sim::{ProcId, SimTime};
use jrs_store::{encode_seq, Codec};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Commands of the PBS user interface.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ServerCmd {
    /// Submit a job.
    Qsub(JobSpec),
    /// Delete a job (queued or running).
    Qdel(JobId),
    /// Query one job or all jobs.
    Qstat(Option<JobId>),
    /// Hold a queued job.
    Qhold(JobId),
    /// Release a held job.
    Qrls(JobId),
}

/// Replies to PBS commands.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CmdReply {
    /// Job accepted with this id.
    Submitted(JobId),
    /// Job deleted (or cancellation initiated).
    Deleted(JobId),
    /// Job held.
    Held(JobId),
    /// Job released.
    Released(JobId),
    /// Status listing. Built once, by [`PbsServerCore::status`], and
    /// shared, not copied, by the released reply and the client's record.
    Status(Rc<[JobStatus]>),
    /// Command failed.
    Error(String),
    /// A status query held for later: what a replicated head caches for a
    /// jstat in place of its listing. The head that releases the reply
    /// builds the [`CmdReply::Status`] from its state at that point, so
    /// [`PbsServerCore::apply`] never returns one and no client receives
    /// one.
    Read(Option<JobId>),
}

/// Side effects the server wants performed (sent to mom daemons by the
/// embedding process).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ServerAction {
    /// Start `job` on the nodes in its `allocated` list; `mom` is the
    /// mother-superior daemon (first allocated node), if registered.
    Start {
        /// Mother-superior mom process.
        mom: Option<ProcId>,
        /// The job.
        job: JobId,
        /// Its spec (the mom needs runtime/walltime).
        spec: JobSpec,
    },
    /// Cancel a running job.
    Cancel {
        /// Mother-superior mom process.
        mom: Option<ProcId>,
        /// The job.
        job: JobId,
    },
}

/// Reports from mom daemons back to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MomReport {
    /// The job's launch was confirmed (really started or emulated).
    Started {
        /// The job.
        job: JobId,
    },
    /// The job finished with this exit status.
    Finished {
        /// The job.
        job: JobId,
        /// Exit status (see [`crate::job::exit`]).
        exit: i32,
    },
}

/// Deterministic snapshot of the full server state, used for replica
/// consistency checks and for state transfer to joining head nodes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ServerSnapshot {
    /// All jobs in submission order, which is ascending id order.
    pub jobs: Vec<Job>,
    /// Next job id counter.
    pub next_id: u64,
    /// Node pool (allocations included), in name order.
    pub pool: Vec<ComputeNode>,
    /// Job start times (nanos) — informational; excluded from
    /// [`ServerSnapshot::consistent_with`] because replicas deliver at
    /// slightly different local times.
    pub running_since: Vec<(JobId, u64)>,
}

impl ServerSnapshot {
    /// Replica-consistency comparison: everything except local start
    /// times and replica-local mom wiring must match.
    pub fn consistent_with(&self, other: &ServerSnapshot) -> bool {
        self.jobs == other.jobs
            && self.next_id == other.next_id
            && self
                .pool
                .iter()
                .map(|n| (&n.name, n.state))
                .eq(other.pool.iter().map(|n| (&n.name, n.state)))
    }
}

/// The PBS server state machine. See module docs.
///
/// Invariant: ids come from the monotone `next_id` counter and jobs are
/// never removed, so the table is dense, `jobs[i].id == JobId(i + 1)`: a
/// job is found by index and the table *is* submission order (the FIFO
/// queue order), with no separate order list to fall out of step.
#[derive(Clone, Debug)]
pub struct PbsServerCore {
    jobs: Vec<Job>,
    /// Ids of the `Queued` jobs: a scheduling pass reads the first, instead
    /// of scanning every job ever submitted. Derived from `jobs` (only `set_state`
    /// changes it, `restore` rebuilds it), so it is never snapshotted,
    /// hashed or encoded.
    queue: BTreeSet<JobId>,
    next_id: u64,
    pool: NodePool,
    /// Start times of exactly the `Running` and `Exiting` jobs.
    running_since: BTreeMap<JobId, SimTime>,
}

/// The one place a job's state changes, so `queue` cannot drift from the
/// set of `Queued` jobs.
fn set_state(queue: &mut BTreeSet<JobId>, job: &mut Job, to: JobState) {
    if to == JobState::Queued {
        queue.insert(job.id);
    } else if job.state == JobState::Queued {
        queue.remove(&job.id);
    }
    job.state = to;
}

/// Job `id` in a dense table, at index `id - 1`. An id of 0, past the end
/// or beyond `usize` finds nothing.
fn job_at(jobs: &[Job], id: JobId) -> Option<usize> {
    let i = usize::try_from(id.0.checked_sub(1)?).ok()?;
    jobs.get(i).filter(|j| j.id == id).map(|_| i)
}

fn job_mut(jobs: &mut [Job], id: JobId) -> Option<&mut Job> {
    jobs.get_mut(job_at(jobs, id)?)
}

impl PbsServerCore {
    /// New server managing the named compute nodes.
    ///
    /// `_name` and `_sched` are accepted and ignored. Nothing ever read the
    /// server's name, and [`FifoExclusive`] is the only scheduler, but the
    /// benchmark package passes both, so they leave with ROADMAP item
    /// 3(a)'s `benchmark` PR.
    pub fn new(
        _name: impl Into<String>,
        nodes: impl IntoIterator<Item = String>,
        _sched: FifoExclusive,
    ) -> Self {
        PbsServerCore {
            jobs: Vec::new(),
            queue: BTreeSet::new(),
            next_id: 1,
            pool: NodePool::new(nodes),
            running_since: BTreeMap::new(),
        }
    }

    /// A server owning the named compute nodes, each with its mom
    /// registered: how every head process builds its server.
    pub fn with_moms(nodes: &[(String, ProcId)]) -> Self {
        let mut core = PbsServerCore::new("", nodes.iter().map(|(n, _)| n.clone()), FifoExclusive);
        for (node, mom) in nodes {
            core.register_mom(node, *mom);
        }
        core
    }

    /// Register the mom daemon process for a node.
    pub fn register_mom(&mut self, node: &str, mom: ProcId) {
        self.pool.set_mom(node, mom);
    }

    /// Access the node pool.
    #[cfg(test)]
    pub(crate) fn pool(&self) -> &NodePool {
        &self.pool
    }

    /// Look up a job.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(job_at(&self.jobs, id)?)
    }

    /// All jobs in submission order.
    pub fn jobs_in_order(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Ids of the jobs waiting in the queue, in submission order.
    pub fn queued_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.queue.iter().copied()
    }

    /// Count of jobs in a given state.
    pub fn count_state(&self, state: JobState) -> usize {
        self.jobs.iter().filter(|j| j.state == state).count()
    }

    /// The qstat listing: job `filter`'s row, or with `None` every job in
    /// submission order. Collected straight into one shared slice.
    pub fn status(&self, filter: Option<JobId>) -> Rc<[JobStatus]> {
        match filter {
            Some(id) => self.job(id).map(JobStatus::from).into_iter().collect(),
            None => self.jobs_in_order().map(JobStatus::from).collect(),
        }
    }

    /// Apply one PBS command; returns the user-visible reply and the mom
    /// dispatch actions it triggered.
    pub fn apply(&mut self, now: SimTime, cmd: &ServerCmd) -> (CmdReply, Vec<ServerAction>) {
        match cmd {
            ServerCmd::Qsub(spec) => {
                let id = JobId(self.next_id);
                self.next_id += 1;
                let mut job = Job::queued(id, spec.clone());
                set_state(&mut self.queue, &mut job, JobState::Queued);
                self.jobs.push(job);
                (CmdReply::Submitted(id), self.kick_schedule(now))
            }
            ServerCmd::Qdel(id) => match job_mut(&mut self.jobs, *id) {
                None => (CmdReply::Error(format!("unknown job {id}")), vec![]),
                Some(job) => match job.state {
                    JobState::Queued | JobState::Held => {
                        set_state(&mut self.queue, job, JobState::Complete);
                        job.exit_status = Some(exit::CANCELLED);
                        (CmdReply::Deleted(*id), self.kick_schedule(now))
                    }
                    JobState::Running => {
                        set_state(&mut self.queue, job, JobState::Exiting);
                        let mom = job.allocated.first().and_then(|n| self.pool.mom_of(n));
                        (
                            CmdReply::Deleted(*id),
                            vec![ServerAction::Cancel { mom, job: *id }],
                        )
                    }
                    JobState::Exiting => (CmdReply::Deleted(*id), vec![]),
                    JobState::Complete => (
                        CmdReply::Error(format!("job {id} already complete")),
                        vec![],
                    ),
                },
            },
            ServerCmd::Qstat(filter) => (CmdReply::Status(self.status(*filter)), vec![]),
            ServerCmd::Qhold(id) => match job_mut(&mut self.jobs, *id) {
                Some(job) if job.state == JobState::Queued => {
                    set_state(&mut self.queue, job, JobState::Held);
                    (CmdReply::Held(*id), vec![])
                }
                Some(job) => (
                    CmdReply::Error(format!(
                        "cannot hold job {id} in state {}",
                        job.state.letter()
                    )),
                    vec![],
                ),
                None => (CmdReply::Error(format!("unknown job {id}")), vec![]),
            },
            ServerCmd::Qrls(id) => match job_mut(&mut self.jobs, *id) {
                Some(job) if job.state == JobState::Held => {
                    set_state(&mut self.queue, job, JobState::Queued);
                    (CmdReply::Released(*id), self.kick_schedule(now))
                }
                Some(job) => (
                    CmdReply::Error(format!(
                        "cannot release job {id} in state {}",
                        job.state.letter()
                    )),
                    vec![],
                ),
                None => (CmdReply::Error(format!("unknown job {id}")), vec![]),
            },
        }
    }

    /// Apply a mom report.
    pub fn on_report(&mut self, now: SimTime, report: &MomReport) -> Vec<ServerAction> {
        match report {
            MomReport::Started { .. } => vec![],
            MomReport::Finished { job, exit } => {
                let Some(j) = job_mut(&mut self.jobs, *job) else {
                    return vec![];
                };
                if j.state == JobState::Complete {
                    return vec![]; // duplicate obituary
                }
                if matches!(j.state, JobState::Queued | JobState::Held) {
                    // Stale obituary for a run that was cancelled and
                    // requeued (active/standby failover restart): the job
                    // waits for its fresh run.
                    return vec![];
                }
                set_state(&mut self.queue, j, JobState::Complete);
                j.exit_status = Some(*exit);
                let nodes = std::mem::take(&mut j.allocated);
                self.pool.release(&nodes);
                self.running_since.remove(job);
                self.kick_schedule(now)
            }
        }
    }

    /// Failover helper (active/standby warm takeover): every running job
    /// is cancelled on its mom and put back in the queue — the paper's
    /// "currently running scientific applications have to be restarted
    /// after a head node failover". Returns the requeued job ids and the
    /// actions to dispatch (cancels first, then fresh starts).
    pub fn requeue_all_running(&mut self, now: SimTime) -> (Vec<JobId>, Vec<ServerAction>) {
        let mut requeued = Vec::new();
        let mut actions = Vec::new();
        for id in std::mem::take(&mut self.running_since).into_keys() {
            // `running_since` only names known jobs, but degrade rather
            // than panic on the delivery path if that ever changes (the no-panic lints).
            let Some(j) = job_mut(&mut self.jobs, id) else {
                continue;
            };
            let nodes = std::mem::take(&mut j.allocated);
            set_state(&mut self.queue, j, JobState::Queued);
            let mom = nodes.first().and_then(|n| self.pool.mom_of(n));
            self.pool.release(&nodes);
            actions.push(ServerAction::Cancel { mom, job: id });
            requeued.push(id);
        }
        actions.extend(self.kick_schedule(now));
        (requeued, actions)
    }

    /// Mark a compute node failed/recovered (mom daemon died or returned).
    pub fn set_node_online(&mut self, now: SimTime, node: &str, online: bool) -> Vec<ServerAction> {
        if online {
            self.pool.set_online(node);
            self.kick_schedule(now)
        } else {
            self.pool.set_offline(node);
            vec![]
        }
    }

    /// Run a scheduling pass: start the queue head if [`FifoExclusive`]
    /// lets it run. Exclusive access starts at most one job per pass. Every
    /// command and report that can change the answer runs one itself;
    /// recovery calls this after restoring durable state, because queued
    /// jobs must not wait for the next client command to be considered.
    /// `now` becomes the start time; the decision never reads it.
    pub fn kick_schedule(&mut self, now: SimTime) -> Vec<ServerAction> {
        let busy = !self.running_since.is_empty();
        let Some(job) = self
            .queue
            .first()
            .and_then(|id| job_mut(&mut self.jobs, *id))
        else {
            return vec![];
        };
        let Some(nodes) = FifoExclusive::select(job, &self.pool, busy) else {
            return vec![];
        };
        self.pool.allocate(&nodes);
        set_state(&mut self.queue, job, JobState::Running);
        let mom = nodes.first().and_then(|n| self.pool.mom_of(n));
        job.allocated = nodes;
        self.running_since.insert(job.id, now);
        vec![ServerAction::Start {
            mom,
            job: job.id,
            spec: job.spec.clone(),
        }]
    }

    /// Deterministic fingerprint of the *replicated* server state: jobs in
    /// submission order, the id counter and node allocation states. Mom
    /// wiring and local start times are excluded for the same reason they
    /// are excluded from [`ServerSnapshot::consistent_with`] — they are
    /// replica-local. Replicas that applied the same totally ordered
    /// command stream must produce equal fingerprints.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = jrs_sim::Fnv64::new();
        for j in self.jobs_in_order() {
            j.hash(&mut h);
        }
        self.next_id.hash(&mut h);
        self.pool.alloc_state().hash(&mut h);
        h.finish()
    }

    /// Snapshot the full state (replica checks, state transfer).
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            jobs: self.jobs.clone(),
            next_id: self.next_id,
            pool: self.pool.iter().cloned().collect(),
            running_since: self
                .running_since
                .iter()
                .map(|(id, t)| (*id, t.as_nanos()))
                .collect(),
        }
    }

    /// Encode [`Self::snapshot`] into `out` from the live state, byte for
    /// byte what `snapshot().encode(out)` writes, without cloning a job.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        encode_seq(self.jobs.iter(), out, Job::encode);
        self.next_id.encode(out);
        encode_seq(self.pool.iter(), out, ComputeNode::encode);
        encode_seq(self.running_since.iter(), out, |(id, t), out| {
            id.encode(out);
            t.as_nanos().encode(out);
        });
    }

    /// Restore state from a snapshot (joining replica).
    pub fn restore(&mut self, snap: &ServerSnapshot) {
        debug_assert!(
            snap.jobs.iter().map(|j| j.id.0).eq(1..snap.next_id),
            "snapshot job ids must be dense, 1 up to next_id"
        );
        self.jobs.clone_from(&snap.jobs);
        self.queue = snap
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.id)
            .collect();
        self.next_id = snap.next_id;
        // Keep our own mom registrations but adopt allocation states.
        let moms: Vec<(Rc<str>, ProcId)> = self
            .pool
            .iter()
            .filter_map(|n| n.mom.map(|m| (Rc::clone(&n.name), m)))
            .collect();
        self.pool = NodePool::from_nodes(snap.pool.iter().cloned());
        for (node, mom) in moms {
            self.pool.set_mom(&node, mom);
        }
        self.running_since = snap
            .running_since
            .iter()
            .map(|(id, ns)| (*id, SimTime::from_nanos(*ns)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrs_sim::SimDuration;

    const T0: SimTime = SimTime::ZERO;

    fn server(nodes: usize) -> PbsServerCore {
        PbsServerCore::new(
            "head",
            (0..nodes).map(|i| format!("c{i:02}")),
            FifoExclusive,
        )
    }

    fn submit(s: &mut PbsServerCore, name: &str) -> (JobId, Vec<ServerAction>) {
        let (reply, actions) = s.apply(T0, &ServerCmd::Qsub(JobSpec::trivial(name)));
        match reply {
            CmdReply::Submitted(id) => (id, actions),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn qsub_assigns_sequential_ids_and_starts_first_job() {
        let mut s = server(2);
        let (id1, a1) = submit(&mut s, "one");
        assert_eq!(id1, JobId(1));
        assert_eq!(a1.len(), 1, "idle cluster starts job immediately");
        match &a1[0] {
            ServerAction::Start { job, .. } => {
                assert_eq!(*job, id1);
                assert_eq!(
                    s.job(id1).unwrap().allocated.len(),
                    2,
                    "exclusive allocation"
                );
            }
            other => panic!("{other:?}"),
        }
        let (id2, a2) = submit(&mut s, "two");
        assert_eq!(id2, JobId(2));
        assert!(a2.is_empty(), "second job queues behind exclusive job");
        assert_eq!(s.job(id1).unwrap().state, JobState::Running);
        assert_eq!(s.job(id2).unwrap().state, JobState::Queued);
    }

    #[test]
    fn finished_report_frees_cluster_and_runs_next() {
        let mut s = server(2);
        let (id1, _) = submit(&mut s, "one");
        let (id2, _) = submit(&mut s, "two");
        let actions = s.on_report(
            T0,
            &MomReport::Finished {
                job: id1,
                exit: exit::OK,
            },
        );
        assert_eq!(s.job(id1).unwrap().state, JobState::Complete);
        assert_eq!(s.job(id1).unwrap().exit_status, Some(exit::OK));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            ServerAction::Start { job, .. } => assert_eq!(*job, id2),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.job(id2).unwrap().state, JobState::Running);
    }

    #[test]
    fn duplicate_finished_reports_are_idempotent() {
        let mut s = server(1);
        let (id, _) = submit(&mut s, "j");
        let _ = s.on_report(T0, &MomReport::Finished { job: id, exit: 0 });
        let again = s.on_report(T0, &MomReport::Finished { job: id, exit: 0 });
        assert!(again.is_empty());
        assert_eq!(s.count_state(JobState::Complete), 1);
    }

    #[test]
    fn qdel_queued_job_completes_it_cancelled() {
        let mut s = server(1);
        let (id1, _) = submit(&mut s, "running");
        let (id2, _) = submit(&mut s, "queued");
        let (reply, actions) = s.apply(T0, &ServerCmd::Qdel(id2));
        assert_eq!(reply, CmdReply::Deleted(id2));
        assert!(actions.is_empty());
        assert_eq!(s.job(id2).unwrap().state, JobState::Complete);
        assert_eq!(s.job(id2).unwrap().exit_status, Some(exit::CANCELLED));
        let _ = id1;
    }

    #[test]
    fn qdel_running_job_sends_cancel_then_completes_on_report() {
        let mut s = server(1);
        s.register_mom("c00", ProcId(42));
        let (id, _) = submit(&mut s, "victim");
        let (reply, actions) = s.apply(T0, &ServerCmd::Qdel(id));
        assert_eq!(reply, CmdReply::Deleted(id));
        assert_eq!(
            actions,
            vec![ServerAction::Cancel {
                mom: Some(ProcId(42)),
                job: id
            }]
        );
        assert_eq!(s.job(id).unwrap().state, JobState::Exiting);
        let _ = s.on_report(
            T0,
            &MomReport::Finished {
                job: id,
                exit: exit::CANCELLED,
            },
        );
        assert_eq!(s.job(id).unwrap().state, JobState::Complete);
    }

    #[test]
    fn qdel_unknown_job_errors() {
        let mut s = server(1);
        let (reply, _) = s.apply(T0, &ServerCmd::Qdel(JobId(99)));
        assert!(matches!(reply, CmdReply::Error(_)));
    }

    #[test]
    fn ids_outside_the_table_find_no_job() {
        let mut s = server(1);
        let (id, _) = submit(&mut s, "only");
        assert_eq!(s.job(id).map(|j| j.id), Some(JobId(1)));
        for hostile in [0, 2, u64::MAX] {
            assert!(s.job(JobId(hostile)).is_none(), "job {hostile}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "snapshot job ids must be dense")]
    fn restore_rejects_a_table_with_a_gap() {
        let mut s = server(1);
        for name in ["a", "b", "c"] {
            let _ = submit(&mut s, name);
        }
        let mut snap = s.snapshot();
        let _ = snap.jobs.remove(1);
        server(1).restore(&snap);
    }

    #[test]
    fn qstat_lists_jobs_in_submission_order() {
        let mut s = server(1);
        let (id1, _) = submit(&mut s, "a");
        let (id2, _) = submit(&mut s, "b");
        let (reply, _) = s.apply(T0, &ServerCmd::Qstat(None));
        let CmdReply::Status(rows) = reply else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, id1);
        assert_eq!(rows[0].state, 'R');
        assert_eq!(rows[1].id, id2);
        assert_eq!(rows[1].state, 'Q');
        // Single-job filter.
        let (reply, _) = s.apply(T0, &ServerCmd::Qstat(Some(id2)));
        let CmdReply::Status(rows) = reply else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(&*rows[0].name, "b");
    }

    #[test]
    fn rows_and_snapshots_share_the_jobs_strings() {
        use std::rc::Rc;
        let mut s = server(1);
        let (id, _) = submit(&mut s, "shared");
        let live = s.job(id).unwrap().spec.clone();
        let (reply, _) = s.apply(T0, &ServerCmd::Qstat(None));
        let CmdReply::Status(rows) = reply else {
            panic!()
        };
        assert!(Rc::ptr_eq(&rows[0].name, &live.name) && Rc::ptr_eq(&rows[0].user, &live.user));
        let snap = s.snapshot();
        let copy = &snap.jobs[0].spec;
        assert!(Rc::ptr_eq(&copy.name, &live.name) && Rc::ptr_eq(&copy.user, &live.user));
    }

    #[test]
    fn hold_and_release_cycle() {
        let mut s = server(1);
        let (_run, _) = submit(&mut s, "running");
        let (id, _) = submit(&mut s, "heldjob");
        let (reply, _) = s.apply(T0, &ServerCmd::Qhold(id));
        assert_eq!(reply, CmdReply::Held(id));
        assert_eq!(s.job(id).unwrap().state, JobState::Held);
        // A held job is skipped by the scheduler even when the cluster
        // frees up.
        let actions = s.on_report(
            T0,
            &MomReport::Finished {
                job: JobId(1),
                exit: 0,
            },
        );
        assert!(actions.is_empty(), "held job must not start");
        let (reply, actions) = s.apply(T0, &ServerCmd::Qrls(id));
        assert_eq!(reply, CmdReply::Released(id));
        assert_eq!(actions.len(), 1, "released job starts on the idle cluster");
    }

    #[test]
    fn hold_running_job_errors() {
        let mut s = server(1);
        let (id, _) = submit(&mut s, "r");
        let (reply, _) = s.apply(T0, &ServerCmd::Qhold(id));
        assert!(matches!(reply, CmdReply::Error(_)));
    }

    #[test]
    fn held_job_keeps_queue_position() {
        let mut s = server(1);
        let (_r, _) = submit(&mut s, "running");
        let (h, _) = submit(&mut s, "h");
        let (later, _) = submit(&mut s, "later");
        let _ = s.apply(T0, &ServerCmd::Qhold(h));
        let _ = s.apply(T0, &ServerCmd::Qrls(h));
        // Finish the running job: h (earlier submission) must start, not
        // `later`.
        let actions = s.on_report(
            T0,
            &MomReport::Finished {
                job: JobId(1),
                exit: 0,
            },
        );
        match &actions[0] {
            ServerAction::Start { job, .. } => assert_eq!(*job, h),
            other => panic!("{other:?}"),
        }
        let _ = later;
    }

    #[test]
    fn deterministic_replicas_stay_consistent() {
        // Two servers fed the same command/report stream must agree.
        let mut a = server(2);
        let mut b = server(2);
        let cmds = vec![
            ServerCmd::Qsub(JobSpec::trivial("j1")),
            ServerCmd::Qsub(JobSpec::trivial("j2")),
            ServerCmd::Qhold(JobId(2)),
            ServerCmd::Qsub(JobSpec::trivial("j3")),
            ServerCmd::Qrls(JobId(2)),
            ServerCmd::Qdel(JobId(3)),
        ];
        for cmd in &cmds {
            let (ra, aa) = a.apply(T0, cmd);
            // Replica b applies at a different local time: must not matter.
            let (rb, ab) = b.apply(T0 + SimDuration::from_millis(5), cmd);
            assert_eq!(ra, rb);
            assert_eq!(aa.len(), ab.len());
        }
        let rep = MomReport::Finished {
            job: JobId(1),
            exit: 0,
        };
        let _ = a.on_report(T0, &rep);
        let _ = b.on_report(T0 + SimDuration::from_millis(7), &rep);
        assert!(a.snapshot().consistent_with(&b.snapshot()));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut s = server(2);
        let _ = submit(&mut s, "a");
        let _ = submit(&mut s, "b");
        let snap = s.snapshot();
        let mut fresh =
            PbsServerCore::new("joiner", (0..2).map(|i| format!("c{i:02}")), FifoExclusive);
        fresh.register_mom("c00", ProcId(7));
        fresh.restore(&snap);
        assert!(fresh.snapshot().consistent_with(&snap));
        // Mom registration survives restore.
        assert_eq!(fresh.pool().mom_of("c00"), Some(ProcId(7)));
        // The restored replica continues identically.
        let (id, _) = {
            let (reply, actions) = fresh.apply(T0, &ServerCmd::Qsub(JobSpec::trivial("c")));
            match reply {
                CmdReply::Submitted(id) => (id, actions),
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(id, JobId(3));
    }

    #[test]
    fn a_running_job_whose_node_went_offline_still_holds_the_cluster() {
        let mut s = server(2);
        let _ = s.set_node_online(T0, "c00", false);
        let (running, _) = submit(&mut s, "on-c01");
        // Its only node fails: no node is busy any more, yet it still runs.
        let _ = s.set_node_online(T0, "c01", false);
        let (queued, _) = submit(&mut s, "waits");
        assert!(s.set_node_online(T0, "c00", true).is_empty());
        let actions = s.on_report(
            T0,
            &MomReport::Finished {
                job: running,
                exit: exit::OK,
            },
        );
        match &actions[..] {
            [ServerAction::Start { job, .. }] => {
                let nodes = &s.job(queued).unwrap().allocated;
                assert_eq!((*job, &nodes[..]), (queued, &[Rc::from("c00")][..]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_offline_blocks_scheduling_until_recovery() {
        let mut s = server(1);
        let _ = s.set_node_online(T0, "c00", false);
        let (_, actions) = s.apply(T0, &ServerCmd::Qsub(JobSpec::trivial("j")));
        assert!(actions.is_empty(), "no online nodes -> job must queue");
        let actions = s.set_node_online(T0, "c00", true);
        assert_eq!(actions.len(), 1, "job starts when the node returns");
    }
}
