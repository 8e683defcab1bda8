//! Property-based tests of the PBS server core — the determinism and
//! safety properties JOSHUA's replication scheme depends on.

use jrs_pbs::job::exit;
use jrs_pbs::server::MomReport;
use jrs_pbs::{
    CmdReply, FifoExclusive, Job, JobId, JobSpec, JobState, JobStatus, NodePool, NodeState,
    PbsServerCore, ServerAction, ServerCmd, ServerSnapshot,
};
use jrs_sim::{ProcId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// A randomized input to the server: a command or a mom report.
#[derive(Clone, Debug)]
enum Input {
    Qsub { nodes: u8, runtime_s: u16 },
    Qdel(u8),
    Qhold(u8),
    Qrls(u8),
    Qstat,
    Finish(u8),
    // The last three come from `diff_strategy` only; `drive` skips them.
    NodeOnline { node: u8, online: bool },
    RequeueAll,
    SnapshotRestore,
}

fn input_strategy() -> impl Strategy<Value = Input> {
    prop_oneof![
        4 => (1u8..4, 1u16..100).prop_map(|(nodes, runtime_s)| Input::Qsub { nodes, runtime_s }),
        2 => any::<u8>().prop_map(Input::Qdel),
        1 => any::<u8>().prop_map(Input::Qhold),
        1 => any::<u8>().prop_map(Input::Qrls),
        1 => Just(Input::Qstat),
        3 => any::<u8>().prop_map(Input::Finish),
    ]
}

/// `input_strategy` plus node failures, the standby takeover and state
/// transfer, for the differential test. Node failures are frequent enough
/// that a running job loses every node it holds: the pool then shows no
/// busy node, and only the scheduler's own "nothing still runs" check
/// keeps the next job waiting.
fn diff_strategy() -> impl Strategy<Value = Input> {
    prop_oneof![
        12 => input_strategy(),
        8 => (0u8..NODES as u8, any::<bool>())
            .prop_map(|(node, online)| Input::NodeOnline { node, online }),
        1 => Just(Input::RequeueAll),
        1 => Just(Input::SnapshotRestore),
    ]
}

fn mk_server(nodes: usize) -> PbsServerCore {
    PbsServerCore::new(
        "prop",
        (0..nodes).map(|i| format!("c{i:02}")),
        FifoExclusive,
    )
}

/// Drive a server with the inputs, tracking the set of start-dispatched
/// jobs so Finish targets real jobs. Returns actions count (for replica
/// comparison).
fn drive(server: &mut PbsServerCore, inputs: &[Input], now: SimTime) -> Vec<usize> {
    let mut submitted = 0u64;
    let mut running: BTreeSet<JobId> = BTreeSet::new();
    let mut action_counts = Vec::new();
    for inp in inputs {
        let actions = match inp {
            Input::Qsub { nodes, runtime_s } => {
                submitted += 1;
                let mut spec = JobSpec::with_runtime(
                    format!("p{submitted}"),
                    SimDuration::from_secs(*runtime_s as u64),
                );
                spec.nodes = *nodes as u32;
                let (_r, a) = server.apply(now, &ServerCmd::Qsub(spec));
                a
            }
            Input::Qdel(k) if submitted > 0 => {
                let id = JobId(1 + (*k as u64 % submitted));
                let (_r, a) = server.apply(now, &ServerCmd::Qdel(id));
                a
            }
            Input::Qhold(k) if submitted > 0 => {
                let id = JobId(1 + (*k as u64 % submitted));
                let (_r, a) = server.apply(now, &ServerCmd::Qhold(id));
                a
            }
            Input::Qrls(k) if submitted > 0 => {
                let id = JobId(1 + (*k as u64 % submitted));
                let (_r, a) = server.apply(now, &ServerCmd::Qrls(id));
                a
            }
            Input::Qstat => {
                let (_r, a) = server.apply(now, &ServerCmd::Qstat(None));
                a
            }
            Input::Finish(k) => {
                if running.is_empty() {
                    action_counts.push(0);
                    continue;
                }
                let ids: Vec<JobId> = running.iter().copied().collect();
                let id = ids[*k as usize % ids.len()];
                running.remove(&id);
                server.on_report(now, &MomReport::Finished { job: id, exit: 0 })
            }
            _ => {
                action_counts.push(0);
                continue;
            }
        };
        for a in &actions {
            if let ServerAction::Start { job, .. } = a {
                running.insert(*job);
            }
            if let ServerAction::Cancel { job, .. } = a {
                // Simulate the mom confirming the cancel immediately.
                running.remove(job);
            }
        }
        // Feed cancel confirmations back (moms are immediate here).
        let mut extra = 0;
        for a in actions.iter() {
            if let ServerAction::Cancel { job, .. } = a {
                let more = server.on_report(
                    now,
                    &MomReport::Finished {
                        job: *job,
                        exit: jrs_pbs::job::exit::CANCELLED,
                    },
                );
                for m in &more {
                    if let ServerAction::Start { job, .. } = m {
                        running.insert(*job);
                    }
                }
                extra += more.len();
            }
        }
        action_counts.push(actions.len() + extra);
    }
    action_counts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Replication safety: two replicas fed the same input sequence at
    /// different local times end in consistent state with identical
    /// action streams.
    #[test]
    fn replicas_deterministic(
        inputs in prop::collection::vec(input_strategy(), 1..60),
    ) {
        let mut a = mk_server(4);
        let mut b = mk_server(4);
        let ca = drive(&mut a, &inputs, SimTime::ZERO);
        let cb = drive(&mut b, &inputs, SimTime::ZERO + SimDuration::from_secs(1234));
        prop_assert_eq!(ca, cb, "replicas took different actions");
        prop_assert!(a.snapshot().consistent_with(&b.snapshot()));
    }

    /// Resource safety: at no point are more nodes allocated than exist,
    /// and no node is double-allocated.
    #[test]
    fn no_overallocation(
        inputs in prop::collection::vec(input_strategy(), 1..60),
    ) {
        let mut s = mk_server(4);
        // drive() checks internally via NodePool debug asserts; externally:
        let _ = drive(&mut s, &inputs, SimTime::ZERO);
        let allocated: Vec<Rc<str>> = s
            .jobs_in_order()
            .filter(|j| j.state == JobState::Running)
            .flat_map(|j| j.allocated.clone())
            .collect();
        let unique: BTreeSet<&Rc<str>> = allocated.iter().collect();
        prop_assert_eq!(unique.len(), allocated.len(), "node double-allocated");
        prop_assert!(allocated.len() <= 4);
    }

    /// Queue discipline: under FIFO-exclusive at most one job runs, and a
    /// queued job with a lower id than the running one must have been
    /// held at some point (holding legitimately forfeits the position
    /// while successors start).
    #[test]
    fn fifo_exclusive_never_overtakes(
        inputs in prop::collection::vec(input_strategy(), 1..60),
    ) {
        let mut s = mk_server(4);
        let _ = drive(&mut s, &inputs, SimTime::ZERO);
        // Replay the driver's id resolution to find ever-held jobs.
        let mut submitted = 0u64;
        let mut ever_held: std::collections::BTreeSet<JobId> = Default::default();
        for inp in &inputs {
            match inp {
                Input::Qsub { .. } => submitted += 1,
                Input::Qhold(k) if submitted > 0 => {
                    ever_held.insert(JobId(1 + (*k as u64 % submitted)));
                }
                _ => {}
            }
        }
        let running: Vec<JobId> = s
            .jobs_in_order()
            .filter(|j| matches!(j.state, JobState::Running | JobState::Exiting))
            .map(|j| j.id)
            .collect();
        prop_assert!(running.len() <= 1, "exclusive policy ran {} jobs", running.len());
        if let Some(r) = running.first() {
            for j in s.jobs_in_order() {
                if j.state == JobState::Queued && !ever_held.contains(&j.id) {
                    prop_assert!(j.id > *r, "queued job {} overtaken by {}", j.id, r);
                }
            }
        }
    }

    /// Snapshot/restore is lossless at any point in a random history.
    #[test]
    fn snapshot_roundtrip_anywhere(
        inputs in prop::collection::vec(input_strategy(), 1..40),
        cut in 0usize..40,
    ) {
        let mut s = mk_server(4);
        let cut = cut.min(inputs.len());
        let _ = drive(&mut s, &inputs[..cut], SimTime::ZERO);
        let snap = s.snapshot();
        let mut restored = mk_server(4);
        restored.restore(&snap);
        prop_assert!(restored.snapshot().consistent_with(&snap));
        // Both continue identically on the remaining inputs.
        let ca = drive(&mut s, &inputs[cut..], SimTime::ZERO);
        let cb = drive(&mut restored, &inputs[cut..], SimTime::ZERO);
        prop_assert_eq!(ca, cb);
        prop_assert!(s.snapshot().consistent_with(&restored.snapshot()));
    }

    /// Terminal-state hygiene: complete jobs always carry an exit status,
    /// and no job is ever lost (every submitted id is present).
    #[test]
    fn job_accounting(
        inputs in prop::collection::vec(input_strategy(), 1..60),
    ) {
        let mut s = mk_server(4);
        let _ = drive(&mut s, &inputs, SimTime::ZERO);
        let submitted = inputs
            .iter()
            .filter(|i| matches!(i, Input::Qsub { .. }))
            .count();
        prop_assert_eq!(s.jobs_in_order().count(), submitted);
        for j in s.jobs_in_order() {
            if j.state == JobState::Complete {
                prop_assert!(j.exit_status.is_some(), "complete job without exit status");
            } else {
                prop_assert!(j.exit_status.is_none());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Differential test against the full-scan scheduler
// ---------------------------------------------------------------------

const NODES: usize = 4;

fn node_names() -> impl Iterator<Item = String> {
    (0..NODES).map(|i| format!("c{i:02}"))
}

/// `PbsServerCore` as it was before the queue index, kept as the reference
/// model: jobs in a `Vec` in submission order (so nothing here leans on
/// "id order is submission order"), and a scheduling pass that scans every
/// job ever submitted and decides FIFO-exclusive on its own (`schedule`),
/// so the product's scheduler is checked too, not only its queue index.
struct RefServer {
    jobs: Vec<Job>,
    next_id: u64,
    pool: NodePool,
    running_since: BTreeMap<JobId, SimTime>,
}

impl RefServer {
    fn new() -> Self {
        RefServer {
            jobs: Vec::new(),
            next_id: 1,
            pool: NodePool::new(node_names()),
            running_since: BTreeMap::new(),
        }
    }

    fn job_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    fn mom_of(&self, nodes: &[Rc<str>]) -> Option<ProcId> {
        nodes.first().and_then(|n| self.pool.mom_of(n))
    }

    fn apply(&mut self, now: SimTime, cmd: &ServerCmd) -> (CmdReply, Vec<ServerAction>) {
        let unknown = |id: &JobId| (CmdReply::Error(format!("unknown job {id}")), vec![]);
        match cmd {
            ServerCmd::Qsub(spec) => {
                let id = JobId(self.next_id);
                self.next_id += 1;
                self.jobs.push(Job::queued(id, spec.clone()));
                (CmdReply::Submitted(id), self.schedule(now))
            }
            ServerCmd::Qdel(id) => {
                let Some(job) = self.job_mut(*id) else {
                    return unknown(id);
                };
                match job.state {
                    JobState::Queued | JobState::Held => {
                        job.state = JobState::Complete;
                        job.exit_status = Some(exit::CANCELLED);
                        (CmdReply::Deleted(*id), self.schedule(now))
                    }
                    JobState::Running => {
                        job.state = JobState::Exiting;
                        let nodes = job.allocated.clone();
                        let mom = self.mom_of(&nodes);
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
                }
            }
            ServerCmd::Qstat(filter) => {
                let rows = self
                    .jobs
                    .iter()
                    .filter(|j| filter.is_none_or(|id| j.id == id))
                    .map(JobStatus::from)
                    .collect();
                (CmdReply::Status(rows), vec![])
            }
            ServerCmd::Qhold(id) => {
                let Some(job) = self.job_mut(*id) else {
                    return unknown(id);
                };
                if job.state != JobState::Queued {
                    let s = job.state.letter();
                    return (
                        CmdReply::Error(format!("cannot hold job {id} in state {s}")),
                        vec![],
                    );
                }
                job.state = JobState::Held;
                (CmdReply::Held(*id), vec![])
            }
            ServerCmd::Qrls(id) => {
                let Some(job) = self.job_mut(*id) else {
                    return unknown(id);
                };
                if job.state != JobState::Held {
                    let s = job.state.letter();
                    return (
                        CmdReply::Error(format!("cannot release job {id} in state {s}")),
                        vec![],
                    );
                }
                job.state = JobState::Queued;
                (CmdReply::Released(*id), self.schedule(now))
            }
        }
    }

    fn on_report(&mut self, now: SimTime, report: &MomReport) -> Vec<ServerAction> {
        let MomReport::Finished { job, exit } = report else {
            return vec![];
        };
        let Some(j) = self.job_mut(*job) else {
            return vec![];
        };
        if !matches!(j.state, JobState::Running | JobState::Exiting) {
            return vec![];
        }
        j.state = JobState::Complete;
        j.exit_status = Some(*exit);
        let nodes = std::mem::take(&mut j.allocated);
        self.pool.release(&nodes);
        self.running_since.remove(job);
        self.schedule(now)
    }

    fn requeue_all_running(&mut self, now: SimTime) -> (Vec<JobId>, Vec<ServerAction>) {
        let mut requeued = Vec::new();
        let mut actions = Vec::new();
        for i in 0..self.jobs.len() {
            if !matches!(self.jobs[i].state, JobState::Running | JobState::Exiting) {
                continue;
            }
            let id = self.jobs[i].id;
            let nodes = std::mem::take(&mut self.jobs[i].allocated);
            self.jobs[i].state = JobState::Queued;
            let mom = self.mom_of(&nodes);
            self.pool.release(&nodes);
            self.running_since.remove(&id);
            actions.push(ServerAction::Cancel { mom, job: id });
            requeued.push(id);
        }
        actions.extend(self.schedule(now));
        (requeued, actions)
    }

    fn set_node_online(&mut self, now: SimTime, node: &str, online: bool) -> Vec<ServerAction> {
        if online {
            self.pool.set_online(node);
            self.schedule(now)
        } else {
            self.pool.set_offline(node);
            vec![]
        }
    }

    /// The paper's Maui configuration, from a full scan: while no job is
    /// running or exiting and no node is busy, the oldest queued job gets
    /// every online node, if it asks for no more than that.
    fn schedule(&mut self, now: SimTime) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        loop {
            let holds_cluster = |j: &Job| matches!(j.state, JobState::Running | JobState::Exiting);
            if self.jobs.iter().any(holds_cluster)
                || self.pool.iter().any(|n| n.state == NodeState::Busy)
            {
                break;
            }
            let Some(i) = self.jobs.iter().position(|j| j.state == JobState::Queued) else {
                break;
            };
            let nodes: Vec<Rc<str>> = self
                .pool
                .iter()
                .filter(|n| n.state != NodeState::Offline)
                .map(|n| Rc::clone(&n.name))
                .collect();
            if nodes.is_empty() || self.jobs[i].spec.nodes as usize > nodes.len() {
                break;
            }
            let mom = self.mom_of(&nodes);
            self.pool.allocate(&nodes);
            let job = &mut self.jobs[i];
            self.running_since.insert(job.id, now);
            job.state = JobState::Running;
            job.allocated = nodes;
            actions.push(ServerAction::Start {
                mom,
                job: job.id,
                spec: job.spec.clone(),
            });
        }
        actions
    }

    fn state_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = jrs_sim::Fnv64::new();
        for j in &self.jobs {
            j.hash(&mut h);
        }
        self.next_id.hash(&mut h);
        self.pool.alloc_state().hash(&mut h);
        h.finish()
    }

    fn snapshot(&self) -> ServerSnapshot {
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

    /// Both sides register the same moms, so adopting the snapshot's pool
    /// wholesale equals "keep own registrations".
    fn restore(&mut self, snap: &ServerSnapshot) {
        self.jobs = snap.jobs.clone();
        self.next_id = snap.next_id;
        self.pool = NodePool::from_nodes(snap.pool.iter().cloned());
        self.running_since = snap
            .running_since
            .iter()
            .map(|(id, ns)| (*id, SimTime::from_nanos(*ns)))
            .collect();
    }
}

/// Fresh `(indexed, reference)` pair with one mom per node.
fn pair() -> (PbsServerCore, RefServer) {
    let mut real = PbsServerCore::new("diff", node_names(), FifoExclusive);
    let mut reference = RefServer::new();
    for (i, node) in node_names().enumerate() {
        real.register_mom(&node, ProcId(100 + i as u32));
        reference.pool.set_mom(&node, ProcId(100 + i as u32));
    }
    (real, reference)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The indexed scheduler decides exactly what the full-scan one does:
    /// same replies, same `ServerAction` sequences, same state after every
    /// step. Also pins the derived state: the queue index is the set of
    /// `Queued` jobs and snapshots list jobs by ascending id.
    #[test]
    fn indexed_scheduler_matches_full_scan(
        inputs in prop::collection::vec(diff_strategy(), 1..80),
    ) {
        let (mut real, mut reference) = pair();
        let mut submitted = 0u64;
        for (i, inp) in inputs.iter().enumerate() {
            let now = SimTime::ZERO + SimDuration::from_secs(5 * i as u64);
            // Any id ever handed out, or one past them (unknown job).
            let ids = submitted + 1;
            let pick = move |k: &u8| JobId(1 + *k as u64 % ids);
            let cmd = match inp {
                Input::Qsub { nodes, runtime_s } => {
                    submitted += 1;
                    let mut spec = JobSpec::trivial(format!("d{submitted}"));
                    // 1..=5 nodes on a 4-node pool: some heads never fit.
                    spec.nodes = *nodes as u32 + (*runtime_s as u32 % 3);
                    Some(ServerCmd::Qsub(spec))
                }
                Input::Qdel(k) => Some(ServerCmd::Qdel(pick(k))),
                Input::Qhold(k) => Some(ServerCmd::Qhold(pick(k))),
                Input::Qrls(k) => Some(ServerCmd::Qrls(pick(k))),
                Input::Qstat => Some(ServerCmd::Qstat((i % 2 == 0).then(|| pick(&(i as u8))))),
                _ => None,
            };
            if let Some(cmd) = cmd {
                prop_assert_eq!(real.apply(now, &cmd), reference.apply(now, &cmd), "{:?}", cmd);
            }
            match inp {
                Input::Finish(k) => {
                    // Mostly a job that is running; sometimes any job at
                    // all (stale, duplicate or unknown obituary).
                    let running: Vec<JobId> = real
                        .jobs_in_order()
                        .filter(|j| matches!(j.state, JobState::Running | JobState::Exiting))
                        .map(|j| j.id)
                        .collect();
                    let job = if running.is_empty() || k % 4 == 0 {
                        pick(k)
                    } else {
                        running[*k as usize % running.len()]
                    };
                    let report = MomReport::Finished { job, exit: exit::OK };
                    prop_assert_eq!(
                        real.on_report(now, &report),
                        reference.on_report(now, &report)
                    );
                }
                Input::NodeOnline { node, online } => {
                    let node = format!("c{node:02}");
                    prop_assert_eq!(
                        real.set_node_online(now, &node, *online),
                        reference.set_node_online(now, &node, *online)
                    );
                }
                Input::RequeueAll => {
                    prop_assert_eq!(
                        real.requeue_all_running(now),
                        reference.requeue_all_running(now)
                    );
                }
                Input::SnapshotRestore => {
                    let (mut real2, mut reference2) = pair();
                    real2.restore(&real.snapshot());
                    reference2.restore(&reference.snapshot());
                    (real, reference) = (real2, reference2);
                }
                _ => {}
            }
            let snap = real.snapshot();
            prop_assert_eq!(&snap, &reference.snapshot());
            prop_assert_eq!(real.state_hash(), reference.state_hash());
            prop_assert!(snap.jobs.windows(2).all(|w| w[0].id < w[1].id), "jobs not by id");
            let queued: Vec<JobId> =
                snap.jobs.iter().filter(|j| j.state == JobState::Queued).map(|j| j.id).collect();
            prop_assert_eq!(real.queued_ids().collect::<Vec<_>>(), queued);
        }
    }
}
