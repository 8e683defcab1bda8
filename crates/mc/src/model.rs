//! The model under check: a cluster of GCS members each running the
//! daemon's own replicated state machine ([`Replica`]: the PBS server plus
//! the jmutex launch-arbitration table), driven step by step through the
//! [`Pump`]'s [`Step`]s. Every ordered [`Payload`] goes through
//! `Replica::apply`, so the checker explores the code the daemon ships.
//!
//! A [`World`] is one explorable state. The checker clones it, applies one
//! [`Action`]: the pump checks the group's guarantees on every upcall and
//! tick, and the model drains the upcalls through the replicas and checks
//! launches eagerly. Liveness-flavoured properties (replica convergence,
//! exactly-once launch) are checked by `World::settle`, which runs the
//! remaining protocol to quiescence under FIFO delivery.

use joshua_core::payload::{self, JMutexOutcome, Payload};
use joshua_core::replica::{Applied, Replica};
use jrs_gcs::testkit::{self, Pump, Step};
use jrs_gcs::{EngineKind, GcsEvent, GroupConfig, MembershipPolicy, View, ViewId};
use jrs_pbs::{JobId, JobSpec, PbsServerCore, ServerAction, ServerCmd};
use jrs_sim::{Fnv64, ProcId, SimDuration};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// The stand-in mom process id (never a group member).
const MOM: ProcId = ProcId(99);

/// The stand-in client process id (never a group member).
const CLIENT: ProcId = ProcId(100);

/// Seedable protocol bugs, used to prove the checker catches real ordering
/// errors (and that the corresponding production logic is load-bearing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Correct protocol.
    #[default]
    None,
    /// BUG: the forwarding head treats its *own forward* as the grant
    /// instead of waiting for the totally ordered acquire verdict. Two
    /// heads forwarding for the same job both launch — the exact race the
    /// paper's jmutex exists to prevent.
    GrantOnForward,
    /// BUG: drop the verdict-redelivery duty on view changes. A granter
    /// that crashes between the ordered grant and the verdict send leaves
    /// a job that never launches (lost launch).
    NoCoverOnViewChange,
}

impl Mutation {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "grant-on-forward" => Some(Mutation::GrantOnForward),
            "no-cover" => Some(Mutation::NoCoverOnViewChange),
            _ => None,
        }
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::GrantOnForward => "grant-on-forward",
            Mutation::NoCoverOnViewChange => "no-cover",
        }
    }
}

/// Model parameters.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Number of head-node replicas.
    pub procs: u32,
    /// Job submissions the environment may inject.
    pub submits: u32,
    /// Fault budget: crashes + message drops combined.
    pub faults: u32,
    /// Ordering engine.
    pub engine: EngineKind,
    /// Seeded bug, if any.
    pub mutation: Mutation,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            procs: 3,
            submits: 1,
            faults: 1,
            engine: EngineKind::Sequencer,
            mutation: Mutation::None,
        }
    }
}

fn group_config(engine: EngineKind) -> GroupConfig {
    GroupConfig {
        engine,
        membership: MembershipPolicy::PrimaryComponent,
        // Virtual time per `Tick` step.
        tick_every: SimDuration::from_millis(10),
        heartbeat_every: SimDuration::from_millis(20),
        fail_after: SimDuration::from_millis(45),
        rto: SimDuration::from_millis(15),
        flush_timeout: SimDuration::from_millis(60),
        token_idle_pass: SimDuration::from_millis(10),
        request_retry: SimDuration::from_millis(30),
        payload_bytes: 128,
        cost: jrs_gcs::FrameCost::default(),
    }
}

/// One schedulable transition of the model: a step of the group, or one
/// of the environment's two application actions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// A group step: the model enumerates `Deliver`, `Tick`, and `Drop`
    /// against the fault budget.
    Step(Step),
    /// `Step::Crash` of the head it names (fault budget; one head always
    /// survives). Named by `ProcId`, not by selector, so a minimised trace
    /// that drops an earlier crash still crashes the same head.
    Crash {
        /// The victim.
        who: ProcId,
    },
    /// The environment submits a job to the lowest live head.
    Submit,
    /// The environment completes a launched job (the mom's jdone).
    Complete {
        /// The job.
        job: JobId,
    },
}

impl Action {
    /// The member whose local state this action touches, if it is confined
    /// to one member (`None` for global actions). Two actions with
    /// different `Some` targets commute: each pops/pushes only its own
    /// target's state and disjoint FIFO channel ends.
    pub(crate) fn target(self) -> Option<ProcId> {
        match self {
            Action::Step(Step::Deliver { to, .. } | Step::Drop { to, .. }) => Some(to),
            Action::Step(_) | Action::Crash { .. } | Action::Submit | Action::Complete { .. } => {
                None
            }
        }
    }
}

/// Are two actions independent (order-commutable)? Conservative: only
/// per-member frame operations on *different* receiving members commute.
/// `Tick`, `Crash`, `Submit` and `Complete` touch global state (time, the
/// member set, the command stream) and are dependent with everything.
pub(crate) fn independent(a: Action, b: Action) -> bool {
    matches!((a.target(), b.target()), (Some(x), Some(y)) if x != y)
}

/// A safety violation, with enough context to read the counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A group guarantee broke, as the pump checks them.
    Group(testkit::Violation),
    /// Two distinct launch sessions ran for one job.
    DuplicateLaunch {
        /// The job.
        job: JobId,
    },
    /// A granted job never launched (verdict lost and never covered).
    LostLaunch {
        /// The job.
        job: JobId,
    },
    /// Replicas failed to converge to equal state at quiescence.
    Divergence {
        /// First differing pair.
        a: ProcId,
        /// Second member of the pair.
        b: ProcId,
        /// What diverged ("pbs", "jmutex", "view").
        what: &'static str,
    },
}

/// Per-replica application state above the GCS: the daemon's replicated
/// state machine and the view bookkeeping the responder rule needs.
#[derive(Clone, Debug)]
struct App {
    me: ProcId,
    replica: Replica,
    view: Vec<ProcId>,
    view_id: ViewId,
    /// Members that joined in the current view (excluded from responder
    /// duty, see `joshua_core::payload::responder`).
    joined_current: BTreeSet<ProcId>,
    /// Set when the member was ejected and rejoined: its replica is void
    /// until state transfer, which the model does not perform. A void
    /// replica still participates in the GCS (delivery-level invariants
    /// apply) but skips application processing and is excluded from
    /// convergence and launch checks.
    awaiting_transfer: bool,
}

impl App {
    fn new(me: ProcId, view: &View) -> Self {
        App {
            me,
            replica: genesis(),
            view: view.members.clone(),
            view_id: view.id,
            joined_current: BTreeSet::new(),
            awaiting_transfer: false,
        }
    }

    fn responder(&self) -> Option<ProcId> {
        payload::responder(&self.view, &self.joined_current)
    }

    fn state_hash(&self) -> u64 {
        // Named field by field, no `..`: see `GroupMember::state_hash`.
        let App {
            me,
            replica,
            view,
            view_id,
            joined_current,
            awaiting_transfer,
        } = self;
        let mut h = Fnv64::new();
        me.hash(&mut h);
        replica.fingerprint().hash(&mut h);
        view.hash(&mut h);
        view_id.hash(&mut h);
        joined_current.hash(&mut h);
        awaiting_transfer.hash(&mut h);
        h.finish()
    }
}

/// A replica at genesis. One compute node under the paper's exclusive
/// FIFO policy: one job runs at a time, every queued job eventually gets
/// a Start action.
fn genesis() -> Replica {
    Replica::new(PbsServerCore::with_moms(&[("c00".to_string(), MOM)]))
}

/// Session id of the launch a head would forward for a job: unique per
/// (head, job) so duplicate launches are observable.
fn session_of(p: ProcId, job: JobId) -> u64 {
    u64::from(p.0) * 1000 + job.0
}

/// One explorable state of the whole model.
#[derive(Clone, Debug)]
pub struct World {
    /// The cluster (members + network).
    pub pump: Pump<Payload>,
    apps: BTreeMap<ProcId, App>,
    cfg: McConfig,
    /// Jobs submitted so far.
    submits_done: u32,
    /// Faults injected so far (crashes + drops).
    faults_done: u32,
    /// Sessions that actually launched, per job (the mom's view).
    launches: BTreeMap<JobId, BTreeSet<u64>>,
    /// Jobs whose completion has been injected.
    completed: BTreeSet<JobId>,
    /// Narrate protocol events on stderr: a debugging aid `jrs-mc replay`
    /// switches on, never part of the explored state.
    pub narrate: bool,
}

impl World {
    /// A settled initial world: `procs` members, view installed, no
    /// traffic in flight.
    pub fn new(cfg: McConfig) -> Self {
        let mut pump = Pump::group(cfg.procs, group_config(cfg.engine));
        let _ = pump.take_events(); // bootstrap emits no app-relevant events
        let apps = pump
            .members
            .iter()
            .map(|(&id, m)| (id, App::new(id, m.view())))
            .collect();
        World {
            pump,
            apps,
            cfg,
            submits_done: 0,
            faults_done: 0,
            launches: BTreeMap::new(),
            completed: BTreeSet::new(),
            narrate: false,
        }
    }

    /// Deterministic fingerprint of everything that influences future
    /// behaviour: protocol state, in-flight frames, application replicas,
    /// environment budgets and the launch record.
    #[must_use]
    pub(crate) fn state_hash(&self) -> u64 {
        // `cfg` is constant over a run, `narrate` is a debugging switch.
        let World {
            pump,
            apps,
            cfg: _,
            submits_done,
            faults_done,
            launches,
            completed,
            narrate: _,
        } = self;
        let mut h = Fnv64::new();
        pump.state_hash().hash(&mut h);
        for app in apps.values() {
            app.state_hash().hash(&mut h);
        }
        submits_done.hash(&mut h);
        faults_done.hash(&mut h);
        launches.hash(&mut h);
        completed.hash(&mut h);
        h.finish()
    }

    /// All actions currently enabled, in deterministic order.
    pub(crate) fn enabled(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        if self.submits_done < self.cfg.submits {
            acts.push(Action::Submit);
        }
        for (from, to) in self.pump.pending() {
            acts.push(Action::Step(Step::Deliver { from, to }));
            if self.faults_done < self.cfg.faults {
                acts.push(Action::Step(Step::Drop { from, to }));
            }
        }
        if self.faults_done < self.cfg.faults && self.pump.members.len() > 1 {
            for &who in self.pump.members.keys() {
                acts.push(Action::Crash { who });
            }
        }
        acts.push(Action::Step(Step::Tick));
        for (&job, sessions) in &self.launches {
            if !sessions.is_empty() && !self.completed.contains(&job) {
                acts.push(Action::Complete { job });
            }
        }
        acts
    }

    /// Apply one action, drain upcalls, check safety invariants. As
    /// [`Pump::apply`]: `Ok(false)` if the action is not enabled (replay of
    /// a stale trace), `Err` with the first invariant it broke.
    pub fn apply(&mut self, action: Action) -> Result<bool, Violation> {
        let applied = match action {
            Action::Submit => {
                if self.submits_done >= self.cfg.submits {
                    return Ok(false);
                }
                self.submits_done += 1;
                let name = format!("job-{}", self.submits_done);
                let submit = Payload::Client {
                    client: CLIENT,
                    req_id: u64::from(self.submits_done),
                    cmd: ServerCmd::Qsub(JobSpec::trivial(name)),
                };
                self.pump.submit(self.pump.pick(0), submit).map(|()| true)
            }
            Action::Step(step) => self.group_step(step),
            Action::Crash { who } => match self.pump.selector(who) {
                Some(sel) => self.group_step(Step::Crash(sel)),
                None => return Ok(false),
            },
            Action::Complete { job } => {
                let launched = self.launches.get(&job).is_some_and(|s| !s.is_empty());
                if !launched || self.completed.contains(&job) {
                    return Ok(false);
                }
                self.completed.insert(job);
                // The mom's jdone, then its obituary, as `PbsMomCore` sends
                // them.
                let obituary = Payload::MomFinished {
                    job,
                    exit: 0,
                    mom: MOM,
                };
                let head = self.pump.pick(0);
                self.pump
                    .submit(head, Payload::JMutexRelease { job })
                    .and_then(|()| self.pump.submit(head, obituary))
                    .map(|()| true)
            }
        };
        if !applied.map_err(Violation::Group)? {
            return Ok(false);
        }
        self.drain_events().map_or(Ok(true), Err)
    }

    /// Apply one group step, a `Drop` or `Crash` against the fault budget.
    fn group_step(&mut self, step: Step) -> Result<bool, testkit::Violation> {
        let fault = matches!(step, Step::Drop { .. } | Step::Crash(_));
        if fault && self.faults_done >= self.cfg.faults {
            return Ok(false);
        }
        let applied = self.step(step);
        if applied == Ok(true) {
            self.faults_done += u32::from(fault);
            self.apps.retain(|id, _| self.pump.members.contains_key(id));
        }
        applied
    }

    /// Apply one group step. The model never enumerates `Broadcast`:
    /// commands enter through `Action::Submit`.
    fn step(&mut self, step: Step) -> Result<bool, testkit::Violation> {
        self.pump
            .apply(step, || unreachable!("the model enumerates no broadcast"))
    }

    /// Record that a launch session actually started a job on the mom.
    /// Duplicate *sessions* for one job violate mutual exclusion;
    /// re-recording the same session is idempotent (verdict retransmit).
    fn record_launch(&mut self, job: JobId, session: u64) -> Option<Violation> {
        let sessions = self.launches.entry(job).or_default();
        sessions.insert(session);
        (sessions.len() > 1).then_some(Violation::DuplicateLaunch { job })
    }

    /// Process queued upcalls through the application replicas, checking
    /// invariants eagerly. Returns the first violation.
    fn drain_events(&mut self) -> Option<Violation> {
        // Events can cascade: a delivery makes a replica broadcast an
        // acquire, which the pump turns into more frames (no new events
        // until those frames are delivered), so one pass per loop works.
        loop {
            let events = self.pump.take_events();
            if events.is_empty() {
                return None;
            }
            for (who, ev) in events {
                if let Some(v) = self.on_event(who, ev) {
                    return Some(v);
                }
            }
        }
    }

    fn on_event(&mut self, who: ProcId, ev: GcsEvent<Payload>) -> Option<Violation> {
        if self.narrate {
            eprintln!("[ev] t={:?} {who:?} {ev:?}", self.pump.now);
        }
        match ev {
            GcsEvent::Deliver { payload, .. } => self.on_deliver(who, &payload),
            GcsEvent::ViewChange { view, joined, .. } => self.on_view_change(who, &view, &joined),
            GcsEvent::Ejected => {
                // The group moved on without this member; its replica state
                // is void until state transfer, which the model does not
                // perform — the app stays void after rejoining.
                if let Some(app) = self.apps.get_mut(&who) {
                    app.replica = genesis();
                    app.view = Vec::new();
                    app.view_id = ViewId::NONE;
                    app.joined_current.clear();
                    app.awaiting_transfer = true;
                }
                None
            }
        }
    }

    fn on_deliver(&mut self, who: ProcId, payload: &Payload) -> Option<Violation> {
        let app = self.apps.get_mut(&who)?;
        if app.awaiting_transfer {
            // Void replica: the real system fills it by snapshot transfer
            // before it may process the stream; here the pump just checks
            // its deliveries.
            return None;
        }
        let me = app.me;
        match app.replica.apply(self.pump.now, payload) {
            Applied::Ran { actions, .. } | Applied::Finished(actions) => {
                for a in actions {
                    if let ServerAction::Start { job, .. } = a {
                        if let Some(v) = self.forward_launch(me, job) {
                            return Some(v);
                        }
                    }
                }
            }
            Applied::Decided {
                job,
                session,
                granter,
                outcome,
                ..
            } => {
                let sender = payload::verdict_sender(&app.view, granter, app.responder());
                if sender == who && outcome == JMutexOutcome::Granted {
                    return self.record_launch(job, session);
                }
            }
            Applied::Retried { .. } | Applied::Quiet => {}
        }
        None
    }

    /// The mom asks `me` for the launch mutex: `me` forwards an ordered
    /// acquire, and its verdict decides who really launches.
    fn forward_launch(&mut self, me: ProcId, job: JobId) -> Option<Violation> {
        let session = session_of(me, job);
        let acquire = Payload::JMutexAcquire {
            job,
            mom: MOM,
            session,
            granter: me,
            reclaim: false,
        };
        if let Err(v) = self.pump.submit(me, acquire) {
            return Some(Violation::Group(v));
        }
        if self.cfg.mutation == Mutation::GrantOnForward {
            // BUG: launch immediately on forward.
            return self.record_launch(job, session);
        }
        None
    }

    fn on_view_change(&mut self, who: ProcId, view: &View, joined: &[ProcId]) -> Option<Violation> {
        let app = self.apps.get_mut(&who)?;
        app.view = view.members.clone();
        app.view_id = view.id;
        app.joined_current = joined.iter().copied().collect();
        // Verdict redelivery: grants whose granter left the view can never
        // reach the mom — the responder re-sends them (idempotent).
        if self.cfg.mutation != Mutation::NoCoverOnViewChange
            && !app.awaiting_transfer
            && app.responder() == Some(who)
        {
            let lost: Vec<(JobId, u64)> = app
                .replica
                .jmutex()
                .orphaned_grants(&view.members)
                .map(|(job, g)| (job, g.session))
                .collect();
            for (job, session) in lost {
                if let Some(v) = self.record_launch(job, session) {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Run the remaining protocol to quiescence under plain FIFO delivery
    /// (deliver everything, tick through failure detection and flush) and
    /// check the terminal-state invariants: replica convergence and
    /// exactly-once launch for every outstanding grant.
    ///
    /// Call on a clone — this consumes the world's future.
    pub(crate) fn settle(mut self) -> Option<Violation> {
        // Enough rounds for detection (45ms = 5 ticks) + two takeover
        // flushes (60ms = 6 ticks each) with margin; each round is one
        // tick plus a full FIFO drain.
        for _ in 0..28 {
            if let Err(v) = self.step(Step::Advance(1)) {
                return Some(Violation::Group(v));
            }
            if let Some(v) = self.drain_events() {
                return Some(v);
            }
        }
        // Convergence: every installed live replica agrees on view, PBS
        // state and jmutex table. Void (ejected-and-rejoined) replicas are
        // excluded — the real system refills them by state transfer.
        let transfer_pending = self.apps.values().any(|a| a.awaiting_transfer);
        let installed: Vec<&App> = self
            .apps
            .values()
            .filter(|a| !a.view.is_empty() && !a.awaiting_transfer)
            .collect();
        for w in installed.windows(2) {
            let (a, b) = (w[0], w[1]);
            let what = if a.view != b.view || a.view_id != b.view_id {
                Some("view")
            } else if a.replica.pbs().state_hash() != b.replica.pbs().state_hash() {
                Some("pbs")
            } else if a.replica.jmutex().state_hash() != b.replica.jmutex().state_hash() {
                Some("jmutex")
            } else {
                None
            };
            if let Some(what) = what {
                return Some(Violation::Divergence {
                    a: a.me,
                    b: b.me,
                    what,
                });
            }
        }
        // Exactly-once launch: every outstanding grant any live replica
        // still holds must have exactly one recorded launch session.
        for app in &installed {
            for (job, g) in app.replica.jmutex().grants() {
                match self.launches.get(&job).map_or(0, BTreeSet::len) {
                    // A void replica may have been the designated verdict
                    // sender; without state transfer it cannot launch, so
                    // the lost-launch check is vacuous in that case.
                    0 if transfer_pending => {}
                    0 => return Some(Violation::LostLaunch { job }),
                    1 => {
                        let s = self.launches[&job].iter().next().copied();
                        if s != Some(g.session) {
                            return Some(Violation::DuplicateLaunch { job });
                        }
                    }
                    _ => return Some(Violation::DuplicateLaunch { job }),
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_world_is_quiet_and_stable() {
        let w = World::new(McConfig::default());
        assert!(w.pump.pending().is_empty());
        assert_eq!(w.pump.members.len(), 3);
        let w2 = World::new(McConfig::default());
        assert_eq!(
            w.state_hash(),
            w2.state_hash(),
            "construction is deterministic"
        );
    }

    #[test]
    fn submit_then_fifo_run_launches_exactly_once() {
        let mut w = World::new(McConfig::default());
        assert_eq!(w.apply(Action::Submit), Ok(true));
        assert!(w.clone().settle().is_none());
    }

    /// Deliver every frame in flight, FIFO, through `World::apply`.
    fn run_fifo(w: &mut World) {
        while let Some(&(from, to)) = w.pump.pending().first() {
            assert_eq!(w.apply(Action::Step(Step::Deliver { from, to })), Ok(true));
        }
    }

    #[test]
    fn completing_a_job_launches_the_next_exactly_once() {
        let mut w = World::new(McConfig {
            submits: 2,
            ..McConfig::default()
        });
        assert_eq!(w.apply(Action::Submit), Ok(true));
        assert_eq!(w.apply(Action::Submit), Ok(true));
        run_fifo(&mut w);
        assert_eq!(w.launches.len(), 1, "one node, one job at a time");
        assert_eq!(w.apply(Action::Complete { job: JobId(1) }), Ok(true));
        run_fifo(&mut w);
        // The obituary frees the node, so job 2 starts at every replica and
        // the jmutex lets exactly one forwarded launch through.
        let job2 = w.launches.get(&JobId(2)).map_or(0, BTreeSet::len);
        assert_eq!(job2, 1, "launches {:?}", w.launches);
        assert_eq!(w.clone().settle(), None);
    }

    #[test]
    fn enabled_actions_are_deterministic() {
        let mut w = World::new(McConfig::default());
        let _ = w.apply(Action::Submit);
        let a = w.enabled();
        let b = w.clone().enabled();
        assert_eq!(a, b);
        assert!(a.contains(&Action::Step(Step::Tick)));
    }

    #[test]
    fn infeasible_actions_are_reported() {
        let mut w = World::new(McConfig {
            submits: 0,
            ..McConfig::default()
        });
        assert_eq!(w.apply(Action::Submit), Ok(false));
        let deliver = Step::Deliver {
            from: ProcId(0),
            to: ProcId(1),
        };
        assert_eq!(w.apply(Action::Step(deliver)), Ok(false));
        assert_eq!(w.apply(Action::Complete { job: JobId(1) }), Ok(false));
    }

    /// A crash names its victim: with the earlier crash deleted, as
    /// minimising a trace does, the same head goes down, and a crash of a
    /// head already down is not enabled.
    #[test]
    fn a_crash_keeps_its_victim_when_an_earlier_crash_is_deleted() {
        let start = World::new(McConfig {
            faults: 2,
            ..McConfig::default()
        });
        let (p0, p2) = (
            Action::Crash { who: ProcId(0) },
            Action::Crash { who: ProcId(2) },
        );
        for trace in [&[p0, p2][..], &[p2]] {
            let mut w = start.clone();
            for &a in trace {
                assert_eq!(w.apply(a), Ok(true));
            }
            assert!(!w.pump.members.contains_key(&ProcId(2)));
            assert!(w.pump.members.contains_key(&ProcId(1)));
            assert_eq!(w.apply(p2), Ok(false));
        }
    }

    #[test]
    fn grant_on_forward_mutation_double_launches() {
        let mut w = World::new(McConfig {
            mutation: Mutation::GrantOnForward,
            ..McConfig::default()
        });
        let _ = w.apply(Action::Submit);
        // FIFO settle delivers the Qsub at every replica; with the seeded
        // bug each forwarder "launches" — a duplicate.
        let v = w.settle();
        assert!(
            matches!(v, Some(Violation::DuplicateLaunch { .. })),
            "expected duplicate launch, got {v:?}"
        );
    }
}
