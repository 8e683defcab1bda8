//! The model under check: a cluster of GCS members each running a
//! deterministic PBS replica plus the jmutex launch-arbitration layer,
//! driven step by step through the [`Pump`]'s stepping primitives.
//!
//! A [`World`] is one explorable state. The checker clones it, applies one
//! [`Action`], drains the resulting application upcalls and checks the
//! safety invariants eagerly. Liveness-flavoured properties (replica
//! convergence, exactly-once launch) are checked by `World::settle`,
//! which runs the remaining protocol to quiescence under FIFO delivery.

use joshua_core::payload::{self, JMutexOutcome, JMutexState};
use jrs_gcs::testkit::Pump;
use jrs_gcs::{EngineKind, GcsEvent, GroupConfig, GroupMember, MembershipPolicy, View, ViewId};
use jrs_pbs::sched::FifoExclusive;
use jrs_pbs::{JobId, JobSpec, MomReport, PbsServerCore, ServerAction, ServerCmd};
use jrs_sim::{Fnv64, ProcId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// The stand-in mom process id (never a group member).
const MOM: ProcId = ProcId(99);

/// The replicated command stream of the model: a strict subset of the real
/// JOSHUA payload (client commands, jmutex acquire/release).
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum McPayload {
    /// An intercepted PBS command.
    Cmd(ServerCmd),
    /// jmutex acquire forwarded by `granter` for a launch session.
    Acquire {
        /// The job.
        job: JobId,
        /// Launch session (unique per forwarding head).
        session: u64,
        /// The head that forwarded this acquire.
        granter: ProcId,
    },
    /// jdone: release the launch mutex after completion.
    Release {
        /// The job.
        job: JobId,
    },
}

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

/// The members' tick period in the model (virtual time per `Tick` action).
pub const TICK: SimDuration = SimDuration::from_millis(10);

fn group_config(engine: EngineKind) -> GroupConfig {
    GroupConfig {
        engine,
        membership: MembershipPolicy::PrimaryComponent,
        tick_every: TICK,
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

/// One schedulable transition of the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// The environment submits a job to the lowest live head.
    Submit,
    /// Deliver the head frame of one FIFO channel.
    Deliver {
        /// Sending member.
        from: ProcId,
        /// Receiving member.
        to: ProcId,
    },
    /// Drop the head frame of one FIFO channel (message loss; counts
    /// against the fault budget).
    Drop {
        /// Sending member.
        from: ProcId,
        /// Receiving member.
        to: ProcId,
    },
    /// Crash a head (counts against the fault budget; at least one head
    /// always survives).
    Crash {
        /// The victim.
        who: ProcId,
    },
    /// Advance virtual time by one tick on every member (timers fire:
    /// heartbeats, retransmissions, failure detection, flush timeouts).
    Tick,
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
            Action::Deliver { to, .. } | Action::Drop { to, .. } => Some(to),
            Action::Submit | Action::Tick | Action::Crash { .. } | Action::Complete { .. } => None,
        }
    }
}

/// Are two actions independent (order-commutable)? Conservative: only
/// per-member frame operations on *different* receiving members commute.
/// `Tick`, `Crash`, `Submit` and `Complete` touch global state (time, the
/// member set, the command stream) and are dependent with everything.
pub(crate) fn independent(a: Action, b: Action) -> bool {
    match (a.target(), b.target()) {
        (Some(x), Some(y)) => x != y,
        _ => false,
    }
}

/// A safety violation, with enough context to read the counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two members delivered different payloads (or origins) at the same
    /// total-order position.
    TotalOrderDisagreement {
        /// The disputed sequence number.
        seq: u64,
        /// Who saw the conflicting delivery.
        member: ProcId,
    },
    /// The same message was delivered in different installed views.
    SameViewViolation {
        /// The disputed sequence number.
        seq: u64,
        /// Who delivered it in a different view.
        member: ProcId,
    },
    /// A member was handed a view that does not include itself.
    SelfExclusion {
        /// The member.
        member: ProcId,
        /// The offending view.
        view: ViewId,
    },
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
    /// A member reported its tick idle (`GroupMember::tick_is_idle`), yet
    /// the tick emitted a frame or an upcall or changed its fingerprint: a
    /// host that skips idle ticks would have changed the run.
    IdleTickDidWork {
        /// The member.
        member: ProcId,
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

/// Result of applying one action.
#[derive(Debug)]
pub enum StepResult {
    /// Applied cleanly.
    Ok,
    /// The action is not currently enabled (replay of a stale trace).
    Infeasible,
    /// Applied, and a safety invariant broke.
    Violated(Violation),
}

/// Per-replica application state above the GCS: the PBS server, the
/// jmutex table and the view bookkeeping the responder rule needs.
#[derive(Clone, Debug)]
struct App {
    me: ProcId,
    pbs: PbsServerCore,
    jmutex: JMutexState,
    view: Vec<ProcId>,
    view_id: ViewId,
    /// Members that joined in the current view (excluded from responder
    /// duty, see `joshua_core::payload::responder`).
    joined_current: BTreeSet<ProcId>,
    /// Highest delivered seq (total-order monotonicity check).
    last_seq: u64,
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
            pbs: fresh_pbs(),
            jmutex: JMutexState::new(),
            view: view.members.clone(),
            view_id: view.id,
            joined_current: BTreeSet::new(),
            last_seq: 0,
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
            pbs,
            jmutex,
            view,
            view_id,
            joined_current,
            last_seq,
            awaiting_transfer,
        } = self;
        let mut h = Fnv64::new();
        me.hash(&mut h);
        pbs.state_hash().hash(&mut h);
        jmutex.state_hash().hash(&mut h);
        view.hash(&mut h);
        view_id.hash(&mut h);
        joined_current.hash(&mut h);
        last_seq.hash(&mut h);
        awaiting_transfer.hash(&mut h);
        h.finish()
    }
}

fn fresh_pbs() -> PbsServerCore {
    // One compute node under the paper's exclusive FIFO policy: one job
    // runs at a time, every queued job eventually gets a Start action.
    PbsServerCore::new("head", std::iter::once("c00".to_string()), FifoExclusive)
}

/// Session id of the launch a head would forward for a job: unique per
/// (head, job) so duplicate launches are observable.
fn session_of(p: ProcId, job: JobId) -> u64 {
    u64::from(p.0) * 1000 + job.0
}

/// Does `m` report its tick at `now` idle, and yet, run on a clone, emit
/// a frame or an upcall or change its fingerprint?
fn idle_tick_did_work(m: &GroupMember<McPayload>, now: SimTime) -> bool {
    if !m.tick_is_idle(now) {
        return false;
    }
    let mut probe = m.clone();
    let out = probe.tick(now);
    !out.wire.is_empty() || !out.events.is_empty() || probe.state_hash() != m.state_hash()
}

/// One explorable state of the whole model.
#[derive(Clone, Debug)]
pub struct World {
    /// The cluster (members + network).
    pub pump: Pump<McPayload>,
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
    /// Canonical total order observed so far:
    /// seq → (origin, payload fingerprint, delivery view).
    canon: BTreeMap<u64, (ProcId, u64, ViewId)>,
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
            canon: BTreeMap::new(),
            narrate: false,
        }
    }

    /// Deterministic fingerprint of everything that influences future
    /// behaviour: protocol state, in-flight frames, application replicas,
    /// environment budgets and the launch record.
    #[must_use]
    pub(crate) fn state_hash(&self) -> u64 {
        // `cfg` is constant over a run, `canon` only records what the
        // invariants compare against, `narrate` is a debugging switch.
        let World {
            pump,
            apps,
            cfg: _,
            submits_done,
            faults_done,
            launches,
            completed,
            canon: _,
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
            acts.push(Action::Deliver { from, to });
            if self.faults_done < self.cfg.faults {
                acts.push(Action::Drop { from, to });
            }
        }
        if self.faults_done < self.cfg.faults && self.pump.members.len() > 1 {
            for &who in self.pump.members.keys() {
                acts.push(Action::Crash { who });
            }
        }
        acts.push(Action::Tick);
        for (&job, sessions) in &self.launches {
            if !sessions.is_empty() && !self.completed.contains(&job) {
                acts.push(Action::Complete { job });
            }
        }
        acts
    }

    /// Apply one action, drain upcalls, check safety invariants.
    pub fn apply(&mut self, action: Action) -> StepResult {
        match action {
            Action::Submit => {
                if self.submits_done >= self.cfg.submits {
                    return StepResult::Infeasible;
                }
                let Some(&head) = self.pump.members.keys().next() else {
                    return StepResult::Infeasible;
                };
                self.submits_done += 1;
                let name = format!("job-{}", self.submits_done);
                self.pump.submit(
                    head,
                    McPayload::Cmd(ServerCmd::Qsub(JobSpec::trivial(name))),
                );
            }
            Action::Deliver { from, to } => {
                if !self.pump.deliver_from(from, to) {
                    return StepResult::Infeasible;
                }
            }
            Action::Drop { from, to } => {
                if self.faults_done >= self.cfg.faults || !self.pump.drop_head(from, to) {
                    return StepResult::Infeasible;
                }
                self.faults_done += 1;
            }
            Action::Crash { who } => {
                if self.faults_done >= self.cfg.faults
                    || self.pump.members.len() <= 1
                    || !self.pump.members.contains_key(&who)
                {
                    return StepResult::Infeasible;
                }
                self.faults_done += 1;
                self.pump.crash(who);
                self.apps.remove(&who);
            }
            Action::Tick => {
                let now = self.pump.now + TICK;
                let busy = self
                    .pump
                    .members
                    .iter()
                    .find(|(_, m)| idle_tick_did_work(m, now));
                if let Some((&member, _)) = busy {
                    return StepResult::Violated(Violation::IdleTickDidWork { member });
                }
                self.pump.tick_members(TICK);
            }
            Action::Complete { job } => {
                let launched = self.launches.get(&job).is_some_and(|s| !s.is_empty());
                if !launched || self.completed.contains(&job) {
                    return StepResult::Infeasible;
                }
                let Some(&head) = self.pump.members.keys().next() else {
                    return StepResult::Infeasible;
                };
                self.completed.insert(job);
                self.pump.submit(head, McPayload::Release { job });
            }
        }
        match self.drain_events() {
            Some(v) => StepResult::Violated(v),
            None => StepResult::Ok,
        }
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

    fn on_event(&mut self, who: ProcId, ev: GcsEvent<McPayload>) -> Option<Violation> {
        if self.narrate {
            match &ev {
                GcsEvent::Deliver { seq, origin, .. } => {
                    eprintln!(
                        "[ev] t={:?} {who:?} deliver seq={seq} origin={origin:?}",
                        self.pump.now
                    )
                }
                GcsEvent::ViewChange { view, joined, left } => eprintln!(
                    "[ev] t={:?} {who:?} view {:?} members={:?} joined={joined:?} left={left:?}",
                    self.pump.now, view.id, view.members
                ),
                GcsEvent::Ejected => eprintln!("[ev] t={:?} {who:?} EJECTED", self.pump.now),
            }
        }
        match ev {
            GcsEvent::Deliver {
                seq,
                origin,
                payload,
            } => self.on_deliver(who, seq, origin, payload),
            GcsEvent::ViewChange { view, joined, .. } => self.on_view_change(who, &view, &joined),
            GcsEvent::Ejected => {
                // The group moved on without this member; its replica state
                // is void until state transfer, which the model does not
                // perform — the app stays void after rejoining.
                if let Some(app) = self.apps.get_mut(&who) {
                    app.pbs = fresh_pbs();
                    app.jmutex = JMutexState::new();
                    app.view = Vec::new();
                    app.view_id = ViewId::NONE;
                    app.joined_current.clear();
                    app.last_seq = 0;
                    app.awaiting_transfer = true;
                }
                None
            }
        }
    }

    fn on_deliver(
        &mut self,
        who: ProcId,
        seq: u64,
        origin: ProcId,
        payload: McPayload,
    ) -> Option<Violation> {
        let fp = jrs_sim::fingerprint(&payload);
        let view_id = self.apps.get(&who).map_or(ViewId::NONE, |a| a.view_id);
        // Invariant: total-order agreement — every member that delivers
        // seq delivers the same (origin, payload).
        match self.canon.get(&seq) {
            None => {
                self.canon.insert(seq, (origin, fp, view_id));
            }
            Some(&(o, f, v)) => {
                if o != origin || f != fp {
                    return Some(Violation::TotalOrderDisagreement { seq, member: who });
                }
                // Invariant: same-view delivery (virtual synchrony).
                if v != view_id {
                    return Some(Violation::SameViewViolation { seq, member: who });
                }
            }
        }
        let app = self.apps.get_mut(&who)?;
        // Invariant: per-member delivery is monotone in seq.
        if seq <= app.last_seq {
            return Some(Violation::TotalOrderDisagreement { seq, member: who });
        }
        app.last_seq = seq;
        if app.awaiting_transfer {
            // Void replica: the real system fills it by snapshot transfer
            // before it may process the stream; here it just observes the
            // delivery-level invariants above.
            return None;
        }
        let now = self.pump.now;
        match payload {
            McPayload::Cmd(cmd) => {
                let (_reply, actions) = app.pbs.apply(now, &cmd);
                let me = app.me;
                for a in actions {
                    if let ServerAction::Start { job, .. } = a {
                        let session = session_of(me, job);
                        // Forward the launch through the jmutex: ordered
                        // acquire; the verdict decides who really launches.
                        self.pump.submit(
                            me,
                            McPayload::Acquire {
                                job,
                                session,
                                granter: me,
                            },
                        );
                        if self.cfg.mutation == Mutation::GrantOnForward {
                            // BUG: launch immediately on forward.
                            if let Some(v) = self.record_launch(job, session) {
                                return Some(v);
                            }
                        }
                    }
                }
            }
            McPayload::Acquire {
                job,
                session,
                granter,
            } => {
                let outcome = app.jmutex.acquire(job, MOM, session, granter, false);
                let sender = payload::verdict_sender(&app.view, granter, app.responder());
                if sender == who && outcome == JMutexOutcome::Granted {
                    if let Some(v) = self.record_launch(job, session) {
                        return Some(v);
                    }
                }
            }
            McPayload::Release { job } => {
                app.jmutex.release(job);
                let _ = app
                    .pbs
                    .on_report(now, &MomReport::Finished { job, exit: 0 });
            }
        }
        None
    }

    fn on_view_change(&mut self, who: ProcId, view: &View, joined: &[ProcId]) -> Option<Violation> {
        // Invariant: self-inclusion — a member is never handed a view it
        // is not part of (exclusion must arrive as `Ejected`).
        if !view.contains(who) {
            return Some(Violation::SelfExclusion {
                member: who,
                view: view.id,
            });
        }
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
                .jmutex
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
            self.pump.tick_members(TICK);
            self.pump.run();
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
            } else if a.pbs.state_hash() != b.pbs.state_hash() {
                Some("pbs")
            } else if a.jmutex.state_hash() != b.jmutex.state_hash() {
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
            for (job, g) in app.jmutex.grants() {
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
        assert!(matches!(w.apply(Action::Submit), StepResult::Ok));
        assert!(w.clone().settle().is_none());
    }

    #[test]
    fn enabled_actions_are_deterministic() {
        let mut w = World::new(McConfig::default());
        let _ = w.apply(Action::Submit);
        let a = w.enabled();
        let b = w.clone().enabled();
        assert_eq!(a, b);
        assert!(a.contains(&Action::Tick));
    }

    #[test]
    fn infeasible_actions_are_reported() {
        let mut w = World::new(McConfig {
            submits: 0,
            ..McConfig::default()
        });
        assert!(matches!(w.apply(Action::Submit), StepResult::Infeasible));
        assert!(matches!(
            w.apply(Action::Deliver {
                from: ProcId(0),
                to: ProcId(1)
            }),
            StepResult::Infeasible
        ));
        assert!(matches!(
            w.apply(Action::Complete { job: JobId(1) }),
            StepResult::Infeasible
        ));
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
