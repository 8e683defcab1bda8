//! The group member state machine: membership, virtual synchrony and the
//! view-change flush protocol.
//!
//! A [`GroupMember`] is embedded into an application process (the JOSHUA
//! daemon embeds one next to its PBS server). The embedding process feeds
//! it three stimuli — `start`, `on_wire`, `tick` — and transmits the frames
//! it returns. In exchange the application gets the two classic group
//! communication upcalls: totally ordered **Deliver** and agreed
//! **ViewChange**, with virtual synchrony between them.
//!
//! ## View-change (flush) protocol
//!
//! 1. The lowest-ranked unsuspected member of the current view coordinates.
//!    It halts its engine and sends `FlushReq` to every proposed member of
//!    the next view (survivors + joiners).
//! 2. Members halt and answer `FlushInfo` with a digest of their ordering
//!    state (a promise: they will ignore flushes with lower epochs). A
//!    joiner answers `None`; the answers alone say who joins.
//! 3. With every answer in hand — and only if the proposal passes the
//!    primary-component quorum check against the current view — the
//!    coordinator reconciles one agreed history from the digests, renumbers
//!    any undelivered tail compactly, and sends `FlushFinal`. The attempt is
//!    then committed: nothing aborts, restarts or re-proposes it, so one
//!    `ViewId` never names two memberships.
//! 4. Members deliver the reconciled tail, install the view, and ack. A
//!    member installs a committed `FlushFinal` whatever higher epoch it
//!    has promised since, unless it committed a flush of its own. The
//!    coordinator installs once every proposed member has acked or been
//!    given up on (suspected, or a joiner dropped as suspected); such a
//!    member that installs later gets the same view, and the next flush
//!    removes it. Under `PrimaryComponent` it gives up on members only
//!    while it and the members that acked are a quorum of the old view;
//!    otherwise it waits, and if the others install a view without it,
//!    their heartbeats eject it. The coordinator leads the new view
//!    (`View::leader`): it installs after every member that acked, and its
//!    `FlushFinal` precedes its engine frames on every link, so nothing it
//!    orders reaches a member still in the old view.
//!
//! Failures during the flush are handled by epoch takeover: a member that
//! waits too long condemns the coordinator and the next-lowest live member
//! restarts with a higher epoch. A member that discovers (via heartbeat
//! view ids) that the group moved on without it ejects itself, resets, and
//! rejoins as a fresh joiner — the application is told via
//! [`GcsEvent::Ejected`] so it can await state transfer.

use crate::config::{GroupConfig, MembershipPolicy};
use crate::detector::FailureDetector;
use crate::engine::{Engine, EngineOut};
use crate::link::LinkManager;
use crate::msg::{Epoch, FlushDigest, GcsMsg, OrderedMsg, Wire};
use crate::view::{View, ViewId};
use jrs_sim::{ProcId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

use std::hash::Hash;

/// Saturating `usize → u32` for view sizes carried in heartbeats (a lossy
/// `as` cast would wrap on pathological inputs: `clippy::cast_possible_truncation`).
fn size32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Upcalls from the group to the embedding application.
#[derive(Clone, Debug)]
pub enum GcsEvent<P> {
    /// A totally ordered message. Every member of a view delivers the same
    /// messages in the same `seq` order.
    Deliver {
        /// Global total-order position.
        seq: u64,
        /// Originating member.
        origin: ProcId,
        /// Application payload.
        payload: P,
    },
    /// A new view was installed. `joined` members need state transfer.
    ViewChange {
        /// The newly installed view.
        view: View,
        /// Members that answered this view's flush as joiners: new
        /// processes and members that ejected themselves. They need state
        /// transfer.
        joined: Vec<ProcId>,
        /// Members of the previous view that are gone.
        left: Vec<ProcId>,
    },
    /// The group moved on without us (we were wrongly suspected, or missed
    /// an install). All group and application state is void; the member
    /// rejoins automatically and the application must await state
    /// transfer after the next `ViewChange` that lists us in `joined`.
    Ejected,
}

/// Frames to transmit and events to hand to the application. A caller
/// that drains `wire` and `events` after each call can hand the same value
/// to the next one: nothing on the ordering path then allocates per call.
#[derive(Debug)]
pub struct Output<P> {
    /// `(destination, frame, wire_size_bytes)` to transmit.
    pub wire: Vec<(ProcId, Wire<P>, u32)>,
    /// Upcalls, in order.
    pub events: Vec<GcsEvent<P>>,
    /// Where the engine writes before `absorb_engine` frames it: empty
    /// between calls. Scratch capacity, not protocol state, so it lives
    /// with the caller's buffer and not in the (cloned, hashed) member.
    engine: EngineOut<P>,
    /// Where the links put the buffered successors a received frame
    /// releases, until they are handled: empty between calls, like
    /// `engine`.
    released: Vec<GcsMsg<P>>,
}

impl<P> Default for Output<P> {
    fn default() -> Self {
        Output {
            wire: Vec::new(),
            events: Vec::new(),
            engine: EngineOut::default(),
            released: Vec::new(),
        }
    }
}

/// Counters exposed for tests and experiment reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupStats {
    /// Payloads submitted locally.
    pub broadcasts: u64,
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Views installed.
    pub view_changes: u64,
    /// Flush attempts coordinated by this member.
    pub flush_attempts: u64,
    /// Times this member ejected itself and rejoined.
    pub ejections: u64,
    /// Link frames sent again because no ack came within `rto`.
    pub retransmissions: u64,
}

#[derive(Clone, Debug, Hash)]
enum Role {
    /// Not (yet) a member: periodically solicits admission.
    Joining {
        contacts: Vec<ProcId>,
        last_req: Option<SimTime>,
        /// The flush epoch we last answered; we only install that one.
        answered: Option<Epoch>,
    },
    /// Installed member of the current view.
    Member,
}

#[derive(Clone, Debug, Hash)]
enum Flush<P> {
    None,
    /// Answered someone's FlushReq; awaiting their FlushFinal.
    Blocked {
        epoch: Epoch,
        since: SimTime,
    },
    /// We coordinate and collect answers (`None` from a joiner). A stall or
    /// a new proposal abandons the attempt.
    Coordinating {
        epoch: Epoch,
        proposed: Vec<ProcId>,
        answers: BTreeMap<ProcId, Option<FlushDigest<P>>>,
        started: SimTime,
    },
    /// We sent the `FlushFinal` these fields mirror. Nothing aborts,
    /// restarts or re-proposes it: we install `view` once every other
    /// member has acked or been given up on (`maybe_commit`).
    Committing {
        epoch: Epoch,
        view: View,
        joined: Vec<ProcId>,
        msgs: Vec<OrderedMsg<P>>,
        next_seq: u64,
        dedup: Vec<(ProcId, u64)>,
        acks: BTreeSet<ProcId>,
    },
}

/// One member of a process group. See the module docs.
#[derive(Clone, Debug)]
pub struct GroupMember<P> {
    me: ProcId,
    config: GroupConfig,
    view: View,
    role: Role,
    engine: Engine<P>,
    links: LinkManager<P>,
    detector: FailureDetector,
    flush: Flush<P>,
    /// Highest flush epoch seen for the *current* view (our promise).
    max_epoch_seen: Option<Epoch>,
    /// Joiners we know about: joiner → incarnation.
    pending_joiners: BTreeMap<ProcId, u64>,
    /// Highest join incarnation seen per process. Ordered map: this is
    /// replicated view-bookkeeping state (`clippy::disallowed_types`).
    join_incarnations: BTreeMap<ProcId, u64>,
    /// What each view member has contiguously delivered (stability/GC).
    peer_delivered: BTreeMap<ProcId, u64>,
    /// Former members (left our view but may still be alive, e.g. the
    /// other side of a healed partition). Probed occasionally so split
    /// components re-merge.
    former_members: BTreeSet<ProcId>,
    last_hb: Option<SimTime>,
    last_probe: Option<SimTime>,
    behind_since: Option<SimTime>,
    incarnation: u64,
    stats: GroupStats,
}

impl<P: Clone + 'static> GroupMember<P> {
    /// Create a member.
    ///
    /// If `initial` contains `me`, this process bootstraps as a member of
    /// the static initial view (all initial members must be configured with
    /// the same list). Otherwise it starts as a joiner using `initial` as
    /// contact points.
    pub fn new(me: ProcId, config: GroupConfig, initial: Vec<ProcId>) -> Self {
        let engine = Engine::with_retry(
            config.engine,
            me,
            config.token_idle_pass,
            config.request_retry,
        );
        let links = LinkManager::new(config.rto);
        let detector = FailureDetector::new(config.fail_after);
        let is_member = initial.contains(&me);
        let (view, role) = if is_member {
            (View::initial(initial), Role::Member)
        } else {
            (
                View::new(ViewId::NONE, Vec::new()),
                Role::Joining {
                    contacts: initial,
                    last_req: None,
                    answered: None,
                },
            )
        };
        GroupMember {
            me,
            config,
            view,
            role,
            engine,
            links,
            detector,
            flush: Flush::None,
            max_epoch_seen: None,
            pending_joiners: BTreeMap::new(),
            join_incarnations: BTreeMap::new(),
            peer_delivered: BTreeMap::new(),
            former_members: BTreeSet::new(),
            last_hb: None,
            last_probe: None,
            behind_since: None,
            incarnation: 1,
            stats: GroupStats::default(),
        }
    }

    /// Start this member's join protocol at `incarnation` or above.
    ///
    /// Members ignore a `JoinReq` whose incarnation is not strictly
    /// greater than the highest they have ever seen from that `ProcId`, so
    /// a **restarted** process reusing its id would be silently ignored if
    /// it started again from incarnation 1. Recovery calls this with the
    /// incarnation it persisted (see [`Self::incarnation`]) once the
    /// durable store is readable, which is from process context, after
    /// construction; values lower than the current one are ignored.
    pub fn adopt_incarnation(&mut self, incarnation: u64) {
        self.incarnation = self.incarnation.max(incarnation);
    }

    /// The incarnation this member would announce in its next `JoinReq`.
    /// Recovery persists it so a restarted process can rejoin with a
    /// strictly greater one.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This member's id.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// The configuration this member was built with.
    pub(crate) fn config(&self) -> &GroupConfig {
        &self.config
    }

    /// The currently installed view (empty placeholder while joining).
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Has this process installed a view (is it an operating member)?
    pub fn is_installed(&self) -> bool {
        matches!(self.role, Role::Member)
    }

    /// Is a view change in progress (ordering temporarily halted)?
    pub fn is_blocked(&self) -> bool {
        !matches!(self.flush, Flush::None) || !self.engine.is_active()
    }

    /// Highest contiguously delivered total-order sequence number.
    pub fn delivered_up_to(&self) -> u64 {
        self.engine.delivered_up_to()
    }

    /// Counters. `retransmissions` adds the live link layer's count to
    /// what the links an ejection replaced had counted.
    pub fn stats(&self) -> GroupStats {
        GroupStats {
            retransmissions: self.stats.retransmissions + self.links.retransmissions,
            ..self.stats
        }
    }

    /// Retained ordered-message log length (stability GC diagnostics).
    pub fn log_len(&self) -> usize {
        self.engine.log_len()
    }

    /// Deterministic fingerprint of the complete protocol state: view,
    /// role, ordering engine, links, failure detector, flush machine and
    /// membership bookkeeping. Two members with equal fingerprints behave
    /// identically from here on — the model checker uses this for
    /// visited-state deduplication. Excludes diagnostic counters
    /// ([`GroupStats`]) and the static configuration.
    #[must_use]
    pub fn state_hash(&self) -> u64
    where
        P: Hash,
    {
        use std::hash::Hasher;
        // Every field is named and there is no `..`: a new field this list
        // forgets is a compile error, not two different states merged in
        // the checker's visited set.
        let GroupMember {
            me,
            config: _,
            view,
            role,
            engine,
            links,
            detector,
            flush,
            max_epoch_seen,
            pending_joiners,
            join_incarnations,
            peer_delivered,
            former_members,
            last_hb,
            last_probe,
            behind_since,
            incarnation,
            stats: _,
        } = self;
        let mut h = jrs_sim::Fnv64::new();
        me.hash(&mut h);
        view.hash(&mut h);
        role.hash(&mut h);
        engine.hash(&mut h);
        links.hash(&mut h);
        detector.hash(&mut h);
        flush.hash(&mut h);
        max_epoch_seen.hash(&mut h);
        pending_joiners.hash(&mut h);
        join_incarnations.hash(&mut h);
        peer_delivered.hash(&mut h);
        former_members.hash(&mut h);
        last_hb.hash(&mut h);
        last_probe.hash(&mut h);
        behind_since.hash(&mut h);
        incarnation.hash(&mut h);
        h.finish()
    }

    // ------------------------------------------------------------------
    // Stimuli
    // ------------------------------------------------------------------

    /// Call once when the process starts.
    pub fn start(&mut self, now: SimTime) -> Output<P> {
        let mut out = Output::default();
        self.start_into(now, &mut out);
        out
    }

    /// [`Self::start`], writing into the caller's drained buffer.
    pub(crate) fn start_into(&mut self, now: SimTime, out: &mut Output<P>) {
        debug_assert!(out.wire.is_empty() && out.events.is_empty());
        match &self.role {
            Role::Member => {
                let members = self.view.members.clone();
                for &p in &members {
                    if p != self.me {
                        self.detector.watch(p, now);
                        self.peer_delivered.insert(p, 0);
                    }
                }
                let leader = self.view.leader();
                self.engine
                    .install_into(now, members, 1, &[], leader, &mut out.engine);
                self.absorb_engine(now, out);
                self.send_heartbeats(now, out);
            }
            Role::Joining { .. } => {
                self.send_join_req(now, out);
            }
        }
    }

    /// Submit a payload for totally ordered delivery to the whole group.
    /// While a view change is in progress the payload is queued and
    /// resubmitted automatically after the next install.
    pub fn broadcast(&mut self, now: SimTime, payload: P) -> Output<P> {
        let mut out = Output::default();
        self.broadcast_into(now, payload, &mut out);
        out
    }

    /// [`Self::broadcast`], writing into the caller's drained buffer.
    pub(crate) fn broadcast_into(&mut self, now: SimTime, payload: P, out: &mut Output<P>) {
        debug_assert!(out.wire.is_empty() && out.events.is_empty());
        self.stats.broadcasts += 1;
        self.engine.submit_into(now, payload, &mut out.engine);
        self.absorb_engine(now, out);
    }

    /// Announce a voluntary leave. The paper's JOSHUA handles leaves as
    /// forced failures; after calling this the process should stop calling
    /// `tick` (and typically exits).
    pub(crate) fn leave(&mut self, now: SimTime) -> Output<P> {
        let mut out = Output::default();
        self.leave_into(now, &mut out);
        out
    }

    /// [`Self::leave`], writing into the caller's drained buffer.
    pub(crate) fn leave_into(&mut self, _now: SimTime, out: &mut Output<P>) {
        debug_assert!(out.wire.is_empty() && out.events.is_empty());
        for &p in self.view.members.iter().filter(|&&p| p != self.me) {
            self.push_raw(p, GcsMsg::Leave, out);
        }
    }

    /// Periodic maintenance; call every `config.tick_every`.
    pub fn tick(&mut self, now: SimTime) -> Output<P> {
        let mut out = Output::default();
        self.tick_into(now, &mut out);
        out
    }

    /// [`Self::tick`], writing into the caller's drained buffer.
    pub(crate) fn tick_into(&mut self, now: SimTime, out: &mut Output<P>) {
        debug_assert!(out.wire.is_empty() && out.events.is_empty());
        let config = &self.config;
        self.links
            .tick_into(now, |to, frame| Self::emit(config, to, frame, out));
        match &self.role {
            Role::Joining { .. } => {
                if self.join_req_due(now) {
                    self.send_join_req(now, out);
                }
            }
            Role::Member => {
                self.member_tick(now, out);
            }
        }
    }

    /// Would [`Self::tick`] at `now` do nothing at all: no frame, no
    /// upcall, no state change? True only when none of the tick's guards
    /// holds; each guard is the helper the tick itself tests. A host may
    /// then skip the call (`GroupHost` answers `Process::periodic_idle`
    /// with it).
    pub fn tick_is_idle(&self, now: SimTime) -> bool {
        if self.links.resend_due(now) {
            return false;
        }
        match &self.role {
            Role::Joining { .. } => !self.join_req_due(now),
            Role::Member => {
                !self.heartbeat_due(now)
                    && !self.probe_due(now)
                    && self.engine.tick_is_idle(now)
                    && !self.engine.prune_due(self.stable_floor())
                    && self.pending_joiners.is_empty()
                    // A flush under way (which always halts the engine),
                    // or a halted engine for the tick to resume.
                    && !self.is_blocked()
                    && self.suspects(now).next().is_none()
            }
        }
    }

    /// Feed one received frame.
    pub fn on_wire(&mut self, now: SimTime, from: ProcId, frame: Wire<P>) -> Output<P> {
        let mut out = Output::default();
        self.on_wire_into(now, from, frame, &mut out);
        out
    }

    /// [`Self::on_wire`], writing into the caller's drained buffer.
    pub(crate) fn on_wire_into(
        &mut self,
        now: SimTime,
        from: ProcId,
        frame: Wire<P>,
        out: &mut Output<P>,
    ) {
        self.receive_into(now, from, &mut Some(frame), out);
    }

    /// Feed one received frame where it lies (in the box it crossed the
    /// wire in), leaving `frame` empty and writing into the caller's
    /// drained buffer. The ack goes out first, then the frame's own
    /// message and the successors it released are handled, in order.
    pub(crate) fn receive_into(
        &mut self,
        now: SimTime,
        from: ProcId,
        frame: &mut Option<Wire<P>>,
        out: &mut Output<P>,
    ) {
        debug_assert!(out.wire.is_empty() && out.events.is_empty());
        self.detector.heard(from, now);
        let mut released = std::mem::take(&mut out.released);
        let (ack, first) = self.links.receive(from, frame, &mut released);
        if let Some(cum) = ack {
            Self::emit(&self.config, from, Wire::Ack { cum }, out);
        }
        if let Some(msg) = first {
            self.handle_msg(now, from, msg, out);
        }
        for msg in released.drain(..) {
            self.handle_msg(now, from, msg, out);
        }
        out.released = released;
    }

    // ------------------------------------------------------------------
    // Internals: send helpers
    // ------------------------------------------------------------------

    /// The one path from a frame into `out.wire`. Takes `config`, not
    /// `&self`, so `tick_into` can call it while `self.links` is borrowed.
    fn emit(config: &GroupConfig, to: ProcId, frame: Wire<P>, out: &mut Output<P>) {
        let bytes = frame.wire_size(config.payload_bytes);
        out.wire.push((to, frame, bytes));
    }

    fn push_raw(&self, to: ProcId, msg: GcsMsg<P>, out: &mut Output<P>) {
        Self::emit(&self.config, to, Wire::Raw(msg), out);
    }

    fn push_link(&mut self, now: SimTime, to: ProcId, msg: GcsMsg<P>, out: &mut Output<P>) {
        let frame = self.links.send(now, to, msg);
        Self::emit(&self.config, to, frame, out);
    }

    /// Frame what the engine just wrote into `out`'s scratch and turn its
    /// deliveries into upcalls; the scratch is empty again afterwards.
    fn absorb_engine(&mut self, now: SimTime, out: &mut Output<P>) {
        let view_id = self.view.id;
        let mut sends = std::mem::take(&mut out.engine.sends);
        for (to, emsg) in sends.drain(..) {
            self.push_link(now, to, GcsMsg::Engine { view_id, msg: emsg }, out);
        }
        out.engine.sends = sends;
        for m in out.engine.deliver.drain(..) {
            self.stats.delivered += 1;
            out.events.push(GcsEvent::Deliver {
                seq: m.seq,
                origin: m.origin,
                payload: m.payload,
            });
        }
    }

    /// Our installed view and delivery cursor, as a heartbeat carries them.
    fn heartbeat(&self) -> GcsMsg<P> {
        GcsMsg::Heartbeat {
            view_id: self.view.id,
            view_size: size32(self.view.len()),
            delivered_up_to: self.engine.delivered_up_to(),
        }
    }

    fn send_heartbeats(&mut self, now: SimTime, out: &mut Output<P>) {
        self.last_hb = Some(now);
        let hb = self.heartbeat();
        for &p in self.view.members.iter().filter(|&&p| p != self.me) {
            self.push_raw(p, hb.clone(), out);
        }
    }

    fn send_join_req(&mut self, now: SimTime, out: &mut Output<P>) {
        let incarnation = self.incarnation;
        let contacts = match &mut self.role {
            Role::Joining {
                contacts, last_req, ..
            } => {
                *last_req = Some(now);
                contacts.clone()
            }
            Role::Member => return,
        };
        for c in contacts {
            if c != self.me {
                self.push_raw(c, GcsMsg::JoinReq { incarnation }, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals: member periodic work
    // ------------------------------------------------------------------

    /// Joiner: the last `JoinReq` went unanswered for `flush_timeout`.
    fn join_req_due(&self, now: SimTime) -> bool {
        matches!(&self.role, Role::Joining { last_req, .. }
            if last_req.is_none_or(|t| now.since(t) >= self.config.flush_timeout))
    }

    fn heartbeat_due(&self, now: SimTime) -> bool {
        self.last_hb
            .is_none_or(|t| now.since(t) >= self.config.heartbeat_every)
    }

    /// Occasional probes to former members: the other side of a healed
    /// partition would otherwise never hear from us again (both sides only
    /// heartbeat their own view) and split components could not re-merge.
    fn probe_due(&self, now: SimTime) -> bool {
        !self.former_members.is_empty()
            && self
                .last_probe
                .is_none_or(|t| now.since(t) >= self.config.fail_after)
    }

    /// What every other view member has delivered (our own cursor when
    /// alone): stability GC prunes up to here.
    fn stable_floor(&self) -> u64 {
        self.view
            .members
            .iter()
            .filter(|&&p| p != self.me)
            .map(|p| self.peer_delivered.get(p).copied().unwrap_or(0))
            .min()
            .unwrap_or(self.engine.delivered_up_to())
    }

    /// View members other than us the detector suspects, in view order.
    fn suspects(&self, now: SimTime) -> impl Iterator<Item = ProcId> + '_ {
        self.view
            .members
            .iter()
            .copied()
            .filter(move |&p| p != self.me && self.detector.suspected(p, now))
    }

    fn member_tick(&mut self, now: SimTime, out: &mut Output<P>) {
        if self.heartbeat_due(now) {
            self.send_heartbeats(now, out);
        }
        if self.probe_due(now) {
            self.last_probe = Some(now);
            let hb = self.heartbeat();
            for &p in &self.former_members {
                self.push_raw(p, hb.clone(), out);
            }
        }
        // Engine maintenance: batched `Stable`, request retry, token pass.
        self.engine.tick_into(now, &mut out.engine);
        self.absorb_engine(now, out);
        // Stability GC: prune what the whole view has delivered.
        self.engine.prune(self.stable_floor());

        // Drop suspected joiners. One still in our view (it ejected itself)
        // stays watched, so the next flush can remove it.
        let dead_joiners: Vec<ProcId> = self
            .pending_joiners
            .keys()
            .copied()
            .filter(|&j| self.detector.suspected(j, now))
            .collect();
        for j in dead_joiners {
            self.pending_joiners.remove(&j);
            if !self.view.contains(j) {
                self.detector.unwatch(j);
            }
        }

        // Flush stall handling.
        match self.flush {
            Flush::Blocked { epoch, since } if now.since(since) >= self.config.flush_timeout => {
                // Epoch takeover: the coordinator is taking too long, so
                // condemn it and give up the block. The epoch promise in
                // `max_epoch_seen` stands, so a restart by anyone carries a
                // higher epoch. If we are the next candidate we coordinate
                // the takeover below; if the group otherwise looks healthy
                // (coordinator alive but its attempt orphaned), the
                // fizzled-flush path resumes ordering in the current view
                // instead of halting forever on a condemnation the next
                // heartbeat clears.
                self.detector.condemn(epoch.coord);
                self.flush = Flush::None;
            }
            // Unblock members we halted; if a restart is needed it happens
            // below with a fresh (higher) epoch.
            Flush::Coordinating { started, .. }
                if now.since(started) >= self.config.flush_timeout =>
            {
                self.abort_coordinating(now, out);
            }
            // A committed flush does not stall: it installs once each member
            // has acked or been given up on, and the links keep resending
            // `FlushFinal` to the rest.
            Flush::Committing { .. } => self.maybe_commit(now, out),
            Flush::None | Flush::Blocked { .. } | Flush::Coordinating { .. } => {}
        }

        // Membership change needed?
        let suspects: Vec<ProcId> = self.suspects(now).collect();
        if suspects.is_empty() && self.pending_joiners.is_empty() {
            // No change needed; if we halted for a flush that fizzled
            // (ours aborted, or trigger vanished before we coordinated),
            // resume ordering in the current view.
            if matches!(self.flush, Flush::None) && self.is_installed() && !self.engine.is_active()
            {
                self.engine.resume(now, &mut out.engine);
                self.absorb_engine(now, out);
            }
            return;
        }
        // Who should coordinate? The lowest unsuspected member.
        let candidate = self
            .view
            .members
            .iter()
            .copied()
            .find(|&p| p == self.me || !self.detector.suspected(p, now));
        if candidate != Some(self.me) {
            return;
        }
        let mut proposal: Vec<ProcId> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|p| !suspects.contains(p))
            .collect();
        proposal.extend(self.pending_joiners.keys().copied());
        proposal.sort_unstable();
        proposal.dedup();
        match &self.flush {
            Flush::Coordinating { proposed, .. } if *proposed == proposal => {
                // Attempt already under way with the same proposal.
            }
            Flush::Blocked { epoch, .. }
                if epoch.coord != self.me && !self.detector.suspected(epoch.coord, now) =>
            {
                // We answered someone else's ongoing flush; let it run
                // until the stall timeout above condemns the coordinator.
            }
            // A committed flush installs before anything new is proposed.
            Flush::Committing { .. } => {}
            Flush::None | Flush::Blocked { .. } | Flush::Coordinating { .. } => {
                self.start_flush(now, proposal, out)
            }
        }
    }

    /// Abort an in-progress `Coordinating` attempt of ours, if any,
    /// telling the old proposal's members so anyone blocked on that epoch
    /// resumes instead of waiting out the stall timeout. Their epoch
    /// promise (`max_epoch_seen`) stands, so the next attempt — ours or a
    /// competitor's — carries a higher epoch and supersedes it.
    fn abort_coordinating(&mut self, now: SimTime, out: &mut Output<P>) {
        if let Flush::Coordinating {
            epoch, proposed, ..
        } = &mut self.flush
        {
            let epoch = *epoch;
            let proposed = std::mem::take(proposed);
            self.flush = Flush::None;
            for p in proposed {
                if p != self.me {
                    self.push_link(now, p, GcsMsg::FlushAbort { epoch }, out);
                }
            }
        }
    }

    fn start_flush(&mut self, now: SimTime, proposal: Vec<ProcId>, out: &mut Output<P>) {
        // Restarting with a different proposal orphans the previous
        // attempt; release the members it blocked before replacing it.
        self.abort_coordinating(now, out);
        self.stats.flush_attempts += 1;
        let attempt = match self.max_epoch_seen {
            Some(e) if e.view_id == self.view.id => e.attempt + 1,
            _ => 0,
        };
        let epoch = Epoch {
            view_id: self.view.id,
            attempt,
            coord: self.me,
        };
        self.max_epoch_seen = Some(epoch);
        self.engine.halt();
        let coord_known = self.engine.delivered_up_to();
        let answers = BTreeMap::from([(self.me, Some(self.engine.digest(coord_known)))]);
        self.flush = Flush::Coordinating {
            epoch,
            proposed: proposal.clone(),
            answers,
            started: now,
        };
        for &p in &proposal {
            if p != self.me {
                let req = GcsMsg::FlushReq {
                    epoch,
                    proposed: proposal.clone(),
                    coord_known,
                };
                self.push_link(now, p, req, out);
            }
        }
        self.try_finalize(now, out);
    }

    // ------------------------------------------------------------------
    // Internals: message handling
    // ------------------------------------------------------------------

    fn handle_msg(&mut self, now: SimTime, from: ProcId, msg: GcsMsg<P>, out: &mut Output<P>) {
        match msg {
            GcsMsg::Heartbeat {
                view_id,
                view_size,
                delivered_up_to,
            } => {
                self.on_heartbeat(now, from, view_id, view_size, delivered_up_to, out);
            }
            GcsMsg::JoinReq { incarnation } => {
                self.on_join_req(now, from, incarnation);
            }
            GcsMsg::Leave => self.detector.condemn(from),
            GcsMsg::FlushReq {
                epoch,
                proposed,
                coord_known,
            } => {
                self.on_flush_req(now, from, epoch, proposed, coord_known, out);
            }
            GcsMsg::FlushInfo { epoch, digest } => {
                self.on_flush_info(now, from, epoch, digest, out);
            }
            GcsMsg::FlushFinal {
                epoch,
                view,
                joined,
                msgs,
                next_seq,
                dedup,
            } => {
                self.on_flush_final(now, from, epoch, view, joined, msgs, next_seq, dedup, out);
            }
            GcsMsg::InstallAck { epoch } => {
                self.on_install_ack(now, from, epoch, out);
            }
            GcsMsg::FlushAbort { epoch } => {
                if let Flush::Blocked { epoch: e, .. } = self.flush {
                    if e == epoch {
                        // Our promise (max_epoch_seen) stands; a restart by
                        // the same coordinator will carry a higher attempt.
                        self.flush = Flush::None;
                        self.engine.resume(now, &mut out.engine);
                        self.absorb_engine(now, out);
                    }
                }
            }
            GcsMsg::Engine { view_id, msg } => {
                if self.is_installed() && view_id == self.view.id {
                    self.engine.on_msg_into(now, from, msg, &mut out.engine);
                    self.absorb_engine(now, out);
                }
            }
        }
    }

    fn on_heartbeat(
        &mut self,
        now: SimTime,
        from: ProcId,
        view_id: ViewId,
        view_size: u32,
        delivered_up_to: u64,
        out: &mut Output<P>,
    ) {
        if !matches!(self.role, Role::Member) {
            return;
        }
        if view_id == self.view.id {
            let e = self.peer_delivered.entry(from).or_insert(0);
            *e = (*e).max(delivered_up_to);
            return;
        }
        // A peer is in a different installed view. Decide deterministically
        // who must yield and rejoin: the lower installation counter loses
        // (it missed installs); between concurrent views with equal
        // counters (fail-stop split brain), the smaller component loses,
        // then the lower coordinator id.
        let ours = (
            self.view.id.num,
            size32(self.view.len()),
            self.view.id.coord,
        );
        let theirs = (view_id.num, view_size, view_id.coord);
        if theirs > ours {
            match self.behind_since {
                None => self.behind_since = Some(now),
                Some(t) if now.since(t) >= self.config.flush_timeout * 2 => {
                    self.eject(now, out);
                }
                Some(_) => {}
            }
        } else if !self.view.contains(from) {
            // The sender is the stale one. If it is no longer a member of
            // our view (e.g. a healed minority node), it receives no
            // regular heartbeats from us — answer directly so it can
            // discover the newer view and rejoin.
            self.push_raw(from, self.heartbeat(), out);
        }
    }

    fn on_join_req(&mut self, now: SimTime, from: ProcId, incarnation: u64) {
        if !matches!(self.role, Role::Member) || from == self.me {
            return;
        }
        let last = self.join_incarnations.get(&from).copied().unwrap_or(0);
        if incarnation > last {
            self.join_incarnations.insert(from, incarnation);
            // Fresh join episode: restart the byte streams between us.
            self.links.reset_peer(from);
            self.pending_joiners.insert(from, incarnation);
            self.detector.watch(from, now);
        }
        // Duplicates of the current episode just refreshed the detector.
    }

    fn on_flush_req(
        &mut self,
        now: SimTime,
        from: ProcId,
        epoch: Epoch,
        proposed: Vec<ProcId>,
        coord_known: u64,
        out: &mut Output<P>,
    ) {
        if !proposed.contains(&self.me) {
            return;
        }
        match &mut self.role {
            Role::Joining { answered, .. } => {
                if answered.is_some_and(|a| epoch < a) {
                    return;
                }
                *answered = Some(epoch);
                let info = GcsMsg::FlushInfo {
                    epoch,
                    digest: None,
                };
                self.push_link(now, from, info, out);
            }
            Role::Member => {
                // Our committed flush is not given up for anyone's.
                if epoch.view_id != self.view.id || matches!(self.flush, Flush::Committing { .. }) {
                    return;
                }
                if let Some(max) = self.max_epoch_seen {
                    if epoch < max {
                        return;
                    }
                }
                self.max_epoch_seen = Some(epoch);
                self.engine.halt();
                // A competing coordinator with a higher epoch wins; abandon
                // our own attempt if any, releasing the members it blocked.
                self.abort_coordinating(now, out);
                self.flush = Flush::Blocked { epoch, since: now };
                let digest = Some(self.engine.digest(coord_known));
                self.push_link(now, epoch.coord, GcsMsg::FlushInfo { epoch, digest }, out);
            }
        }
    }

    fn on_flush_info(
        &mut self,
        now: SimTime,
        from: ProcId,
        epoch: Epoch,
        digest: Option<FlushDigest<P>>,
        out: &mut Output<P>,
    ) {
        let Flush::Coordinating {
            epoch: my_epoch,
            proposed,
            answers,
            ..
        } = &mut self.flush
        else {
            return;
        };
        if epoch != *my_epoch || !proposed.contains(&from) {
            return;
        }
        answers.insert(from, digest);
        self.try_finalize(now, out);
    }

    fn try_finalize(&mut self, now: SimTime, out: &mut Output<P>) {
        let Flush::Coordinating {
            epoch,
            proposed,
            answers,
            ..
        } = &self.flush
        else {
            return;
        };
        if !proposed.iter().all(|p| answers.contains_key(p)) {
            return;
        }
        // Primary-component check (counts old-view members in the
        // proposal; joiners are neutral). Under the paper's fail-stop
        // policy any surviving component proceeds.
        if self.config.membership == MembershipPolicy::PrimaryComponent
            && !self.view.quorum(proposed)
        {
            return;
        }
        // Old members contribute their history; joiners answered `None`.
        let digests = || answers.values().flatten();
        debug_assert!(answers.get(&self.me).is_some_and(Option::is_some));
        let min_d = digests().map(|d| d.max_contig).min().unwrap_or(0);
        let max_d = digests().map(|d| d.max_contig).max().unwrap_or(0);
        // Union of everything anyone knows.
        let mut union: BTreeMap<u64, &OrderedMsg<P>> = BTreeMap::new();
        for m in digests().flat_map(|d| &d.extra) {
            union.entry(m.seq).or_insert(m);
        }
        // Contiguous delivered region (min_d, max_d] must be fully present.
        debug_assert!(
            (min_d + 1..=max_d).all(|s| union.contains_key(&s)),
            "gap in delivered region: some member delivered a message \
             no survivor can supply"
        );
        // Undelivered tail above max_d: renumber compactly (gaps can occur
        // when an assigner died before anyone received some message).
        let mut msgs: Vec<OrderedMsg<P>> = union
            .range(min_d + 1..)
            .take_while(|(&s, _)| s <= max_d)
            .map(|(_, &m)| m.clone())
            .collect();
        let mut next_seq = max_d + 1;
        for (_, &m) in union.range(max_d + 1..) {
            msgs.push(OrderedMsg {
                seq: next_seq,
                ..m.clone()
            });
            next_seq += 1;
        }
        // Merge dedup floors.
        let mut floors: BTreeMap<ProcId, u64> = BTreeMap::new();
        let delivered = msgs.iter().map(|m| (m.origin, m.local_id));
        for (p, l) in digests()
            .flat_map(|d| d.dedup.iter().copied())
            .chain(delivered)
        {
            let e = floors.entry(p).or_insert(0);
            *e = (*e).max(l);
        }
        let dedup: Vec<(ProcId, u64)> = floors.into_iter().collect();
        let view = View::new(self.view.id.next(self.me), proposed.clone());
        let joined: Vec<ProcId> = answers
            .iter()
            .filter(|(_, d)| d.is_none())
            .map(|(&p, _)| p)
            .collect();
        let (epoch, me) = (*epoch, self.me);
        for &p in view.members.iter().filter(|&&p| p != me) {
            let fin = GcsMsg::FlushFinal {
                epoch,
                view: view.clone(),
                joined: joined.clone(),
                msgs: msgs.clone(),
                next_seq,
                dedup: dedup.clone(),
            };
            self.push_link(now, p, fin, out);
        }
        self.flush = Flush::Committing {
            epoch,
            view,
            joined,
            msgs,
            next_seq,
            dedup,
            acks: BTreeSet::new(),
        };
        self.maybe_commit(now, out);
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the FlushFinal wire message"
    )]
    fn on_flush_final(
        &mut self,
        now: SimTime,
        from: ProcId,
        epoch: Epoch,
        view: View,
        joined: Vec<ProcId>,
        msgs: Vec<OrderedMsg<P>>,
        next_seq: u64,
        dedup: Vec<(ProcId, u64)>,
        out: &mut Output<P>,
    ) {
        if !view.contains(self.me) {
            return;
        }
        match &self.role {
            Role::Joining { answered, .. } => {
                if *answered != Some(epoch) {
                    return;
                }
                // Joiners do not deliver pre-join history; the application
                // gets a state snapshot instead (ordered relative to this
                // view change by the coordinator's application layer).
                self.engine.skip_to(next_seq);
                self.install_view(now, view, joined, &[], next_seq, &dedup, out);
                self.push_link(now, from, GcsMsg::InstallAck { epoch }, out);
            }
            Role::Member => {
                // A committed flush outranks any epoch we promised since:
                // its coordinator waits for our ack and cannot re-propose.
                // Only a flush we committed ourselves keeps us out; members
                // blocked on an attempt of ours get this `FlushFinal` too.
                if epoch.view_id != self.view.id || matches!(self.flush, Flush::Committing { .. }) {
                    return;
                }
                self.install_view(now, view, joined, &msgs, next_seq, &dedup, out);
                self.push_link(now, from, GcsMsg::InstallAck { epoch }, out);
            }
        }
    }

    fn on_install_ack(&mut self, now: SimTime, from: ProcId, epoch: Epoch, out: &mut Output<P>) {
        if let Flush::Committing { epoch: e, acks, .. } = &mut self.flush {
            if *e == epoch {
                acks.insert(from);
                self.maybe_commit(now, out);
            }
        }
    }

    /// Install our committed flush's view once every other member has acked
    /// it or been given up on: suspected, or a joiner `member_tick` dropped
    /// (neither in our view nor pending). Under `PrimaryComponent` we give
    /// up on members only while we and the members that acked pass the
    /// quorum check `try_finalize` made; otherwise we wait, and if the
    /// others installed a view without us, their heartbeats eject us.
    fn maybe_commit(&mut self, now: SimTime, out: &mut Output<P>) {
        let Flush::Committing { view, acks, .. } = &self.flush else {
            return;
        };
        let given_up = |p: ProcId| {
            self.detector.suspected(p, now)
                || !(self.view.contains(p) || self.pending_joiners.contains_key(&p))
        };
        if view
            .members
            .iter()
            .any(|&p| p != self.me && !acks.contains(&p) && !given_up(p))
        {
            return;
        }
        if self.config.membership == MembershipPolicy::PrimaryComponent {
            let installed: Vec<ProcId> = acks.iter().copied().chain([self.me]).collect();
            if !self.view.quorum(&installed) {
                return;
            }
        }
        if let Flush::Committing {
            view,
            joined,
            msgs,
            next_seq,
            dedup,
            ..
        } = std::mem::replace(&mut self.flush, Flush::None)
        {
            self.install_view(now, view, joined, &msgs, next_seq, &dedup, out);
        }
    }

    /// Common installation path for coordinator, members and joiners.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the FlushFinal wire message"
    )]
    fn install_view(
        &mut self,
        now: SimTime,
        view: View,
        joined: Vec<ProcId>,
        msgs: &[OrderedMsg<P>],
        next_seq: u64,
        dedup: &[(ProcId, u64)],
        out: &mut Output<P>,
    ) {
        // 1. Deliver the reconciled tail (virtual synchrony: before the
        //    view change event).
        let deliveries = self.engine.apply_flush(msgs, next_seq);
        for m in deliveries {
            self.stats.delivered += 1;
            out.events.push(GcsEvent::Deliver {
                seq: m.seq,
                origin: m.origin,
                payload: m.payload,
            });
        }
        // 2. Bookkeeping.
        let old_members = self.view.members.clone();
        let left: Vec<ProcId> = old_members
            .iter()
            .copied()
            .filter(|p| !view.contains(*p))
            .collect();
        for &p in &left {
            self.detector.unwatch(p);
            self.links.reset_peer(p);
            self.peer_delivered.remove(&p);
            self.former_members.insert(p);
        }
        for &p in &view.members {
            if p != self.me {
                self.detector.watch(p, now);
                self.peer_delivered.insert(p, next_seq - 1);
            }
            self.pending_joiners.remove(&p);
            self.former_members.remove(&p);
        }
        // Bound the probe set (a long-running group sheds truly dead
        // members; 16 covers any realistic head-node pool).
        while self.former_members.len() > 16 {
            // `len() > 16` guarantees an element, but bind fallibly: the
            // probe-set trim must never be able to panic a replica (the no-panic lints).
            let Some(&first) = self.former_members.iter().next() else {
                break;
            };
            self.former_members.remove(&first);
        }
        self.view = view.clone();
        self.role = Role::Member;
        self.flush = Flush::None;
        self.max_epoch_seen = None;
        self.behind_since = None;
        self.stats.view_changes += 1;
        // 3. Restart the engine in the new view (resubmits own pendings),
        //    led by the coordinator that installed it. That member installs
        //    after every member that acked (`maybe_commit`), and its
        //    `FlushFinal` precedes its engine frames on every link, so
        //    nothing it orders can reach a member still in the old view.
        let leader = view.leader();
        self.engine.install_into(
            now,
            view.members.clone(),
            next_seq,
            dedup,
            leader,
            &mut out.engine,
        );
        // Joiners start a fresh submission stream: drop any floors their
        // previous life left in the merged dedup state (every replica does
        // this identically, so the floors stay agreed).
        for j in &joined {
            self.engine.reset_submitter(*j);
        }
        self.absorb_engine(now, out);
        // 4. Tell the application.
        out.events.push(GcsEvent::ViewChange { view, joined, left });
        // 5. Announce the new view promptly (lets stragglers detect they
        //    are behind and speeds up stability convergence).
        self.send_heartbeats(now, out);
    }

    /// Start over as a fresh joiner under the next incarnation; only the
    /// counters carry over.
    fn eject(&mut self, now: SimTime, out: &mut Output<P>) {
        // Contact everyone we ever shared a view with: after a fail-stop
        // partition the ejecting side may have shrunk to a singleton view,
        // so its current members alone would be an empty contact list.
        let mut contacts: BTreeSet<ProcId> = self.view.members.iter().copied().collect();
        contacts.extend(self.former_members.iter().copied());
        contacts.remove(&self.me);
        let mut fresh =
            GroupMember::new(self.me, self.config.clone(), contacts.into_iter().collect());
        fresh.incarnation = self.incarnation + 1;
        fresh.stats = GroupStats {
            ejections: self.stats.ejections + 1,
            ..self.stats()
        };
        *self = fresh;
        out.events.push(GcsEvent::Ejected);
        self.send_join_req(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use jrs_sim::SimDuration;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// One stimulus of one member.
    enum Call {
        Start,
        Wire(ProcId, Wire<u32>),
        Tick,
        Broadcast(u32),
        Leave,
    }

    /// Members over one FIFO queue (the delivery order of `testkit::Pump::run`).
    /// Every call goes either through the by-value methods or, when
    /// `reused` is set, through the out-parameter forms with that one
    /// `Output` shared by every member and never replaced; either way the
    /// transcript gets a line per frame and per upcall the call produced.
    /// When `idle_ticks` is set, every tick a member reports idle is first
    /// run on a clone, which must emit nothing and keep its fingerprint.
    /// Every upcall is checked against two membership properties: one
    /// `ViewId` names one membership wherever it is installed, and a member
    /// that ejected itself is listed in `joined` by the next view it
    /// installs (the application awaits state transfer until then).
    /// Frames from or to the member in `cut` are dropped, as a partition
    /// does; its links resend them once the cut is lifted.
    struct Net {
        config: GroupConfig,
        members: BTreeMap<ProcId, GroupMember<u32>>,
        queue: VecDeque<(ProcId, ProcId, Wire<u32>)>,
        now: SimTime,
        reused: Option<Output<u32>>,
        transcript: Vec<String>,
        idle_ticks: Option<u32>,
        /// Each installed view's membership, as first installed.
        views: BTreeMap<ViewId, Vec<ProcId>>,
        /// Members that ejected and have not installed a view since.
        ejected: BTreeSet<ProcId>,
        cut: Option<ProcId>,
    }

    impl Net {
        fn group(n: u32, kind: EngineKind, reuse: bool) -> Net {
            Net::with_config(GroupConfig::with_engine(kind), n, reuse)
        }

        fn with_config(config: GroupConfig, n: u32, reuse: bool) -> Net {
            let mut net = Net {
                config,
                members: BTreeMap::new(),
                queue: VecDeque::new(),
                now: SimTime::ZERO,
                reused: reuse.then(Output::default),
                transcript: Vec::new(),
                idle_ticks: None,
                views: BTreeMap::new(),
                ejected: BTreeSet::new(),
                cut: None,
            };
            let ids: Vec<ProcId> = (0..n).map(ProcId).collect();
            for &id in &ids {
                net.add(id, ids.clone());
            }
            net
        }

        fn add(&mut self, id: ProcId, initial: Vec<ProcId>) {
            self.members
                .insert(id, GroupMember::new(id, self.config.clone(), initial));
            self.call(id, Call::Start);
            self.run();
        }

        fn call(&mut self, who: ProcId, call: Call) {
            let Some(m) = self.members.get_mut(&who) else {
                return;
            }; // crashed
            let now = self.now;
            if let (Call::Tick, Some(idle)) = (&call, &mut self.idle_ticks) {
                if m.tick_is_idle(now) {
                    let mut probe = m.clone();
                    let out = probe.tick(now);
                    assert!(
                        out.wire.is_empty() && out.events.is_empty(),
                        "{who} reported its tick at {now:?} idle and emitted {out:?}"
                    );
                    assert_eq!(
                        probe.state_hash(),
                        m.state_hash(),
                        "{who} reported its tick at {now:?} idle and changed state"
                    );
                    *idle += 1;
                }
            }
            let mut fresh;
            let out = if let Some(out) = &mut self.reused {
                match call {
                    Call::Start => m.start_into(now, out),
                    Call::Wire(from, frame) => m.on_wire_into(now, from, frame, out),
                    Call::Tick => m.tick_into(now, out),
                    Call::Broadcast(p) => m.broadcast_into(now, p, out),
                    Call::Leave => m.leave_into(now, out),
                }
                assert!(
                    out.engine.sends.is_empty() && out.engine.deliver.is_empty(),
                    "engine scratch left full"
                );
                out
            } else {
                fresh = match call {
                    Call::Start => m.start(now),
                    Call::Wire(from, frame) => m.on_wire(now, from, frame),
                    Call::Tick => m.tick(now),
                    Call::Broadcast(p) => m.broadcast(now, p),
                    Call::Leave => m.leave(now),
                };
                &mut fresh
            };
            for (to, frame, bytes) in out.wire.drain(..) {
                self.transcript
                    .push(format!("{who}>{to} {bytes}B {frame:?}"));
                self.queue.push_back((who, to, frame));
            }
            for ev in out.events.drain(..) {
                self.transcript.push(format!("{who}! {ev:?}"));
                match ev {
                    GcsEvent::ViewChange { view, joined, .. } => {
                        let first = self.views.entry(view.id).or_insert(view.members.clone());
                        assert_eq!(
                            *first, view.members,
                            "{who} installed {:?} with a second membership",
                            view.id
                        );
                        assert!(
                            !self.ejected.remove(&who) || joined.contains(&who),
                            "{who} ejected, then installed {:?} without being in joined {joined:?}",
                            view.id
                        );
                    }
                    GcsEvent::Ejected => {
                        self.ejected.insert(who);
                    }
                    GcsEvent::Deliver { .. } => {}
                }
            }
        }

        fn run(&mut self) {
            while let Some((from, to, frame)) = self.queue.pop_front() {
                if self.cut.is_none_or(|c| c != from && c != to) {
                    self.call(to, Call::Wire(from, frame));
                }
            }
        }

        fn tick(&mut self, d: SimDuration) {
            self.tick_members(d);
            self.run();
        }

        /// Tick every member without delivering what the ticks send.
        fn tick_members(&mut self, d: SimDuration) {
            self.now += d;
            for id in self.ids() {
                self.call(id, Call::Tick);
            }
        }

        fn ids(&self) -> Vec<ProcId> {
            self.members.keys().copied().collect()
        }

        /// Tick and deliver frame by frame until a frame line starting with
        /// `prefix` and naming `msg` is sent, leaving the rest queued.
        fn deliver_until_sent(&mut self, prefix: &str, msg: &str) {
            let sent = |net: &Net| {
                net.transcript
                    .iter()
                    .any(|l| l.starts_with(prefix) && l.contains(msg))
            };
            for _ in 0..1000 {
                while !sent(self) {
                    let Some((from, to, frame)) = self.queue.pop_front() else {
                        break;
                    };
                    self.call(to, Call::Wire(from, frame));
                }
                if sent(self) {
                    return;
                }
                self.tick_members(SimDuration::from_millis(5));
            }
            panic!("no {prefix} {msg} within 5 s");
        }

        fn pick(&self, sel: u8) -> ProcId {
            let ids = self.ids();
            ids[sel as usize % ids.len()]
        }
    }

    #[derive(Clone, Debug)]
    enum Step {
        Broadcast(u8),
        Advance(u8),
        Crash(u8),
        Leave(u8),
        Join,
        /// Tick this many times with the network silent, then deliver
        /// the backlog: peers are suspected and flushes start, then life
        /// signs arrive while they are under way.
        Stall(u8),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => any::<u8>().prop_map(Step::Broadcast),
            4 => (1u8..30).prop_map(Step::Advance),
            1 => any::<u8>().prop_map(Step::Crash),
            1 => any::<u8>().prop_map(Step::Leave),
            1 => Just(Step::Join),
        ]
    }

    /// [`step_strategy`] plus frequent silent stretches of up to 1 s, long
    /// enough for suspicion (250 ms), flush stalls (300 ms) and ejection
    /// (600 ms behind a newer view).
    fn stall_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            3 => step_strategy(),
            2 => (1u8..200).prop_map(Step::Stall),
        ]
    }

    /// Run one schedule; returns the transcript, every survivor's
    /// protocol-state fingerprint and, with `check_idle`, how many ticks
    /// were reported idle (each checked against a clone). `Net::call`
    /// checks the membership properties on the way.
    fn run_schedule(
        kind: EngineKind,
        n: u32,
        steps: &[Step],
        reuse: bool,
        check_idle: bool,
    ) -> (Vec<String>, Vec<u64>, Option<u32>) {
        let net = schedule(kind, n, steps, reuse, check_idle);
        (
            net.transcript,
            net.members.values().map(GroupMember::state_hash).collect(),
            net.idle_ticks,
        )
    }

    /// [`run_schedule`]'s network as the schedule leaves it.
    fn schedule(kind: EngineKind, n: u32, steps: &[Step], reuse: bool, check_idle: bool) -> Net {
        let tick = SimDuration::from_millis(5);
        let mut net = Net::group(n, kind, reuse);
        net.idle_ticks = check_idle.then_some(0);
        let mut joiner = 100;
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Broadcast(sel) => {
                    net.call(net.pick(sel), Call::Broadcast(i as u32));
                    net.run();
                }
                Step::Advance(k) => (0..k).for_each(|_| net.tick(tick)),
                Step::Crash(sel) if net.members.len() > 1 => {
                    net.members.remove(&net.pick(sel));
                }
                Step::Leave(sel) if net.members.len() > 1 => {
                    let who = net.pick(sel);
                    net.call(who, Call::Leave);
                    net.members.remove(&who);
                    net.run();
                }
                Step::Crash(_) | Step::Leave(_) => {}
                Step::Join => {
                    joiner += 1;
                    net.add(ProcId(joiner), net.ids());
                }
                Step::Stall(k) => {
                    (0..k).for_each(|_| net.tick_members(tick));
                    net.run();
                }
            }
        }
        (0..200).for_each(|_| net.tick(tick));
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The by-value methods and the out-parameter forms are one path:
        /// the same schedule (broadcasts, ticks, crashes, leaves, joins)
        /// gives the same frames (destination, size, content), the same
        /// upcalls and the same member states, call for call, when every
        /// call of every member writes into one never-replaced `Output`.
        #[test]
        fn reused_output_matches_fresh_output_call_for_call(
            n in 1u32..5,
            steps in proptest::collection::vec(step_strategy(), 1..40),
        ) {
            for kind in [EngineKind::Sequencer, EngineKind::Token] {
                let (fresh, fresh_states, _) = run_schedule(kind, n, &steps, false, false);
                let (reused, reused_states, _) = run_schedule(kind, n, &steps, true, false);
                prop_assert!(fresh.len() > n as usize, "the schedule produced traffic");
                for (i, (f, r)) in fresh.iter().zip(&reused).enumerate() {
                    prop_assert_eq!(f, r, "{:?}: transcripts part at line {}", kind, i);
                }
                prop_assert_eq!(fresh.len(), reused.len());
                prop_assert_eq!(fresh_states, reused_states);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Idle means no-op: over the same schedules plus silent stretches
        /// (peers suspected, then heard again), every tick for which
        /// `tick_is_idle` holds emits nothing and keeps `state_hash` when
        /// run on a clone (`Net::call` checks it before the real tick).
        /// The 200 quiet ticks that close every schedule are mostly idle
        /// under the sequencer, so the check is never vacuous there. The
        /// one guard these schedules never isolate, `is_blocked`, has its
        /// own test below. The stretches are long and frequent enough to
        /// drive flushes through false suspicion, ejection and rejoin, so
        /// these cases are also where `Net::call`'s membership checks bite.
        #[test]
        fn idle_ticks_emit_nothing_and_keep_the_fingerprint(
            n in 1u32..5,
            steps in proptest::collection::vec(stall_strategy(), 1..40),
        ) {
            for kind in [EngineKind::Sequencer, EngineKind::Token] {
                let (_, _, idle) = run_schedule(kind, n, &steps, true, true);
                // A sole token holder reports every tick busy once its
                // token's rest is over, so only the sequencer's count is
                // bounded below.
                if kind == EngineKind::Sequencer {
                    prop_assert!(idle.is_some_and(|i| i > 100), "{:?} idle ticks", idle);
                }
            }
        }
    }

    /// The `is_blocked` guard of `tick_is_idle`, in the two states where it
    /// alone keeps a tick busy: a member blocked on a flush whose
    /// coordinator is alive but never finishes, until the stall timeout
    /// condemns the coordinator and ends the block; then the same member
    /// with its engine still halted, until the coordinator's next
    /// heartbeat lifts the condemnation and the tick resumes ordering.
    /// (The schedules above finish every flush within one delivery run or
    /// with a suspect in the view.) `Net::call` checks every tick.
    #[test]
    fn a_stalled_flush_and_the_halted_engine_it_leaves_are_not_idle() {
        let tick = SimDuration::from_millis(5);
        let (p0, p2) = (ProcId(0), ProcId(2));
        let mut net = Net::group(3, EngineKind::Sequencer, false);
        net.idle_ticks = Some(0);
        // Off the 50 ms heartbeat grid, so the stall timeout at +300 ms
        // falls on a tick with no heartbeat due.
        (0..21).for_each(|_| net.tick(tick));
        let epoch = Epoch {
            view_id: net.members[&p2].view().id,
            attempt: 0,
            coord: p0,
        };
        let req = GcsMsg::FlushReq {
            epoch,
            proposed: vec![p0, ProcId(1), p2],
            coord_known: 0,
        };
        net.call(p2, Call::Wire(p0, Wire::Raw(req)));
        net.run();
        assert!(matches!(net.members[&p2].flush, Flush::Blocked { .. }));
        let mut phases = Vec::new();
        for _ in 0..100 {
            net.tick(tick);
            let m = &net.members[&p2];
            let phase = (
                matches!(m.flush, Flush::Blocked { .. }),
                m.engine.is_active(),
            );
            if phases.last() != Some(&phase) {
                phases.push(phase);
            }
        }
        assert_eq!(
            phases,
            [(true, false), (false, false), (false, true)],
            "blocked, then released with the engine halted, then resumed"
        );
        assert_eq!(net.members[&p2].view().len(), 3, "no view change");
        assert!(net.idle_ticks.is_some_and(|i| i > 100));
    }

    /// ROADMAP item 6(a), a finalized flush stays committed: with no frame
    /// lost, false suspicion (silent stretches), one crash and one join
    /// drive p0 to finalize `v4@p0` = [p0, p1, p101] and then to want a
    /// different membership before every ack is in. `Net::call` checks
    /// that `v4@p0` names that one membership wherever it is installed.
    #[test]
    fn false_suspicion_a_crash_and_a_join_never_alias_a_view_id() {
        use Step::{Advance, Broadcast, Crash, Join, Stall};
        let steps = [
            Stall(87),
            Stall(54),
            Broadcast(43),
            Crash(11),
            Stall(119),
            Join,
            Advance(8),
            Stall(112),
        ];
        run_schedule(EngineKind::Sequencer, 3, &steps, false, false);
    }

    /// ROADMAP item 6(a), the answers decide who joins: p1 ejects and asks
    /// to rejoin, and p0 drops the request as a suspected joiner (its
    /// repeats carry the same incarnation and are ignored), while p1 is
    /// still in p0's view. p1 answers p0's next flush as a joiner, so the
    /// view it installs lists it in `joined` (checked by `Net::call`) and
    /// its application awaits state transfer; counted as an old member
    /// holding nothing, it would trip `try_finalize`'s "gap in delivered
    /// region" assertion.
    #[test]
    fn an_ejected_member_the_coordinator_forgot_still_rejoins_as_a_joiner() {
        use Step::{Advance, Join, Leave, Stall};
        let steps = [
            Stall(50),
            Leave(98),
            Advance(13),
            Stall(107),
            Stall(1),
            Stall(50),
            Join,
        ];
        let (transcript, _, _) = run_schedule(EngineKind::Sequencer, 3, &steps, false, false);
        assert!(
            transcript.iter().any(|l| l.starts_with("p1! Ejected")),
            "the schedule ejects p1"
        );
    }

    /// A committed flush installs past a joiner that fell silent after
    /// answering. The detector suspects it and `member_tick` drops it as a
    /// suspected joiner, which stops watching it; the commit gives up on a
    /// member that is neither in the view nor pending, where counting only
    /// suspected members would wait forever. The view lists the joiner,
    /// and the next flush removes it.
    #[test]
    fn a_committed_flush_installs_past_a_joiner_that_fell_silent() {
        let tick = SimDuration::from_millis(5);
        let p101 = ProcId(101);
        let mut net = Net::group(2, EngineKind::Sequencer, false);
        net.add(p101, net.ids());
        net.deliver_until_sent("p101>p0", "FlushInfo");
        net.members.remove(&p101);
        (0..200).for_each(|_| net.tick(tick));
        let views: Vec<&str> = net
            .transcript
            .iter()
            .filter_map(|l| l.strip_prefix("p0! ViewChange { view: View { id: "))
            .collect();
        assert_eq!(views.len(), 2, "{views:?}");
        assert!(
            views[0].contains("members: [p0, p1, p101] }, joined: [p101]"),
            "{}",
            views[0]
        );
        assert!(
            views[1].contains("members: [p0, p1] }, joined: [], left: [p101]"),
            "{}",
            views[1]
        );
    }

    /// Under `PrimaryComponent`, a coordinator cut off right after sending
    /// `FlushFinal` does not install the committed view by giving up on
    /// everyone: it alone is no quorum of the old view, so it waits. The
    /// majority condemns it and installs a smaller view of its own; when
    /// the cut heals, that view's heartbeats eject the coordinator, which
    /// rejoins it. Installing alone would have made the coordinator's view
    /// (same number, more members) outrank the majority's, ejecting every
    /// member that kept working.
    #[test]
    fn a_coordinator_cut_off_after_flush_final_yields_to_the_majority() {
        let tick = SimDuration::from_millis(5);
        let p0 = ProcId(0);
        let mut config = GroupConfig::with_engine(EngineKind::Sequencer);
        config.membership = MembershipPolicy::PrimaryComponent;
        let mut net = Net::with_config(config, 5, false);
        net.members.remove(&ProcId(4));
        net.deliver_until_sent("p0>", "FlushFinal");
        net.cut = Some(p0);
        (0..400).for_each(|_| net.tick(tick));
        net.cut = None;
        (0..400).for_each(|_| net.tick(tick));
        let ejected: Vec<&str> = net
            .transcript
            .iter()
            .filter(|l| l.ends_with("! Ejected"))
            .map(String::as_str)
            .collect();
        assert_eq!(ejected, ["p0! Ejected"]);
        let views: Vec<&View> = net.members.values().map(GroupMember::view).collect();
        assert!(views.iter().all(|v| *v == views[0]), "{views:?}");
        assert_eq!(views[0].members.len(), 4, "{views:?}");
    }

    /// A member that promised a higher epoch still installs a committed
    /// view. p2 crashes and p0 commits [p0, p1], but its `FlushFinal` to p1
    /// is held back for 1 s while heartbeats flow. p1's flush stalls, it
    /// condemns p0 and proposes [p1] alone under a higher epoch, which is no
    /// quorum of [p0, p1, p2]. When the `FlushFinal` arrives, p1 installs
    /// it: dropping it for the promise would leave p0 waiting for p1's ack
    /// and p1 waiting for p0, both alive, forever.
    #[test]
    fn a_member_that_promised_a_higher_epoch_installs_the_committed_view() {
        let tick = SimDuration::from_millis(5);
        let mut config = GroupConfig::with_engine(EngineKind::Sequencer);
        config.membership = MembershipPolicy::PrimaryComponent;
        let mut net = Net::with_config(config, 3, false);
        net.members.remove(&ProcId(2));
        for _ in 0..200 {
            net.tick_members(tick);
            while let Some((from, to, frame)) = net.queue.pop_front() {
                if !format!("{frame:?}").contains("FlushFinal") {
                    net.call(to, Call::Wire(from, frame));
                }
            }
        }
        assert!(
            net.members[&ProcId(1)]
                .max_epoch_seen
                .is_some_and(|e| e.coord == ProcId(1)),
            "p1 proposed under its own epoch"
        );
        (0..200).for_each(|_| net.tick(tick));
        for who in [ProcId(0), ProcId(1)] {
            assert_eq!(
                net.members[&who].view().members,
                [ProcId(0), ProcId(1)],
                "{who}"
            );
        }
    }

    /// ROADMAP item 6(e), not fixed: the cut-off coordinator of
    /// `a_coordinator_cut_off_after_flush_final_yields_to_the_majority`
    /// does not install its committed view, but a joiner it admitted can.
    /// p0 commits [p0, p1, p2, p101] and is cut off. p1 and p2 drop p101
    /// as a suspected joiner (it sends `JoinReq` every 300 ms and is
    /// suspected after 250 ms) and install [p1, p2]. After the heal p101
    /// gets p0's `FlushFinal`, installs the four-member view alone, and
    /// its heartbeats outrank the majority's view and eject p1 and p2.
    #[test]
    #[ignore = "ROADMAP item 6(e)"]
    fn a_joiner_cannot_carry_a_cut_off_coordinators_view_past_the_majority() {
        let tick = SimDuration::from_millis(5);
        let p0 = ProcId(0);
        let mut config = GroupConfig::with_engine(EngineKind::Sequencer);
        config.membership = MembershipPolicy::PrimaryComponent;
        let mut net = Net::with_config(config, 3, false);
        net.add(ProcId(101), net.ids());
        net.deliver_until_sent("p0>", "FlushFinal");
        net.cut = Some(p0);
        (0..400).for_each(|_| net.tick(tick));
        net.cut = None;
        (0..400).for_each(|_| net.tick(tick));
        let ejected: Vec<&str> = net
            .transcript
            .iter()
            .filter(|l| l.ends_with("! Ejected"))
            .map(String::as_str)
            .collect();
        assert_eq!(ejected, ["p0! Ejected"]);
    }

    /// A joiner that is still in the coordinator's view (it ejected
    /// itself) and stops answering is given up on. p2 ejects, answers p1's
    /// flush as a joiner and never gets the `FlushFinal` (item 6(d)'s stale
    /// link stream). p1 drops it as a suspected joiner but keeps watching
    /// it, since it is still in p1's view, so the commit gives up on it
    /// once it is suspected again, and the next flush removes it. Had p1
    /// stopped watching it, p1 would wait in `Committing` forever.
    #[test]
    fn a_coordinator_gives_up_on_a_view_member_that_rejoins_and_falls_silent() {
        use Step::{Crash, Leave, Stall};
        let steps = [Stall(1), Leave(68), Stall(134), Crash(194)];
        let mut net = schedule(EngineKind::Sequencer, 4, &steps, false, false);
        (0..1000).for_each(|_| net.tick(SimDuration::from_millis(5)));
        let p1 = &net.members[&ProcId(1)];
        assert!(!matches!(p1.flush, Flush::Committing { .. }));
        assert_eq!(p1.view().members, [ProcId(1)]);
    }

    /// ROADMAP item 6(d), not fixed: a joiner admitted while a member
    /// ejects never installs. p0 ejects, and its fresh links restart their
    /// streams at seq 1; joiner p101 never ran `on_join_req`, so it never
    /// reset its side and still holds p0's old inbound `cum = 2`. It acks
    /// p0's next `FlushReq` (seq 1) as a duplicate and drops it, and p0
    /// pops it from `unacked`: the request is lost without a trace. p0 and
    /// p1 meanwhile install about 20 views.
    #[test]
    #[ignore = "ROADMAP item 6(d)"]
    fn a_joiner_installs_while_a_member_ejects_and_rejoins() {
        use Step::{Advance, Join, Stall};
        let mut steps = vec![Join, Stall(60)];
        steps.extend((0..8).map(|_| Advance(250)));
        let (transcript, _, _) = run_schedule(EngineKind::Sequencer, 2, &steps, false, false);
        let count = |prefix: &str| transcript.iter().filter(|l| l.starts_with(prefix)).count();
        assert!(
            count("p101! ViewChange") > 0,
            "p101 never installed a view; p0 ejected {} times, and p0 and p1 installed {} and {} views",
            count("p0! Ejected"),
            count("p0! ViewChange"),
            count("p1! ViewChange"),
        );
    }

    /// The reuse hazard: a view change puts dozens of frames and several
    /// upcalls through the buffer, several per call; the idle tick after it
    /// must see none of them.
    #[test]
    fn nothing_stale_in_the_reused_output_after_a_view_change() {
        let tick = SimDuration::from_millis(5);
        let mut net = Net::group(4, EngineKind::Sequencer, true);
        net.call(ProcId(1), Call::Broadcast(7));
        net.run();
        net.members.remove(&ProcId(3));
        let before = net.transcript.len();
        while net
            .members
            .values()
            .any(|m| m.view().len() != 3 || m.is_blocked())
        {
            net.tick(tick);
            assert!(
                net.now < SimTime::ZERO + SimDuration::from_secs(5),
                "no view change"
            );
        }
        let change = &net.transcript[before..];
        let frames = change.iter().filter(|l| l.contains('>')).count();
        let installs = change.iter().filter(|l| l.contains("ViewChange")).count();
        assert!(
            frames >= 40 && installs == 3,
            "{frames} frames, {installs} installs:\n{}",
            change.join("\n")
        );
        let out = net.reused.as_ref().unwrap();
        assert!(
            out.wire.capacity() >= 4 && out.events.capacity() >= 1,
            "the one buffer carried the view change"
        );
        assert!(out.wire.is_empty() && out.events.is_empty());

        // An idle tick through the used buffer emits exactly what the same
        // tick emits into a fresh one.
        net.now += tick;
        for id in net.ids() {
            let want = net.members[&id].clone().tick(net.now);
            let out = net.reused.as_mut().unwrap();
            net.members.get_mut(&id).unwrap().tick_into(net.now, out);
            assert_eq!(
                format!("{:?}", out.wire),
                format!("{:?}", want.wire),
                "member {id}"
            );
            assert_eq!(
                format!("{:?}", out.events),
                format!("{:?}", want.events),
                "member {id}"
            );
            assert!(
                out.events.is_empty() && out.wire.len() <= 3,
                "an idle tick: heartbeats at most"
            );
            out.wire.clear();
        }
    }
}
