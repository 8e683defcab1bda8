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
//!    state (a promise: they will ignore flushes with lower epochs).
//! 3. With all digests in hand — and only if the proposal passes the
//!    primary-component quorum check against the current view — the
//!    coordinator reconciles one agreed history, renumbers any undelivered
//!    tail compactly, and sends `FlushFinal`.
//! 4. Members deliver the reconciled tail, install the view, and ack. The
//!    coordinator installs only after *every* proposed member has acked, so
//!    it can never move to a view nobody else accepted.
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
        /// Members present now but not in the previous view (from the
        /// perspective of the whole group: includes rejoiners).
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

/// Frames to transmit and events to hand to the application.
#[derive(Debug)]
pub struct Output<P> {
    /// `(destination, frame, wire_size_bytes)` to transmit.
    pub wire: Vec<(ProcId, Wire<P>, u32)>,
    /// Upcalls, in order.
    pub events: Vec<GcsEvent<P>>,
}

impl<P> Default for Output<P> {
    fn default() -> Self {
        Output { wire: Vec::new(), events: Vec::new() }
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
struct Finalized<P> {
    view: View,
    joined: Vec<ProcId>,
    msgs: Vec<OrderedMsg<P>>,
    next_seq: u64,
    dedup: Vec<(ProcId, u64)>,
}

#[derive(Clone, Debug, Hash)]
#[expect(
    clippy::large_enum_variant,
    reason = "Coordinating carries the reconciliation state; boxing it buys nothing here"
)]
enum Flush<P> {
    None,
    /// Answered someone's FlushReq; awaiting their FlushFinal.
    Blocked { epoch: Epoch, since: SimTime },
    /// We are coordinating.
    Coordinating {
        epoch: Epoch,
        proposed: Vec<ProcId>,
        joiners: BTreeSet<ProcId>,
        digests: BTreeMap<ProcId, FlushDigest<P>>,
        finalized: Option<Finalized<P>>,
        acks: BTreeSet<ProcId>,
        started: SimTime,
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
    former_members: std::collections::BTreeSet<ProcId>,
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
        let engine =
            Engine::with_retry(config.engine, me, config.token_idle_pass, config.request_retry);
        let links = LinkManager::new(config.rto);
        let detector = FailureDetector::new(config.fail_after);
        let is_member = initial.contains(&me);
        let (view, role) = if is_member {
            (View::initial(initial), Role::Member)
        } else {
            (
                View::new(ViewId::NONE, Vec::new()),
                Role::Joining { contacts: initial, last_req: None, answered: None },
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
            former_members: std::collections::BTreeSet::new(),
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

    /// Counters.
    pub fn stats(&self) -> GroupStats {
        self.stats
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
    pub(crate) fn state_hash(&self) -> u64
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
        match &self.role {
            Role::Member => {
                let members = self.view.members.clone();
                for &p in &members {
                    if p != self.me {
                        self.detector.watch(p, now);
                        self.peer_delivered.insert(p, 0);
                    }
                }
                let leader = self.view.leader() == Some(self.me);
                let eo = self.engine.install(now, members, 1, &[], leader);
                self.absorb_engine(now, eo, &mut out);
                self.send_heartbeats(now, &mut out);
            }
            Role::Joining { .. } => {
                self.send_join_req(now, &mut out);
            }
        }
        out
    }

    /// Submit a payload for totally ordered delivery to the whole group.
    /// While a view change is in progress the payload is queued and
    /// resubmitted automatically after the next install.
    pub fn broadcast(&mut self, now: SimTime, payload: P) -> Output<P> {
        let mut out = Output::default();
        self.stats.broadcasts += 1;
        let eo = self.engine.submit(now, payload);
        self.absorb_engine(now, eo, &mut out);
        out
    }

    /// Announce a voluntary leave. The paper's JOSHUA handles leaves as
    /// forced failures; after calling this the process should stop calling
    /// `tick` (and typically exits).
    pub(crate) fn leave(&mut self, _now: SimTime) -> Output<P> {
        let mut out = Output::default();
        let peers: Vec<ProcId> = self.view.members.iter().copied().filter(|&p| p != self.me).collect();
        for p in peers {
            self.push_raw(p, GcsMsg::Leave, &mut out);
        }
        out
    }

    /// Periodic maintenance; call every `config.tick_every`.
    pub fn tick(&mut self, now: SimTime) -> Output<P> {
        let mut out = Output::default();
        for (to, frame) in self.links.tick(now) {
            let bytes = frame.wire_size(self.config.payload_bytes);
            out.wire.push((to, frame, bytes));
        }
        match &self.role {
            Role::Joining { last_req, .. } => {
                let due = last_req.is_none_or(|t| now.since(t) >= self.config.flush_timeout);
                if due {
                    self.send_join_req(now, &mut out);
                }
            }
            Role::Member => {
                self.member_tick(now, &mut out);
            }
        }
        out
    }

    /// Feed one received frame.
    pub fn on_wire(&mut self, now: SimTime, from: ProcId, frame: Wire<P>) -> Output<P> {
        let mut out = Output::default();
        self.detector.heard(from, now);
        let inbound = self.links.on_wire(now, from, frame);
        if let Some(reply) = inbound.reply {
            let bytes = reply.wire_size(self.config.payload_bytes);
            out.wire.push((from, reply, bytes));
        }
        for msg in inbound.deliver {
            self.handle_msg(now, from, msg, &mut out);
        }
        out
    }

    // ------------------------------------------------------------------
    // Internals: send helpers
    // ------------------------------------------------------------------

    fn push_raw(&mut self, to: ProcId, msg: GcsMsg<P>, out: &mut Output<P>) {
        let frame = Wire::Raw(msg);
        let bytes = frame.wire_size(self.config.payload_bytes);
        out.wire.push((to, frame, bytes));
    }

    fn push_link(&mut self, now: SimTime, to: ProcId, msg: GcsMsg<P>, out: &mut Output<P>) {
        let frame = self.links.send(now, to, msg);
        let bytes = frame.wire_size(self.config.payload_bytes);
        out.wire.push((to, frame, bytes));
    }

    fn absorb_engine(&mut self, now: SimTime, eo: EngineOut<P>, out: &mut Output<P>) {
        let view_id = self.view.id;
        for (to, emsg) in eo.sends {
            self.push_link(now, to, GcsMsg::Engine { view_id, msg: emsg }, out);
        }
        for m in eo.deliver {
            self.stats.delivered += 1;
            out.events.push(GcsEvent::Deliver {
                seq: m.seq,
                origin: m.origin,
                payload: m.payload,
            });
        }
    }

    fn send_heartbeats(&mut self, now: SimTime, out: &mut Output<P>) {
        self.last_hb = Some(now);
        let hb = GcsMsg::Heartbeat {
            view_id: self.view.id,
            view_size: size32(self.view.len()),
            delivered_up_to: self.engine.delivered_up_to(),
        };
        let peers: Vec<ProcId> =
            self.view.members.iter().copied().filter(|&p| p != self.me).collect();
        for p in peers {
            self.push_raw(p, hb.clone(), out);
        }
    }

    fn send_join_req(&mut self, now: SimTime, out: &mut Output<P>) {
        let incarnation = self.incarnation;
        let contacts = match &mut self.role {
            Role::Joining { contacts, last_req, .. } => {
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

    fn member_tick(&mut self, now: SimTime, out: &mut Output<P>) {
        // Heartbeats.
        let hb_due = self.last_hb.is_none_or(|t| now.since(t) >= self.config.heartbeat_every);
        if hb_due {
            self.send_heartbeats(now, out);
        }
        // Occasional probes to former members: the other side of a healed
        // partition would otherwise never hear from us again (both sides
        // only heartbeat their own view) and split components could not
        // re-merge.
        let probe_due =
            self.last_probe.is_none_or(|t| now.since(t) >= self.config.fail_after);
        if probe_due && !self.former_members.is_empty() {
            self.last_probe = Some(now);
            let hb = GcsMsg::Heartbeat {
                view_id: self.view.id,
                view_size: size32(self.view.len()),
                delivered_up_to: self.engine.delivered_up_to(),
            };
            for p in self.former_members.clone() {
                self.push_raw(p, hb.clone(), out);
            }
        }
        // Engine maintenance (token circulation).
        let eo = self.engine.tick(now);
        self.absorb_engine(now, eo, out);
        // Stability GC: prune what the whole view has delivered.
        let stable = self
            .view
            .members
            .iter()
            .filter(|&&p| p != self.me)
            .map(|p| self.peer_delivered.get(p).copied().unwrap_or(0))
            .min()
            .unwrap_or(self.engine.delivered_up_to());
        self.engine.prune(stable);

        // Drop suspected joiners.
        let dead_joiners: Vec<ProcId> = self
            .pending_joiners
            .keys()
            .copied()
            .filter(|&j| self.detector.suspected(j, now))
            .collect();
        for j in dead_joiners {
            self.pending_joiners.remove(&j);
            self.detector.unwatch(j);
        }

        // Flush stall handling.
        enum Stall {
            Nothing,
            GiveUpBlocked(ProcId),
            Abandon(Epoch, Vec<ProcId>),
        }
        let me = self.me;
        let detector = &self.detector;
        let stall = match &mut self.flush {
            Flush::Blocked { epoch, since } if now.since(*since) >= self.config.flush_timeout => {
                // Coordinator is taking too long: treat it as dead so a new
                // coordinator (maybe us) takes over.
                Stall::GiveUpBlocked(epoch.coord)
            }
            Flush::Coordinating { epoch, started, finalized, proposed, .. }
                if now.since(*started) >= self.config.flush_timeout =>
            {
                let someone_dead = proposed
                    .iter()
                    .any(|&p| p != me && detector.suspected(p, now));
                if finalized.is_some() && !someone_dead {
                    // All proposed members look alive; the links keep
                    // retransmitting FlushFinal until everyone acks.
                    *started = now;
                    Stall::Nothing
                } else {
                    Stall::Abandon(*epoch, proposed.clone())
                }
            }
            Flush::None | Flush::Blocked { .. } | Flush::Coordinating { .. } => Stall::Nothing,
        };
        match stall {
            Stall::Nothing => {}
            Stall::GiveUpBlocked(c) => {
                // Epoch takeover: condemn the stalled coordinator and give
                // up the block. The epoch promise in `max_epoch_seen`
                // stands, so a restart by anyone carries a higher epoch.
                // If we are the next candidate we coordinate the takeover
                // below; if the group otherwise looks healthy (coordinator
                // alive but its attempt orphaned), the fizzled-flush path
                // resumes ordering in the current view instead of halting
                // forever on a condemnation the next heartbeat clears.
                self.detector.watch(c, SimTime::ZERO);
                self.detector.condemn(c);
                self.flush = Flush::None;
            }
            Stall::Abandon(epoch, proposed) => {
                self.flush = Flush::None;
                // Unblock members we halted; if a restart is needed it
                // happens below with a fresh (higher) epoch.
                for p in proposed {
                    if p != self.me {
                        self.push_link(now, p, GcsMsg::FlushAbort { epoch }, out);
                    }
                }
            }
        }

        // Membership change needed?
        let suspects: Vec<ProcId> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|&p| p != self.me && self.detector.suspected(p, now))
            .collect();
        if suspects.is_empty() && self.pending_joiners.is_empty() {
            // No change needed; if we halted for a flush that fizzled
            // (ours aborted, or trigger vanished before we coordinated),
            // resume ordering in the current view.
            if matches!(self.flush, Flush::None) && self.is_installed() && !self.engine.is_active() {
                let eo = self.engine.resume(now);
                self.absorb_engine(now, eo, out);
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
        if let Flush::Coordinating { epoch, proposed, .. } = &self.flush {
            let epoch = *epoch;
            let peers: Vec<ProcId> =
                proposed.iter().copied().filter(|&p| p != self.me).collect();
            self.flush = Flush::None;
            for p in peers {
                self.push_link(now, p, GcsMsg::FlushAbort { epoch }, out);
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
        let epoch = Epoch { view_id: self.view.id, attempt, coord: self.me };
        self.max_epoch_seen = Some(epoch);
        self.engine.halt();
        let coord_known = self.engine.delivered_up_to();
        let mut digests = BTreeMap::new();
        digests.insert(self.me, self.engine.digest(coord_known));
        let joiners: BTreeSet<ProcId> = self.pending_joiners.keys().copied().collect();
        let peers: Vec<ProcId> = proposal.iter().copied().filter(|&p| p != self.me).collect();
        self.flush = Flush::Coordinating {
            epoch,
            proposed: proposal.clone(),
            joiners,
            digests,
            finalized: None,
            acks: BTreeSet::new(),
            started: now,
        };
        for p in peers {
            self.push_link(
                now,
                p,
                GcsMsg::FlushReq { epoch, proposed: proposal.clone(), coord_known },
                out,
            );
        }
        self.try_finalize(now, out);
    }

    // ------------------------------------------------------------------
    // Internals: message handling
    // ------------------------------------------------------------------

    fn handle_msg(&mut self, now: SimTime, from: ProcId, msg: GcsMsg<P>, out: &mut Output<P>) {
        match msg {
            GcsMsg::Heartbeat { view_id, view_size, delivered_up_to } => {
                self.on_heartbeat(now, from, view_id, view_size, delivered_up_to, out);
            }
            GcsMsg::JoinReq { incarnation } => {
                self.on_join_req(now, from, incarnation);
            }
            GcsMsg::Leave => {
                self.detector.watch(from, SimTime::ZERO);
                self.detector.condemn(from);
            }
            GcsMsg::FlushReq { epoch, proposed, coord_known } => {
                self.on_flush_req(now, from, epoch, proposed, coord_known, out);
            }
            GcsMsg::FlushInfo { epoch, digest } => {
                self.on_flush_info(now, from, epoch, digest, out);
            }
            GcsMsg::FlushFinal { epoch, view, joined, msgs, next_seq, dedup } => {
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
                        let eo = self.engine.resume(now);
                        self.absorb_engine(now, eo, out);
                    }
                }
            }
            GcsMsg::Engine { view_id, msg } => {
                if self.is_installed() && view_id == self.view.id {
                    let eo = self.engine.on_msg(now, from, msg);
                    self.absorb_engine(now, eo, out);
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
        let ours = (self.view.id.num, size32(self.view.len()), self.view.id.coord);
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
            let hb = GcsMsg::Heartbeat {
                view_id: self.view.id,
                view_size: size32(self.view.len()),
                delivered_up_to: self.engine.delivered_up_to(),
            };
            self.push_raw(from, hb, out);
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
                let digest =
                    FlushDigest { max_contig: 0, extra: Vec::new(), dedup: Vec::new() };
                self.push_link(now, from, GcsMsg::FlushInfo { epoch, digest }, out);
            }
            Role::Member => {
                if epoch.view_id != self.view.id {
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
                let digest = self.engine.digest(coord_known);
                self.push_link(now, epoch.coord, GcsMsg::FlushInfo { epoch, digest }, out);
            }
        }
    }

    fn on_flush_info(
        &mut self,
        now: SimTime,
        from: ProcId,
        epoch: Epoch,
        digest: FlushDigest<P>,
        out: &mut Output<P>,
    ) {
        let Flush::Coordinating { epoch: my_epoch, proposed, digests, finalized, .. } =
            &mut self.flush
        else {
            return;
        };
        if epoch != *my_epoch || finalized.is_some() || !proposed.contains(&from) {
            return;
        }
        digests.insert(from, digest);
        self.try_finalize(now, out);
    }

    fn try_finalize(&mut self, now: SimTime, out: &mut Output<P>) {
        let Flush::Coordinating { epoch, proposed, joiners, digests, finalized, .. } =
            &mut self.flush
        else {
            return;
        };
        if finalized.is_some() || !proposed.iter().all(|p| digests.contains_key(p)) {
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
        // Old members contribute their history; joiners are state-less.
        let old_members: Vec<ProcId> = proposed
            .iter()
            .copied()
            .filter(|p| self.view.contains(*p) && !joiners.contains(p))
            .collect();
        debug_assert!(old_members.contains(&self.me));
        let min_d = old_members
            .iter()
            .map(|p| digests[p].max_contig)
            .min()
            .unwrap_or(0);
        let max_d = old_members
            .iter()
            .map(|p| digests[p].max_contig)
            .max()
            .unwrap_or(0);
        // Union of everything anyone knows.
        let mut union: BTreeMap<u64, OrderedMsg<P>> = BTreeMap::new();
        for d in digests.values() {
            for m in &d.extra {
                union.entry(m.seq).or_insert_with(|| m.clone());
            }
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
            .map(|(_, m)| m.clone())
            .collect();
        let mut next_seq = max_d + 1;
        for (_, m) in union.range(max_d + 1..) {
            let mut m = m.clone();
            m.seq = next_seq;
            next_seq += 1;
            msgs.push(m);
        }
        // Merge dedup floors.
        let mut dedup: BTreeMap<ProcId, u64> = BTreeMap::new();
        for d in digests.values() {
            for &(p, l) in &d.dedup {
                let e = dedup.entry(p).or_insert(0);
                *e = (*e).max(l);
            }
        }
        for m in &msgs {
            let e = dedup.entry(m.origin).or_insert(0);
            *e = (*e).max(m.local_id);
        }
        let dedup: Vec<(ProcId, u64)> = dedup.into_iter().collect();
        let new_view = View::new(self.view.id.next(self.me), proposed.clone());
        let joined: Vec<ProcId> = new_view
            .members
            .iter()
            .copied()
            .filter(|p| joiners.contains(p) || !self.view.contains(*p))
            .collect();
        *finalized = Some(Finalized {
            view: new_view.clone(),
            joined: joined.clone(),
            msgs: msgs.clone(),
            next_seq,
            dedup: dedup.clone(),
        });
        let epoch = *epoch;
        let peers: Vec<ProcId> = proposed.iter().copied().filter(|&p| p != self.me).collect();
        for p in peers {
            self.push_link(
                now,
                p,
                GcsMsg::FlushFinal {
                    epoch,
                    view: new_view.clone(),
                    joined: joined.clone(),
                    msgs: msgs.clone(),
                    next_seq,
                    dedup: dedup.clone(),
                },
                out,
            );
        }
        self.maybe_commit(now, out);
    }

    #[expect(clippy::too_many_arguments, reason = "mirrors the FlushFinal wire message")]
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
                if epoch.view_id != self.view.id || self.max_epoch_seen != Some(epoch) {
                    return;
                }
                self.install_view(now, view, joined, &msgs, next_seq, &dedup, out);
                self.push_link(now, from, GcsMsg::InstallAck { epoch }, out);
            }
        }
    }

    fn on_install_ack(&mut self, now: SimTime, from: ProcId, epoch: Epoch, out: &mut Output<P>) {
        let Flush::Coordinating { epoch: my_epoch, finalized, acks, .. } = &mut self.flush
        else {
            return;
        };
        if epoch != *my_epoch || finalized.is_none() {
            return;
        }
        acks.insert(from);
        self.maybe_commit(now, out);
    }

    fn maybe_commit(&mut self, now: SimTime, out: &mut Output<P>) {
        let Flush::Coordinating { proposed, finalized, acks, .. } = &self.flush else {
            return;
        };
        let Some(f) = finalized else { return };
        let all_acked = proposed.iter().all(|&p| p == self.me || acks.contains(&p));
        if !all_acked {
            return;
        }
        let view = f.view.clone();
        let joined = f.joined.clone();
        let msgs = f.msgs.clone();
        let next_seq = f.next_seq;
        let dedup = f.dedup.clone();
        self.install_view(now, view, joined, &msgs, next_seq, &dedup, out);
    }

    /// Common installation path for coordinator, members and joiners.
    #[expect(clippy::too_many_arguments, reason = "mirrors the FlushFinal wire message")]
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
            let Some(&first) = self.former_members.iter().next() else { break };
            self.former_members.remove(&first);
        }
        self.view = view.clone();
        self.role = Role::Member;
        self.flush = Flush::None;
        self.max_epoch_seen = None;
        self.behind_since = None;
        self.stats.view_changes += 1;
        // 3. Restart the engine in the new view (resubmits own pendings).
        let leader = view.leader() == Some(self.me);
        let eo = self.engine.install(now, view.members.clone(), next_seq, dedup, leader);
        // Joiners start a fresh submission stream: drop any floors their
        // previous life left in the merged dedup state (every replica does
        // this identically, so the floors stay agreed).
        for j in &joined {
            self.engine.reset_submitter(*j);
        }
        self.absorb_engine(now, eo, out);
        // 4. Tell the application.
        out.events.push(GcsEvent::ViewChange { view, joined, left });
        // 5. Announce the new view promptly (lets stragglers detect they
        //    are behind and speeds up stability convergence).
        self.send_heartbeats(now, out);
    }

    fn eject(&mut self, now: SimTime, out: &mut Output<P>) {
        self.stats.ejections += 1;
        // Contact everyone we ever shared a view with: after a fail-stop
        // partition the ejecting side may have shrunk to a singleton view,
        // so its current members alone would be an empty contact list.
        let mut contact_set: std::collections::BTreeSet<ProcId> =
            self.view.members.iter().copied().collect();
        contact_set.extend(self.former_members.iter().copied());
        contact_set.remove(&self.me);
        let contacts: Vec<ProcId> = contact_set.into_iter().collect();
        self.engine = Engine::with_retry(
            self.config.engine,
            self.me,
            self.config.token_idle_pass,
            self.config.request_retry,
        );
        self.links = LinkManager::new(self.config.rto);
        self.detector = FailureDetector::new(self.config.fail_after);
        self.flush = Flush::None;
        self.max_epoch_seen = None;
        self.pending_joiners.clear();
        self.join_incarnations.clear();
        self.peer_delivered.clear();
        self.former_members.clear();
        self.behind_since = None;
        self.incarnation += 1;
        self.view = View::new(ViewId::NONE, Vec::new());
        self.role = Role::Joining { contacts, last_req: None, answered: None };
        out.events.push(GcsEvent::Ejected);
        self.send_join_req(now, out);
    }
}
