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
}

impl<P> Default for Output<P> {
    fn default() -> Self {
        Output {
            wire: Vec::new(),
            events: Vec::new(),
            engine: EngineOut::default(),
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
    Blocked {
        epoch: Epoch,
        since: SimTime,
    },
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
                let leader = self.view.leader() == Some(self.me);
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
        let payload_bytes = self.config.payload_bytes;
        self.links.tick_into(now, |to, frame| {
            let bytes = frame.wire_size(payload_bytes);
            out.wire.push((to, frame, bytes));
        });
        match &self.role {
            Role::Joining { last_req, .. } => {
                let due = last_req.is_none_or(|t| now.since(t) >= self.config.flush_timeout);
                if due {
                    self.send_join_req(now, out);
                }
            }
            Role::Member => {
                self.member_tick(now, out);
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
        debug_assert!(out.wire.is_empty() && out.events.is_empty());
        self.detector.heard(from, now);
        let inbound = self.links.on_wire(now, from, frame);
        if let Some(reply) = inbound.reply {
            let bytes = reply.wire_size(self.config.payload_bytes);
            out.wire.push((from, reply, bytes));
        }
        for msg in inbound.first.into_iter().chain(inbound.rest) {
            self.handle_msg(now, from, msg, out);
        }
    }

    // ------------------------------------------------------------------
    // Internals: send helpers
    // ------------------------------------------------------------------

    fn push_raw(&self, to: ProcId, msg: GcsMsg<P>, out: &mut Output<P>) {
        let frame = Wire::Raw(msg);
        let bytes = frame.wire_size(self.config.payload_bytes);
        out.wire.push((to, frame, bytes));
    }

    fn push_link(&mut self, now: SimTime, to: ProcId, msg: GcsMsg<P>, out: &mut Output<P>) {
        let frame = self.links.send(now, to, msg);
        let bytes = frame.wire_size(self.config.payload_bytes);
        out.wire.push((to, frame, bytes));
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

    fn send_heartbeats(&mut self, now: SimTime, out: &mut Output<P>) {
        self.last_hb = Some(now);
        let hb = GcsMsg::Heartbeat {
            view_id: self.view.id,
            view_size: size32(self.view.len()),
            delivered_up_to: self.engine.delivered_up_to(),
        };
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

    fn member_tick(&mut self, now: SimTime, out: &mut Output<P>) {
        // Heartbeats.
        let hb_due = self
            .last_hb
            .is_none_or(|t| now.since(t) >= self.config.heartbeat_every);
        if hb_due {
            self.send_heartbeats(now, out);
        }
        // Occasional probes to former members: the other side of a healed
        // partition would otherwise never hear from us again (both sides
        // only heartbeat their own view) and split components could not
        // re-merge.
        let probe_due = self
            .last_probe
            .is_none_or(|t| now.since(t) >= self.config.fail_after);
        if probe_due && !self.former_members.is_empty() {
            self.last_probe = Some(now);
            let hb = GcsMsg::Heartbeat {
                view_id: self.view.id,
                view_size: size32(self.view.len()),
                delivered_up_to: self.engine.delivered_up_to(),
            };
            for &p in &self.former_members {
                self.push_raw(p, hb.clone(), out);
            }
        }
        // Engine maintenance (token circulation).
        self.engine.tick_into(now, &mut out.engine);
        self.absorb_engine(now, out);
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
            Flush::Coordinating {
                epoch,
                started,
                finalized,
                proposed,
                ..
            } if now.since(*started) >= self.config.flush_timeout => {
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
        let mut digests = BTreeMap::new();
        digests.insert(self.me, self.engine.digest(coord_known));
        let joiners: BTreeSet<ProcId> = self.pending_joiners.keys().copied().collect();
        self.flush = Flush::Coordinating {
            epoch,
            proposed: proposal.clone(),
            joiners,
            digests,
            finalized: None,
            acks: BTreeSet::new(),
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
            GcsMsg::Leave => {
                self.detector.watch(from, SimTime::ZERO);
                self.detector.condemn(from);
            }
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
                let digest = FlushDigest {
                    max_contig: 0,
                    extra: Vec::new(),
                    dedup: Vec::new(),
                };
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
        let Flush::Coordinating {
            epoch: my_epoch,
            proposed,
            digests,
            finalized,
            ..
        } = &mut self.flush
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
        let Flush::Coordinating {
            epoch,
            proposed,
            joiners,
            digests,
            finalized,
            ..
        } = &mut self.flush
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
                if epoch.view_id != self.view.id || self.max_epoch_seen != Some(epoch) {
                    return;
                }
                self.install_view(now, view, joined, &msgs, next_seq, &dedup, out);
                self.push_link(now, from, GcsMsg::InstallAck { epoch }, out);
            }
        }
    }

    fn on_install_ack(&mut self, now: SimTime, from: ProcId, epoch: Epoch, out: &mut Output<P>) {
        let Flush::Coordinating {
            epoch: my_epoch,
            finalized,
            acks,
            ..
        } = &mut self.flush
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
        let Flush::Coordinating {
            proposed,
            finalized,
            acks,
            ..
        } = &self.flush
        else {
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
        // 3. Restart the engine in the new view (resubmits own pendings).
        let leader = view.leader() == Some(self.me);
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
        self.role = Role::Joining {
            contacts,
            last_req: None,
            answered: None,
        };
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
    struct Net {
        config: GroupConfig,
        members: BTreeMap<ProcId, GroupMember<u32>>,
        queue: VecDeque<(ProcId, ProcId, Wire<u32>)>,
        now: SimTime,
        reused: Option<Output<u32>>,
        transcript: Vec<String>,
    }

    impl Net {
        fn group(n: u32, kind: EngineKind, reuse: bool) -> Net {
            let mut net = Net {
                config: GroupConfig::with_engine(kind),
                members: BTreeMap::new(),
                queue: VecDeque::new(),
                now: SimTime::ZERO,
                reused: reuse.then(Output::default),
                transcript: Vec::new(),
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
            }
        }

        fn run(&mut self) {
            while let Some((from, to, frame)) = self.queue.pop_front() {
                self.call(to, Call::Wire(from, frame));
            }
        }

        fn tick(&mut self, d: SimDuration) {
            self.now += d;
            for id in self.ids() {
                self.call(id, Call::Tick);
            }
            self.run();
        }

        fn ids(&self) -> Vec<ProcId> {
            self.members.keys().copied().collect()
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

    /// Run one schedule; returns the transcript and every survivor's
    /// protocol-state fingerprint.
    fn run_schedule(
        kind: EngineKind,
        n: u32,
        steps: &[Step],
        reuse: bool,
    ) -> (Vec<String>, Vec<u64>) {
        let tick = SimDuration::from_millis(5);
        let mut net = Net::group(n, kind, reuse);
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
            }
        }
        (0..200).for_each(|_| net.tick(tick));
        (
            net.transcript,
            net.members.values().map(GroupMember::state_hash).collect(),
        )
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
                let (fresh, fresh_states) = run_schedule(kind, n, &steps, false);
                let (reused, reused_states) = run_schedule(kind, n, &steps, true);
                prop_assert!(fresh.len() > n as usize, "the schedule produced traffic");
                for (i, (f, r)) in fresh.iter().zip(&reused).enumerate() {
                    prop_assert_eq!(f, r, "{:?}: transcripts part at line {}", kind, i);
                }
                prop_assert_eq!(fresh.len(), reused.len());
                prop_assert_eq!(fresh_states, reused_states);
            }
        }
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
