//! In-memory network pump for driving [`GroupMember`]s directly in tests —
//! no simulation kernel, zero latency, fully deterministic FIFO delivery.
//!
//! The network is a set of per-sender/receiver FIFO channels, which
//! [`Pump::run`] drains in global arrival order. A [`Step`] is one stimulus
//! and [`Pump::apply`] executes it: the group proptests generate
//! `Vec<Step>`, and `jrs-mc` enumerates `Deliver`, `Drop`, `Crash` and
//! `Tick` to explore *all* interleavings. Every upcall and every tick is
//! checked against the group's guarantees ([`Violation`]); `apply` and
//! [`Pump::submit`] return the first violation as a value, so a model
//! checker can minimise the schedule. The tests' [`Pump::broadcast`],
//! [`Pump::crash`], [`Pump::leave`] and [`Pump::tick_for`] name a member by
//! `ProcId` and apply the matching step, panicking with a violation.

use crate::config::GroupConfig;
use crate::group::{GcsEvent, GroupMember, Output};
use crate::msg::Wire;
use crate::view::{View, ViewId};
use jrs_sim::{ProcId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

/// A delivered application message, as recorded by the pump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivered<P> {
    /// Total-order position.
    pub seq: u64,
    /// Originating member.
    pub origin: ProcId,
    /// The view the receiving member had installed when it delivered it.
    pub view: ViewId,
    /// Payload.
    pub payload: P,
}

/// One step of a schedule. A selector (`u8`) names a live member as
/// `ids[sel % ids.len()]`, over the members in id order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Step {
    /// The selected member broadcasts, then the network runs.
    Broadcast(u8),
    /// Tick every member this many times, running the network after each.
    Advance(u8),
    /// Crash the selected member, unless it is the last one.
    Crash(u8),
    /// The selected member leaves (not the last one); the network runs.
    Leave(u8),
    /// A joiner (p101, p102, ...) contacts every live member; the network runs.
    Join,
    /// Tick this many times with the network silent, then deliver the
    /// backlog: peers are suspected and flushes start, then life signs
    /// arrive while they are under way.
    Stall(u8),
    /// Deliver the head frame of one channel.
    Deliver {
        /// Sending member.
        from: ProcId,
        /// Receiving member.
        to: ProcId,
    },
    /// Lose the head frame of one channel.
    Drop {
        /// Sending member.
        from: ProcId,
        /// Receiving member.
        to: ProcId,
    },
    /// Tick every member once, delivering nothing.
    Tick,
}

/// A broken group guarantee: the member that saw it break, and the
/// sequence number or view at stake.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two deliveries of one sequence number differ in origin or payload.
    TotalOrderDisagreement(ProcId, u64),
    /// One message was delivered in two different installed views.
    SameViewViolation(ProcId, u64),
    /// A member delivered a sequence number not above its previous one.
    SeqNotIncreasing(ProcId, u64),
    /// A member was handed a view that does not include itself.
    SelfExclusion(ProcId, ViewId),
    /// One `ViewId` was installed with two memberships.
    ViewIdAliased(ProcId, ViewId),
    /// A member ejected itself, then installed a view that does not list
    /// it in `joined`: its application would never await state transfer.
    EjectedNotJoined(ProcId, ViewId),
    /// A tick the member reported idle emitted a frame or an upcall or
    /// changed its fingerprint: skipping it would change the run.
    IdleTickDidWork(ProcId),
}

/// What the guarantees are checked against; never hashed (checked eagerly).
#[derive(Clone, Debug, Default)]
struct Checks {
    /// Each member's installed view at this instant (stamps deliveries).
    views: BTreeMap<ProcId, ViewId>,
    /// Each sequence number's first delivery: origin, payload hash, view.
    canon: BTreeMap<u64, (ProcId, u64, ViewId)>,
    /// Each member's last delivered sequence number since it ejected.
    last_seq: BTreeMap<ProcId, u64>,
    /// Each installed view's membership, as first installed.
    memberships: BTreeMap<ViewId, Vec<ProcId>>,
    /// Members that ejected and have not installed a view since.
    ejected: BTreeSet<ProcId>,
    /// The first violation, until it is reported.
    found: Option<Violation>,
}

impl Checks {
    /// One origin and one payload per sequence number, delivered in one
    /// view; each member's sequence numbers increase.
    fn delivery(
        &mut self,
        who: ProcId,
        seq: u64,
        seen: (ProcId, u64, ViewId),
    ) -> Option<Violation> {
        let first = *self.canon.entry(seq).or_insert(seen);
        let last = self.last_seq.insert(who, seq).unwrap_or(0);
        if (first.0, first.1) != (seen.0, seen.1) {
            Some(Violation::TotalOrderDisagreement(who, seq))
        } else if first.2 != seen.2 {
            Some(Violation::SameViewViolation(who, seq))
        } else {
            (seq <= last).then_some(Violation::SeqNotIncreasing(who, seq))
        }
    }

    /// A member is in every view it installs, one `ViewId` names one
    /// membership, and a member that ejected is listed in `joined`.
    fn install(&mut self, member: ProcId, view: &View, joined: &[ProcId]) -> Option<Violation> {
        self.views.insert(member, view.id);
        let first = self
            .memberships
            .entry(view.id)
            .or_insert_with(|| view.members.clone());
        let rejoined = self.ejected.remove(&member);
        if !view.contains(member) {
            Some(Violation::SelfExclusion(member, view.id))
        } else if *first != view.members {
            Some(Violation::ViewIdAliased(member, view.id))
        } else {
            (rejoined && !joined.contains(&member))
                .then_some(Violation::EjectedNotJoined(member, view.id))
        }
    }

    fn flag(&mut self, found: Option<Violation>) {
        self.found = self.found.take().or(found);
    }
}

type Channel<P> = VecDeque<(u64, Wire<P>)>;

/// A little in-memory cluster of group members with a FIFO-channel network.
#[derive(Clone, Debug)]
pub struct Pump<P> {
    /// The members, by id. Crashed members are removed.
    pub members: BTreeMap<ProcId, GroupMember<P>>,
    /// The group's configuration: joiners get it, ticks take `tick_every`.
    config: GroupConfig,
    /// The one buffer every member call writes into, drained after each.
    pub(crate) out: Output<P>,
    /// Per `(from, to)` FIFO channels, each frame stamped with a global
    /// arrival number so [`Pump::run`] can reproduce one shared FIFO queue.
    pub(crate) channels: BTreeMap<(ProcId, ProcId), Channel<P>>,
    /// Next global arrival stamp: the number of frames sent so far.
    pub(crate) arrivals: u64,
    /// Joiners started by [`Step::Join`] so far.
    joins: u32,
    /// Everything each member delivered, in order.
    pub delivered: BTreeMap<ProcId, Vec<Delivered<P>>>,
    /// Ejection notifications per member.
    pub ejections: BTreeMap<ProcId, u32>,
    /// Directed pairs currently cut (simulates partitions/cable pulls).
    pub cut: BTreeSet<(ProcId, ProcId)>,
    /// Current virtual time.
    pub now: SimTime,
    /// Ticks reported idle, each checked to do nothing.
    pub idle_ticks: u64,
    /// Undrained upcalls, in global emission order ([`Pump::take_events`]).
    event_log: Vec<(ProcId, GcsEvent<P>)>,
    checks: Checks,
}

impl<P: Clone + Hash + 'static> Pump<P> {
    /// Build a group of members `ProcId(0)..ProcId(n-1)`, started and quiet.
    pub fn group(n: u32, config: GroupConfig) -> Self {
        let ids: Vec<ProcId> = (0..n).map(ProcId).collect();
        let mut pump = Pump {
            members: BTreeMap::new(),
            config,
            out: Output::default(),
            channels: BTreeMap::new(),
            arrivals: 0,
            joins: 0,
            delivered: BTreeMap::new(),
            ejections: BTreeMap::new(),
            cut: BTreeSet::new(),
            now: SimTime::ZERO,
            idle_ticks: 0,
            event_log: Vec::new(),
            checks: Checks::default(),
        };
        for &id in &ids {
            pump.start(id, ids.clone());
        }
        pump.run();
        pump
    }

    /// Add a fresh joiner, configured as the group, and pump until quiet.
    pub fn add_joiner(&mut self, id: ProcId, contacts: Vec<ProcId>) {
        self.start(id, contacts);
        self.run();
    }

    /// The live member a selector names.
    #[must_use]
    pub fn pick(&self, sel: u8) -> ProcId {
        let i = usize::from(sel) % self.members.len();
        *self.members.keys().nth(i).expect("a live member")
    }

    /// The selector that names `who`, if it is a live member.
    #[must_use]
    pub fn selector(&self, who: ProcId) -> Option<u8> {
        let i = self.members.keys().position(|&id| id == who)?;
        u8::try_from(i).ok()
    }

    /// Execute one step (a `Broadcast` sends `payload()`): `Ok(false)` if it
    /// is not enabled (a crash or leave of the last member, a frame from an
    /// empty or cut channel), `Err` with the first guarantee it broke.
    pub fn apply(&mut self, step: Step, payload: impl FnOnce() -> P) -> Result<bool, Violation> {
        let enabled = match step {
            Step::Crash(_) | Step::Leave(_) => self.members.len() > 1,
            Step::Deliver { from, to } | Step::Drop { from, to } => self.ready((from, to)),
            Step::Broadcast(_) | Step::Advance(_) | Step::Join | Step::Stall(_) | Step::Tick => {
                true
            }
        };
        if !enabled {
            return Ok(false);
        }
        match step {
            Step::Broadcast(sel) => self.broadcast_from(self.pick(sel), payload()),
            Step::Advance(k) => (0..k).for_each(|_| {
                self.tick_all();
                self.quiesce();
            }),
            Step::Crash(sel) => self.remove(self.pick(sel)),
            Step::Leave(sel) => self.leave_quietly(self.pick(sel)),
            Step::Join => {
                self.joins += 1;
                let contacts = self.members.keys().copied().collect();
                self.start(ProcId(100 + self.joins), contacts);
            }
            Step::Stall(k) => (0..k).for_each(|_| self.tick_all()),
            Step::Deliver { from, to } => self.deliver(from, to),
            Step::Drop { from, to } => drop(self.pop(from, to)),
            Step::Tick => self.tick_all(),
        }
        if matches!(step, Step::Broadcast(_) | Step::Join | Step::Stall(_)) {
            self.quiesce();
        }
        self.checks.found.take().map_or(Ok(true), Err)
    }

    /// Submit from `who` without pumping; `Err` with a broken guarantee.
    pub fn submit(&mut self, who: ProcId, payload: P) -> Result<(), Violation> {
        self.broadcast_from(who, payload);
        self.checks.found.take().map_or(Ok(()), Err)
    }

    /// Open non-empty channels, in `(from, to)` order: what may arrive next.
    #[must_use]
    pub fn pending(&self) -> Vec<(ProcId, ProcId)> {
        let open = self
            .channels
            .iter()
            .filter(|&(&pair, q)| !q.is_empty() && self.open(pair));
        open.map(|(&pair, _)| pair).collect()
    }

    /// The frame [`Pump::run`] delivers next: an open channel's oldest head.
    pub(crate) fn next_frame(&self) -> Option<(ProcId, ProcId, &Wire<P>)> {
        let open = self.channels.iter().filter(|&(&pair, _)| self.open(pair));
        let heads =
            open.filter_map(|(&(from, to), q)| q.front().map(|(stamp, w)| (*stamp, from, to, w)));
        heads
            .min_by_key(|&(stamp, ..)| stamp)
            .map(|(_, from, to, w)| (from, to, w))
    }

    /// Not cut, and towards a live member.
    fn open(&self, (from, to): (ProcId, ProcId)) -> bool {
        !self.cut.contains(&(from, to)) && self.members.contains_key(&to)
    }

    /// An open channel with a frame waiting.
    fn ready(&self, pair: (ProcId, ProcId)) -> bool {
        self.open(pair) && self.channels.get(&pair).is_some_and(|q| !q.is_empty())
    }

    /// Drain undrained application upcalls, in global emission order.
    #[must_use]
    pub fn take_events(&mut self) -> Vec<(ProcId, GcsEvent<P>)> {
        std::mem::take(&mut self.event_log)
    }

    /// Deliver all in-flight frames (and whatever they trigger) in global
    /// arrival order until the network is quiet. Time does not advance.
    pub fn run(&mut self) {
        self.quiesce();
        self.clean();
    }

    /// [`Step::Advance`] for `total` (at least one tick), in steps of at
    /// most 255 ticks.
    pub fn tick_for(&mut self, total: SimDuration) {
        let tick = self.config.tick_every.as_nanos().max(1);
        let mut ticks = (total.as_nanos() / tick).max(1);
        while ticks > 0 {
            let k = u8::try_from(ticks).unwrap_or(u8::MAX);
            self.must(Step::Advance(k), None);
            ticks -= u64::from(k);
        }
    }

    /// [`Step::Broadcast`] from `who`. Followers of the sequencer deliver
    /// once the next tick announces stability.
    pub fn broadcast(&mut self, who: ProcId, payload: P) {
        self.must(Step::Broadcast(self.sel(who)), Some(payload));
    }

    /// [`Step::Crash`] of `who`.
    pub fn crash(&mut self, who: ProcId) {
        self.must(Step::Crash(self.sel(who)), None);
    }

    /// [`Step::Leave`] of `who`.
    pub fn leave(&mut self, who: ProcId) {
        self.must(Step::Leave(self.sel(who)), None);
    }

    fn sel(&self, who: ProcId) -> u8 {
        self.selector(who).expect("a live member")
    }

    /// Apply `step`, which must be enabled, and panic with the first
    /// guarantee it broke.
    fn must(&mut self, step: Step, payload: Option<P>) {
        let applied = self.apply(step, || payload.expect("a broadcast's payload"));
        assert!(applied == Ok(true), "{step:?}: {applied:?}");
    }

    /// Cut both directions between two members.
    pub fn partition(&mut self, a: ProcId, b: ProcId) {
        self.cut.insert((a, b));
        self.cut.insert((b, a));
    }

    /// Restore all connectivity.
    pub fn heal(&mut self) {
        self.cut.clear();
    }

    /// Panic with the first violation, if any.
    fn clean(&mut self) {
        let found = self.checks.found.take();
        assert!(found.is_none(), "group guarantee broken: {found:?}");
    }

    fn start(&mut self, id: ProcId, initial: Vec<ProcId>) {
        let mut m = GroupMember::new(id, self.config.clone(), initial);
        m.start_into(self.now, &mut self.out);
        self.checks.views.insert(id, m.view().id);
        self.members.insert(id, m);
        self.absorb(id);
    }

    fn broadcast_from(&mut self, who: ProcId, payload: P) {
        let m = self.members.get_mut(&who).expect("live member");
        m.broadcast_into(self.now, payload, &mut self.out);
        self.absorb(who);
    }

    /// Remove a crashed member: its in-flight frames still deliver, but
    /// frames addressed *to* it are void.
    fn remove(&mut self, who: ProcId) {
        self.members.remove(&who);
        self.channels.retain(|(_, to), _| *to != who);
    }

    fn leave_quietly(&mut self, who: ProcId) {
        if let Some(m) = self.members.get_mut(&who) {
            m.leave_into(self.now, &mut self.out);
            self.absorb(who);
        }
        self.remove(who);
        self.quiesce();
    }

    /// Pop the head frame of an open channel.
    fn pop(&mut self, from: ProcId, to: ProcId) -> Wire<P> {
        let q = self.channels.get_mut(&(from, to));
        q.and_then(VecDeque::pop_front).expect("a frame waits").1
    }

    /// Pop the head frame of an open channel and deliver it.
    fn deliver(&mut self, from: ProcId, to: ProcId) {
        let frame = self.pop(from, to);
        let m = self.members.get_mut(&to).expect("live member");
        m.receive_into(self.now, from, &mut Some(frame), &mut self.out);
        self.absorb(to);
    }

    /// Advance time by `tick_every` and tick every member once, without
    /// pumping the network. A tick the member reports idle must emit nothing and keep
    /// its `state_hash`: what skipping it would have left (ticks are
    /// deterministic, so the tick itself is the probe).
    fn tick_all(&mut self) {
        self.now += self.config.tick_every;
        let now = self.now;
        let mut next = self.members.keys().next().copied();
        while let Some(id) = next {
            next = self.members.range(id..).nth(1).map(|(&id, _)| id);
            let m = self.members.get_mut(&id).expect("live member");
            let idle = m.tick_is_idle(now).then(|| m.state_hash());
            m.tick_into(now, &mut self.out);
            let did_work = idle.is_some_and(|was| !self.out.is_drained() || m.state_hash() != was);
            self.idle_ticks += u64::from(idle.is_some());
            self.checks
                .flag(did_work.then_some(Violation::IdleTickDidWork(id)));
            self.absorb(id);
        }
    }

    /// Deliver in global arrival order until no open channel holds a
    /// frame; what waits on a cut pair or for a crashed member is lost.
    fn quiesce(&mut self) {
        // Guard against protocol ping-pong loops in broken code.
        let mut budget = 1_000_000u64;
        while let Some((from, to, _)) = self.next_frame() {
            self.deliver(from, to);
            budget -= 1;
            assert!(budget > 0, "network did not quiesce");
        }
        self.channels.clear();
    }

    /// Queue one frame on its channel, stamped with its arrival number.
    pub(crate) fn send(&mut self, from: ProcId, to: ProcId, frame: Wire<P>) {
        self.channels
            .entry((from, to))
            .or_default()
            .push_back((self.arrivals, frame));
        self.arrivals += 1;
    }

    /// Drain the buffer after a call of `who`: frames onto their channels,
    /// each upcall recorded, checked and logged.
    fn absorb(&mut self, who: ProcId) {
        let mut out = std::mem::take(&mut self.out);
        for (to, frame, _bytes) in out.wire.drain(..) {
            self.send(who, to, frame);
        }
        for ev in out.events.drain(..) {
            self.observe(who, &ev);
            self.event_log.push((who, ev));
        }
        self.out = out;
    }

    /// Record one upcall of `who` and check it.
    fn observe(&mut self, who: ProcId, ev: &GcsEvent<P>) {
        let checks = &mut self.checks;
        let found = match ev {
            GcsEvent::Deliver {
                seq,
                origin,
                payload,
            } => {
                let view = checks.views.get(&who).copied().unwrap_or(ViewId::NONE);
                let fp = jrs_sim::fingerprint(payload);
                let (seq, origin, payload) = (*seq, *origin, payload.clone());
                let record = Delivered {
                    seq,
                    origin,
                    view,
                    payload,
                };
                self.delivered.entry(who).or_default().push(record);
                checks.delivery(who, seq, (origin, fp, view))
            }
            GcsEvent::ViewChange { view, joined, .. } => checks.install(who, view, joined),
            GcsEvent::Ejected => {
                *self.ejections.entry(who).or_default() += 1;
                checks.views.insert(who, ViewId::NONE);
                checks.ejected.insert(who);
                checks.last_seq.remove(&who);
                None
            }
        };
        checks.flag(found);
    }

    /// Payload sequences delivered by each live member (for agreement
    /// assertions).
    #[must_use]
    pub fn delivered_payloads(&self, who: ProcId) -> Vec<P> {
        let delivered = self.delivered.get(&who).into_iter().flatten();
        delivered.map(|d| d.payload.clone()).collect()
    }

    /// Assert every live member delivered exactly the same sequence.
    /// Returns that common sequence.
    pub fn assert_agreement(&self) -> Vec<(u64, ProcId)>
    where
        P: std::fmt::Debug + PartialEq,
    {
        // Crashed members may legitimately lag.
        let mut live = self
            .delivered
            .iter()
            .filter(|(id, _)| self.members.contains_key(id));
        let Some((rid, reference)) = live.next() else {
            return Vec::new();
        };
        for (id, dl) in live {
            assert_eq!(
                reference, dl,
                "member {id} disagrees with member {rid} on the delivery sequence"
            );
        }
        reference.iter().map(|d| (d.seq, d.origin)).collect()
    }

    /// The current installed view members of a live member.
    #[must_use]
    pub fn view_of(&self, who: ProcId) -> Vec<ProcId> {
        self.members[&who].view().members.clone()
    }

    /// Deterministic fingerprint of the whole cluster: virtual time, cut
    /// set, joiners started, in-flight frames per channel (not their
    /// arrival stamps) and every member's protocol state, for the model
    /// checker's visited set. Histories and the checks' bookkeeping are out.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        // Named field by field, no `..`: see `GroupMember::state_hash`.
        let Pump {
            members,
            config: _,
            out: _,
            channels,
            arrivals: _,
            joins,
            delivered: _,
            ejections: _,
            cut,
            now,
            idle_ticks: _,
            event_log: _,
            checks: _,
        } = self;
        let mut h = jrs_sim::Fnv64::new();
        now.hash(&mut h);
        cut.hash(&mut h);
        joins.hash(&mut h);
        for ((from, to), q) in channels {
            if q.is_empty() {
                continue;
            }
            (from, to).hash(&mut h);
            for (_, frame) in q {
                frame.hash(&mut h);
            }
        }
        for (id, m) in members {
            id.hash(&mut h);
            m.state_hash().hash(&mut h);
        }
        h.finish()
    }
}
