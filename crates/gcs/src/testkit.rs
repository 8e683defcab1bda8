//! In-memory network pump for driving [`GroupMember`]s directly in tests —
//! no simulation kernel, zero latency, fully deterministic FIFO delivery.
//!
//! This is the unit-test complement to the full `jrs-sim` integration (used
//! by downstream crates): protocol logic can be exercised step by step,
//! with surgical crash/partition control between steps.
//!
//! The network is a set of per-sender/receiver FIFO channels.
//! [`Pump::run`] drains them in global arrival order (equivalent to one
//! shared FIFO queue). Any other interleaving is driven from outside with
//! the stepping primitives [`Pump::pending`], [`Pump::deliver_from`],
//! [`Pump::drop_head`], [`Pump::tick_members`] and [`Pump::submit`]: that
//! is how the `jrs-mc` bounded model checker explores *all* of them.

use crate::config::GroupConfig;
use crate::group::{GcsEvent, GroupMember, Output};
use crate::msg::Wire;
use crate::view::ViewId;
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
    /// The view the receiving member had installed when it delivered this
    /// message (same-view / virtual synchrony assertions).
    pub view: ViewId,
    /// Payload.
    pub payload: P,
}

/// One FIFO channel: frames stamped with a global arrival number so
/// [`Pump::run`] can reproduce one shared FIFO queue.
type Channel<P> = VecDeque<(u64, Wire<P>)>;

/// A little in-memory cluster of group members with a FIFO-channel network.
#[derive(Clone, Debug)]
pub struct Pump<P> {
    /// The members, by id. Crashed members are removed.
    pub members: BTreeMap<ProcId, GroupMember<P>>,
    /// Per `(from, to)` FIFO channels.
    channels: BTreeMap<(ProcId, ProcId), Channel<P>>,
    /// Next global arrival stamp.
    arrivals: u64,
    /// Everything each member delivered, in order.
    pub delivered: BTreeMap<ProcId, Vec<Delivered<P>>>,
    /// Views each member installed, in order (member lists).
    pub views: BTreeMap<ProcId, Vec<Vec<ProcId>>>,
    /// Ejection notifications per member.
    pub ejections: BTreeMap<ProcId, u32>,
    /// Directed pairs currently cut (simulates partitions/cable pulls).
    pub cut: BTreeSet<(ProcId, ProcId)>,
    /// Current virtual time.
    pub now: SimTime,
    /// Each member's installed view at this instant (stamps deliveries).
    cur_view: BTreeMap<ProcId, ViewId>,
    /// Undrained application upcalls, in global emission order. The model
    /// checker's application layer consumes these via
    /// [`Pump::take_events`]; plain tests can ignore them.
    event_log: Vec<(ProcId, GcsEvent<P>)>,
}

impl<P: Clone + 'static> Pump<P> {
    /// Build a group of `n` members with ids `ProcId(0)..ProcId(n-1)`,
    /// started and pumped until quiet.
    pub fn group(n: u32, config: GroupConfig) -> Self {
        let ids: Vec<ProcId> = (0..n).map(ProcId).collect();
        let mut pump = Pump {
            members: BTreeMap::new(),
            channels: BTreeMap::new(),
            arrivals: 0,
            delivered: BTreeMap::new(),
            views: BTreeMap::new(),
            ejections: BTreeMap::new(),
            cut: BTreeSet::new(),
            now: SimTime::ZERO,
            cur_view: BTreeMap::new(),
            event_log: Vec::new(),
        };
        for &id in &ids {
            let mut m = GroupMember::new(id, config.clone(), ids.clone());
            let out = m.start(pump.now);
            pump.cur_view.insert(id, m.view().id);
            pump.members.insert(id, m);
            pump.absorb(id, out);
        }
        pump.run();
        pump
    }

    /// Add a fresh joiner whose contact list is the given set.
    pub fn add_joiner(&mut self, id: ProcId, contacts: Vec<ProcId>, config: GroupConfig) {
        let mut m = GroupMember::new(id, config, contacts);
        let out = m.start(self.now);
        self.cur_view.insert(id, m.view().id);
        self.members.insert(id, m);
        self.absorb(id, out);
        self.run();
    }

    fn absorb(&mut self, who: ProcId, out: Output<P>) {
        for (to, frame, _bytes) in out.wire {
            let stamp = self.arrivals;
            self.arrivals += 1;
            self.channels
                .entry((who, to))
                .or_default()
                .push_back((stamp, frame));
        }
        for ev in out.events {
            match &ev {
                GcsEvent::Deliver {
                    seq,
                    origin,
                    payload,
                } => {
                    let view = self.cur_view.get(&who).copied().unwrap_or(ViewId::NONE);
                    self.delivered.entry(who).or_default().push(Delivered {
                        seq: *seq,
                        origin: *origin,
                        view,
                        payload: payload.clone(),
                    });
                }
                GcsEvent::ViewChange { view, .. } => {
                    self.cur_view.insert(who, view.id);
                    self.views
                        .entry(who)
                        .or_default()
                        .push(view.members.clone());
                }
                GcsEvent::Ejected => {
                    self.cur_view.insert(who, ViewId::NONE);
                    *self.ejections.entry(who).or_default() += 1;
                }
            }
            self.event_log.push((who, ev));
        }
    }

    // ------------------------------------------------------------------
    // Stepping primitives (the model-checker seam)
    // ------------------------------------------------------------------

    /// Non-empty, non-cut channels towards live members, in `(from, to)`
    /// key order. These are the frames that may be delivered next.
    #[must_use]
    pub fn pending(&self) -> Vec<(ProcId, ProcId)> {
        self.channels
            .iter()
            .filter(|((from, to), q)| {
                !q.is_empty() && !self.cut.contains(&(*from, *to)) && self.members.contains_key(to)
            })
            .map(|(&k, _)| k)
            .collect()
    }

    /// Arrival stamp of a channel's head frame (global FIFO tiebreak).
    fn head_arrival(&self, from: ProcId, to: ProcId) -> u64 {
        self.channels
            .get(&(from, to))
            .and_then(|q| q.front())
            .map_or(u64::MAX, |&(stamp, _)| stamp)
    }

    /// Pop the head frame of one channel and deliver it (discarded if the
    /// pair is cut or the target crashed). Returns whether a member
    /// processed it.
    pub fn deliver_from(&mut self, from: ProcId, to: ProcId) -> bool {
        let Some((_, frame)) = self
            .channels
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
        else {
            return false;
        };
        if self.cut.contains(&(from, to)) {
            return false;
        }
        let Some(m) = self.members.get_mut(&to) else {
            return false; // crashed
        };
        let out = m.on_wire(self.now, from, frame);
        self.absorb(to, out);
        true
    }

    /// Drop the head frame of one channel on the floor (models message
    /// loss). Returns whether a frame was dropped.
    pub fn drop_head(&mut self, from: ProcId, to: ProcId) -> bool {
        self.channels
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
            .is_some()
    }

    /// Drain undrained application upcalls, in global emission order.
    #[must_use]
    pub fn take_events(&mut self) -> Vec<(ProcId, GcsEvent<P>)> {
        std::mem::take(&mut self.event_log)
    }

    /// Advance time by `d` and tick every member once, *without* pumping
    /// the network (the model checker interleaves deliveries explicitly).
    pub fn tick_members(&mut self, d: SimDuration) {
        self.now += d;
        let ids: Vec<ProcId> = self.members.keys().copied().collect();
        for id in ids {
            let out = self.members.get_mut(&id).unwrap().tick(self.now);
            self.absorb(id, out);
        }
    }

    /// Submit a payload from `who` without pumping the network.
    pub fn submit(&mut self, who: ProcId, payload: P) {
        let out = self
            .members
            .get_mut(&who)
            .expect("submitting member exists")
            .broadcast(self.now, payload);
        self.absorb(who, out);
    }

    /// Deliver all in-flight frames (and whatever they trigger) in global
    /// arrival order until the network is quiet. Time does not advance.
    pub fn run(&mut self) {
        // Guard against protocol ping-pong loops in broken code.
        let mut budget = 1_000_000u64;
        loop {
            let head = |&(from, to): &(ProcId, ProcId)| self.head_arrival(from, to);
            let Some((from, to)) = self.pending().into_iter().min_by_key(head) else {
                // Channels to cut pairs / crashed members drain silently.
                self.discard_dead_frames();
                if self.pending().is_empty() {
                    return;
                }
                continue;
            };
            self.deliver_from(from, to);
            budget -= 1;
            assert!(budget > 0, "network did not quiesce");
        }
    }

    /// Discard frames queued towards crashed members or over cut pairs.
    fn discard_dead_frames(&mut self) {
        let cut = &self.cut;
        let members = &self.members;
        self.channels.retain(|(from, to), q| {
            if cut.contains(&(*from, *to)) || !members.contains_key(to) {
                q.clear();
            }
            !q.is_empty()
        });
    }

    // ------------------------------------------------------------------
    // Convenience drivers (FIFO order, as classic tests expect)
    // ------------------------------------------------------------------

    /// Advance time by `d` and tick every member once, then pump.
    pub fn tick(&mut self, d: SimDuration) {
        self.tick_members(d);
        self.run();
    }

    /// Tick repeatedly with the members' tick interval for `total` time.
    pub fn tick_for(&mut self, step: SimDuration, total: SimDuration) {
        let steps = (total.as_nanos() / step.as_nanos().max(1)).max(1);
        for _ in 0..steps {
            self.tick(step);
        }
    }

    /// Broadcast a payload from `who`, pump, and flush the tick-batched
    /// stability announcements so followers deliver too.
    pub fn broadcast(&mut self, who: ProcId, payload: P) {
        self.submit(who, payload);
        self.run();
        // Two zero-advance tick rounds: collector announces stability,
        // followers deliver.
        self.tick(SimDuration::ZERO);
        self.tick(SimDuration::ZERO);
    }

    /// Crash a member (removed; its in-flight messages still deliver, but
    /// frames addressed *to* it are void).
    pub fn crash(&mut self, who: ProcId) {
        self.members.remove(&who);
        self.channels.retain(|(_, to), _| *to != who);
    }

    /// Gracefully leave: announce, then crash.
    pub fn leave(&mut self, who: ProcId) {
        if let Some(m) = self.members.get_mut(&who) {
            let out = m.leave(self.now);
            self.absorb(who, out);
        }
        self.crash(who);
        self.run();
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

    // ------------------------------------------------------------------
    // Observations and assertions
    // ------------------------------------------------------------------

    /// Payload sequences delivered by each live member (for agreement
    /// assertions).
    #[must_use]
    pub fn delivered_payloads(&self, who: ProcId) -> Vec<P> {
        self.delivered
            .get(&who)
            .map(|v| v.iter().map(|d| d.payload.clone()).collect())
            .unwrap_or_default()
    }

    /// Assert every live member delivered exactly the same sequence.
    /// Returns that common sequence.
    pub fn assert_agreement(&self) -> Vec<(u64, ProcId)>
    where
        P: std::fmt::Debug + PartialEq,
    {
        let mut reference: Option<(ProcId, &Vec<Delivered<P>>)> = None;
        for (&id, dl) in &self.delivered {
            if !self.members.contains_key(&id) {
                continue; // crashed members may legitimately lag
            }
            match &reference {
                None => reference = Some((id, dl)),
                Some((rid, rdl)) => {
                    assert_eq!(
                        rdl, &dl,
                        "member {id} disagrees with member {rid} on the delivery sequence"
                    );
                }
            }
        }
        reference
            .map(|(_, dl)| dl.iter().map(|d| (d.seq, d.origin)).collect())
            .unwrap_or_default()
    }

    /// Assert virtual synchrony's same-view property: every message (by
    /// global sequence number) was delivered in the *same* installed view
    /// by every member that delivered it — including members that crashed
    /// later. A violation means a view change cut through a delivery.
    pub fn assert_same_view_delivery(&self) {
        let mut view_of_seq: BTreeMap<u64, (ProcId, ViewId)> = BTreeMap::new();
        for (&id, dl) in &self.delivered {
            for d in dl {
                match view_of_seq.get(&d.seq) {
                    None => {
                        view_of_seq.insert(d.seq, (id, d.view));
                    }
                    Some(&(first, v)) => {
                        assert_eq!(
                            v, d.view,
                            "seq {} delivered in view {v} by member {first} \
                             but in view {} by member {id}",
                            d.seq, d.view
                        );
                    }
                }
            }
        }
    }

    /// The current installed view members of a live member.
    #[must_use]
    pub fn view_of(&self, who: ProcId) -> Vec<ProcId> {
        self.members[&who].view().members.clone()
    }
}

impl<P: Clone + Hash + 'static> Pump<P> {
    /// Deterministic fingerprint of the whole cluster: virtual time, cut
    /// set, in-flight frames per channel (contents and order, but not
    /// absolute arrival stamps) and every member's protocol state. The
    /// model checker uses this for visited-state deduplication; delivery
    /// histories are deliberately excluded (invariants over them are
    /// checked eagerly at every step).
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        // Named field by field, no `..`: see `GroupMember::state_hash`.
        let Pump {
            members,
            channels,
            arrivals: _,
            delivered: _,
            views: _,
            ejections: _,
            cut,
            now,
            cur_view: _,
            event_log: _,
        } = self;
        let mut h = jrs_sim::Fnv64::new();
        now.hash(&mut h);
        cut.hash(&mut h);
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
