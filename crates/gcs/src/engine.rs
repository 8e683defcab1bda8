//! The total-order engine: one delivery/stability core, with the choice of
//! who hands out sequence numbers as a policy — a fixed sequencer
//! (ISIS-style, the default) or a rotating token (Totem-style, kept for
//! the E5 ablation). Both give **safe delivery** (stability).
//!
//! The core has three cursors:
//!
//! * `recv` — highest sequence number received contiguously;
//! * `stable` — highest sequence number known to be held by *every* view
//!   member (cumulative acks);
//! * `delivered` — highest sequence number handed to the application,
//!   always `min(recv, stable)`.
//!
//! Messages are delivered to the application only once **stable**: every
//! member of the view holds them. This is the output-commit property the
//! JOSHUA layer needs — a reply sent to a user after delivery can never
//! refer to a command that a subsequent view change excises, because every
//! survivor holds it. It is also what makes replication latency grow with
//! the head-node count, as the paper's Figure 10 measures: ordering a
//! message costs a multicast plus an ack round over the LAN.
//!
//! The policy (`Assign`) decides two things only: who may give a
//! submission its sequence number (the view leader on request, or whoever
//! holds the token), and with it how acks travel (to the leader, who
//! announces stability on its tick, or all-to-all). The leader is the
//! member the group names at install, the coordinator whose flush
//! installed the view; under the token it seeds the token. Receiving,
//! stability, delivery, duplicate suppression and the flush interface are
//! the same code for both.
//!
//! The engine only runs *inside* an installed view; the view-change flush
//! in [`crate::group`] halts it, collects the digests (based on the
//! *received* prefix, a superset of what anyone delivered), reconciles,
//! and reinstalls it for the next view. While halted, [`Engine::on_msg`]
//! still records what a message says and only skips acting on it.

use crate::config::EngineKind;
use crate::msg::{EngineMsg, FlushDigest, OrderedMsg};
use jrs_sim::{ProcId, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// What an engine wants done after handling a stimulus.
#[derive(Debug)]
pub struct EngineOut<P> {
    /// Reliable sends to perform: `(peer, message)`.
    pub sends: Vec<(ProcId, EngineMsg<P>)>,
    /// Messages now deliverable to the application, in sequence order.
    pub deliver: Vec<OrderedMsg<P>>,
}

impl<P> Default for EngineOut<P> {
    fn default() -> Self {
        EngineOut {
            sends: Vec::new(),
            deliver: Vec::new(),
        }
    }
}

/// How stability information flows in the view: a function of the
/// assignment policy and of whether we lead the view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stability {
    /// We collect everyone's acks and announce stability (sequencer).
    Collector,
    /// We ack to the collector and follow its announcements.
    Follower,
    /// Everyone acks everyone (token).
    AllToAll,
}

/// Who assigns sequence numbers, and the state only that policy needs.
#[derive(Clone, Debug, Hash)]
enum Assign<P> {
    /// The view leader assigns; everyone else sends it requests.
    Sequencer {
        /// Leader: stability advanced since the last announcement.
        stable_dirty: bool,
        /// Per-origin reorder buffer: requests that arrived before an
        /// earlier (lower local id) request from the same origin. Origins
        /// submit with gap-free local ids, so ordering strictly in
        /// local-id order keeps per-origin FIFO even when a request is
        /// lost and retried.
        waiting: BTreeMap<ProcId, BTreeMap<u64, P>>,
        /// When pendings were last (re)requested.
        last_request: SimTime,
        retry_every: SimDuration,
    },
    /// A token carrying the next sequence number circulates in rank
    /// order; the holder assigns to its own pending submissions.
    Token {
        /// `Some(next_seq)` while we hold the token.
        holding: Option<u64>,
        /// Highest token sequence ever observed; stale copies below this
        /// are discarded (defence in depth — the link layer already
        /// deduplicates).
        floor: u64,
        /// When to pass an idle token on.
        release_at: SimTime,
        idle_pass: SimDuration,
    },
}

/// The ordering engine of one group member.
#[derive(Clone, Debug, Hash)]
pub struct Engine<P> {
    me: ProcId,
    assign: Assign<P>,
    /// The installed view's leader (`View::leader`, the coordinator that
    /// installed it); `None` before the first install.
    leader: Option<ProcId>,
    /// Follower: the collector's announced stability floor.
    stable_floor: u64,
    /// Current view members (sorted). Empty until first install.
    members: Vec<ProcId>,
    /// Next sequence number expected in the received-contiguous prefix.
    recv_cursor: u64,
    /// Next sequence number to deliver to the application.
    deliver_cursor: u64,
    /// Cumulative ack per peer: highest seq that peer holds contiguously.
    /// `BTreeMap` (not `HashMap`): snapshots and iteration of replica
    /// state must be deterministic across processes (`clippy::disallowed_types`).
    acks: BTreeMap<ProcId, u64>,
    /// Known ordered messages (delivered and buffered), pruned by
    /// stability. Needed to answer flushes and serve deliveries.
    log: BTreeMap<u64, OrderedMsg<P>>,
    /// Own submissions not yet delivered back: `(local_id, payload)`.
    pending: VecDeque<(u64, P)>,
    next_local_id: u64,
    /// Per-origin highest *delivered* local id (duplicate suppression
    /// floor, merged through flushes). Ordered so flush digests list
    /// origins identically on every replica.
    dedup: BTreeMap<ProcId, u64>,
    /// Per-origin highest *assigned* local id (assigner-side duplicate
    /// suppression between assignment and delivery).
    assign_floor: BTreeMap<ProcId, u64>,
    /// False while a view change is in progress.
    active: bool,
}

/// Raise a per-origin floor to at least `to`.
fn raise(floors: &mut BTreeMap<ProcId, u64>, p: ProcId, to: u64) {
    let floor = floors.entry(p).or_insert(0);
    *floor = (*floor).max(to);
}

impl<P: Clone> Engine<P> {
    /// Create an engine of the given kind for member `me`: `idle_pass` is
    /// how long an idle token rests at a holder, `retry_every` how often
    /// unanswered requests to the sequencer are repeated.
    pub fn with_retry(
        kind: EngineKind,
        me: ProcId,
        idle_pass: SimDuration,
        retry_every: SimDuration,
    ) -> Self {
        let assign = match kind {
            EngineKind::Sequencer => Assign::Sequencer {
                stable_dirty: false,
                waiting: BTreeMap::new(),
                last_request: SimTime::ZERO,
                retry_every,
            },
            EngineKind::Token => Assign::Token {
                holding: None,
                floor: 0,
                release_at: SimTime::ZERO,
                idle_pass,
            },
        };
        Engine {
            me,
            assign,
            leader: None,
            stable_floor: 0,
            members: Vec::new(),
            recv_cursor: 1,
            deliver_cursor: 1,
            acks: BTreeMap::new(),
            log: BTreeMap::new(),
            pending: VecDeque::new(),
            next_local_id: 1,
            dedup: BTreeMap::new(),
            assign_floor: BTreeMap::new(),
            active: false,
        }
    }

    /// Highest sequence number delivered to the application.
    pub fn delivered_up_to(&self) -> u64 {
        self.deliver_cursor - 1
    }

    /// Highest sequence number received contiguously (≥ delivered).
    pub(crate) fn received_up_to(&self) -> u64 {
        self.recv_cursor - 1
    }

    /// Own submissions not yet delivered (survive view changes and are
    /// resubmitted after install).
    #[cfg(test)]
    pub(crate) fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Is the engine accepting traffic (not halted for a flush)?
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Size of the retained ordered-message log (diagnostics / GC tests).
    pub(crate) fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Forget a submitter's dedup/assignment floors. A fresh join episode
    /// rebuilds that member's engine from scratch (local ids restart at
    /// 1), so floors inherited from its previous life would silently
    /// swallow everything the new life submits.
    pub(crate) fn reset_submitter(&mut self, p: ProcId) {
        self.dedup.remove(&p);
        self.assign_floor.remove(&p);
    }

    /// Submit an application payload for total ordering.
    pub fn submit(&mut self, now: SimTime, payload: P) -> EngineOut<P> {
        let mut out = EngineOut::default();
        self.submit_into(now, payload, &mut out);
        out
    }

    /// [`Self::submit`], appending to the caller's buffer.
    pub(crate) fn submit_into(&mut self, _now: SimTime, payload: P, out: &mut EngineOut<P>) {
        let local_id = self.next_local_id;
        self.next_local_id += 1;
        self.pending.push_back((local_id, payload.clone()));
        // Halted: queued; resubmitted after the next install.
        if self.active {
            match self.assign {
                Assign::Sequencer { .. } => self.offer(local_id, payload, out),
                Assign::Token { .. } => self.resubmit(out),
            }
        }
    }

    /// Handle an in-view engine message from `from`: record what it says,
    /// then — unless halted for a (possibly aborted) flush — act on it.
    /// What a halted engine records is superseded by `apply_flush` if the
    /// flush concludes and acted on by `resume` if it aborts. A variant
    /// the configured policy never sends means a misconfigured peer: a
    /// token is dropped by a sequencer group and a request by a token
    /// group, and a token member records an announcement nothing reads.
    pub fn on_msg(&mut self, now: SimTime, from: ProcId, msg: EngineMsg<P>) -> EngineOut<P> {
        let mut out = EngineOut::default();
        self.on_msg_into(now, from, msg, &mut out);
        out
    }

    /// [`Self::on_msg`], appending to the caller's buffer.
    pub(crate) fn on_msg_into(
        &mut self,
        now: SimTime,
        from: ProcId,
        msg: EngineMsg<P>,
        out: &mut EngineOut<P>,
    ) {
        // No catch-all: a new EngineMsg variant must be a compile error
        // here rather than silently swallowed (`clippy::wildcard_enum_match_arm`).
        match msg {
            EngineMsg::Request { local_id, payload } => {
                // A halted sequencer, or a former one reached by a stale
                // request, drops it: the origin retries after the next
                // install.
                if self.active && self.stability() == Stability::Collector {
                    self.order(from, local_id, payload, out);
                }
            }
            EngineMsg::Ordered(m) => self.ingest(m, out),
            EngineMsg::Ack { up_to } => {
                let before = self.stable();
                raise(&mut self.acks, from, up_to);
                if self.active {
                    self.drain_stable(&mut out.deliver);
                    let announce = self.leads() && self.stable() > before;
                    if let Assign::Sequencer { stable_dirty, .. } = &mut self.assign {
                        // Batch the announcement: followers learn on the
                        // next engine tick (they don't sit on the reply
                        // fast path, which runs through the collector
                        // itself). Acks absorbed while halted are
                        // announced by `resume`.
                        *stable_dirty |= announce;
                    }
                }
            }
            EngineMsg::Stable { up_to } => {
                self.stable_floor = self.stable_floor.max(up_to);
                if self.active {
                    self.drain_stable(&mut out.deliver);
                }
            }
            EngineMsg::Token { next_seq } => {
                if let Assign::Token {
                    holding,
                    floor,
                    release_at,
                    idle_pass,
                } = &mut self.assign
                {
                    // Token seq can only move forward; a stale duplicate
                    // is discarded. (Equal is legitimate: an idle token
                    // circulates unchanged.) A halted holder keeps the
                    // token so it is not lost across a transient halt;
                    // ordering waits for resume/install.
                    if next_seq >= *floor && holding.is_none() {
                        *floor = next_seq;
                        *holding = Some(next_seq);
                        if self.active {
                            *release_at = now + *idle_pass;
                            self.resubmit(out);
                        }
                    }
                }
            }
        }
    }

    /// Periodic maintenance: the collector's batched stability
    /// announcement, pending-request retry, token idle passing.
    pub fn tick(&mut self, now: SimTime) -> EngineOut<P> {
        let mut out = EngineOut::default();
        self.tick_into(now, &mut out);
        out
    }

    /// [`Self::tick`], appending to the caller's buffer.
    pub(crate) fn tick_into(&mut self, now: SimTime, out: &mut EngineOut<P>) {
        let announce = self.announce_due();
        let retry = self.retry_due(now);
        if let Assign::Sequencer {
            stable_dirty,
            last_request,
            ..
        } = &mut self.assign
        {
            if announce {
                *stable_dirty = false;
            }
            if retry {
                *last_request = now;
            }
        }
        if announce {
            let up_to = self.stable();
            out.sends
                .extend(self.others().map(|p| (p, EngineMsg::Stable { up_to })));
        }
        if retry {
            self.resubmit(out);
        }
        if self.token_pass_due(now) {
            self.pass_token(out);
        }
    }

    /// Would [`Self::tick`] at `now` do nothing? The three guards below
    /// are the whole of what a tick does.
    pub(crate) fn tick_is_idle(&self, now: SimTime) -> bool {
        !self.announce_due() && !self.retry_due(now) && !self.token_pass_due(now)
    }

    /// Collector: stability advanced since the last `Stable` announcement
    /// (a halted one announces after `resume`).
    fn announce_due(&self) -> bool {
        match self.assign {
            Assign::Sequencer { stable_dirty, .. } => self.active && stable_dirty,
            Assign::Token { .. } => false,
        }
    }

    /// Re-request pendings that may have raced a view change (e.g. sent to
    /// a sequencer that had not installed yet).
    fn retry_due(&self, now: SimTime) -> bool {
        match self.assign {
            Assign::Sequencer {
                last_request,
                retry_every,
                ..
            } => self.active && !self.pending.is_empty() && now.since(last_request) >= retry_every,
            Assign::Token { .. } => false,
        }
    }

    /// Halted or not: a halted holder keeps a token it is handed (`on_msg`)
    /// but still passes an idle one on when its time is up.
    fn token_pass_due(&self, now: SimTime) -> bool {
        match self.assign {
            Assign::Token {
                holding,
                release_at,
                ..
            } => holding.is_some() && now >= release_at,
            Assign::Sequencer { .. } => false,
        }
    }

    /// Halt for a view change or pending flush: stop ordering and
    /// delivering. A held token is kept (the flush may be aborted and the
    /// token must not be lost); `install` re-seeds or clears it.
    pub(crate) fn halt(&mut self) {
        self.active = false;
    }

    /// Resume in the *same* view after an aborted flush: process anything
    /// buffered while halted and resubmit own pendings.
    pub(crate) fn resume(&mut self, _now: SimTime, out: &mut EngineOut<P>) {
        self.active = true;
        while self.log.contains_key(&self.recv_cursor) {
            self.recv_cursor += 1;
        }
        self.drain_stable(&mut out.deliver);
        self.ack_sends(out);
        let leads = self.leads();
        if let Assign::Sequencer { stable_dirty, .. } = &mut self.assign {
            // Acks absorbed while halted advance stability without
            // setting the dirty flag; re-announce on the next tick so
            // followers waiting on `Stable` are not stranded.
            *stable_dirty |= leads;
        }
        self.resubmit(out);
    }

    /// Produce this member's flush digest.
    pub(crate) fn digest(&self, coord_known: u64) -> FlushDigest<P> {
        FlushDigest {
            max_contig: self.received_up_to(),
            extra: self
                .log
                .range(coord_known + 1..)
                .map(|(_, m)| m.clone())
                .collect(),
            // Already in ascending origin order (BTreeMap), so every
            // replica serialises the same digest bytes.
            dedup: self.dedup.iter().map(|(&p, &l)| (p, l)).collect(),
        }
    }

    /// Apply the coordinator's reconciled batch: the agreed history is
    /// stable by agreement, so everything up to `next_seq - 1` is
    /// delivered. Returns the new deliveries.
    pub(crate) fn apply_flush(
        &mut self,
        msgs: &[OrderedMsg<P>],
        next_seq: u64,
    ) -> Vec<OrderedMsg<P>> {
        // Our contiguous received prefix is part of the agreed history
        // (the union covers every survivor's prefix). Anything buffered
        // beyond it may have been renumbered by the coordinator: replace
        // it with the batch.
        self.log.split_off(&self.recv_cursor);
        for m in msgs {
            if m.seq >= self.recv_cursor {
                self.log.insert(m.seq, m.clone());
            }
        }
        let mut out = Vec::new();
        self.deliver_through(next_seq - 1, &mut out);
        self.recv_cursor = self.recv_cursor.max(self.deliver_cursor);
        out
    }

    /// Joiner path: adopt the agreed history position without delivering
    /// any of it (the application receives a state snapshot instead).
    pub(crate) fn skip_to(&mut self, next_seq: u64) {
        self.log.clear();
        self.recv_cursor = next_seq;
        self.deliver_cursor = next_seq;
    }

    /// Install a view led by its rank-0 member, as a bootstrap view is:
    /// `leader` must be true exactly there. `Self::install_into` takes
    /// any leader.
    pub fn install(
        &mut self,
        now: SimTime,
        members: Vec<ProcId>,
        next_seq: u64,
        dedup: &[(ProcId, u64)],
        leader: bool,
    ) -> EngineOut<P> {
        let rank0 = members.first().copied().unwrap_or(self.me);
        debug_assert_eq!(leader, rank0 == self.me, "rank 0 leads");
        let mut out = EngineOut::default();
        self.install_into(now, members, next_seq, dedup, rank0, &mut out);
        out
    }

    /// Install a new view led by `leader` and resume: the leader becomes
    /// sequencer or seeds the token. Resubmits pending own messages
    /// (duplicates are filtered by the assign floor). Appends to the
    /// caller's buffer.
    pub(crate) fn install_into(
        &mut self,
        now: SimTime,
        members: Vec<ProcId>,
        next_seq: u64,
        dedup: &[(ProcId, u64)],
        leader: ProcId,
        out: &mut EngineOut<P>,
    ) {
        self.members = members;
        self.leader = Some(leader);
        let leads = self.leads();
        self.recv_cursor = self.recv_cursor.max(next_seq);
        self.deliver_cursor = self.deliver_cursor.max(next_seq);
        self.stable_floor = next_seq - 1;
        self.acks = self.others().map(|p| (p, next_seq - 1)).collect();
        for &(p, l) in dedup {
            raise(&mut self.dedup, p, l);
            raise(&mut self.assign_floor, p, l);
        }
        self.active = true;
        match &mut self.assign {
            Assign::Sequencer { waiting, .. } => waiting.clear(),
            Assign::Token {
                holding,
                floor,
                release_at,
                idle_pass,
            } => {
                *floor = (*floor).max(next_seq);
                // Any token held across the flush belongs to the old
                // view; the new leader seeds a fresh one.
                *holding = leads.then_some(next_seq);
                if leads {
                    *release_at = now + *idle_pass;
                }
            }
        }
        self.resubmit(out);
    }

    /// Drop log entries at or below `stable_up_to` (known delivered by the
    /// whole view).
    pub(crate) fn prune(&mut self, stable_up_to: u64) {
        // Every tick comes through here: drop the prefix in place
        // (`split_off` would allocate a new tree each time).
        while self.prune_due(stable_up_to) {
            self.log.pop_first();
        }
    }

    /// Has [`Self::prune`] an entry to drop?
    pub(crate) fn prune_due(&self, stable_up_to: u64) -> bool {
        let cutoff = stable_up_to.min(self.delivered_up_to());
        self.log
            .first_key_value()
            .is_some_and(|(&seq, _)| seq <= cutoff)
    }

    // ---- delivery and stability: the same for every policy ------------

    fn others(&self) -> impl Iterator<Item = ProcId> + '_ {
        let me = self.me;
        self.members.iter().copied().filter(move |&p| p != me)
    }

    /// Do we lead the installed view?
    fn leads(&self) -> bool {
        self.leader == Some(self.me)
    }

    fn stability(&self) -> Stability {
        match (&self.assign, self.leads()) {
            (Assign::Sequencer { .. }, true) => Stability::Collector,
            (Assign::Sequencer { .. }, false) => Stability::Follower,
            (Assign::Token { .. }, _) => Stability::AllToAll,
        }
    }

    /// Highest stable sequence number: everyone in the view holds it.
    fn stable(&self) -> u64 {
        if self.stability() == Stability::Follower {
            return self.received_up_to().min(self.stable_floor);
        }
        self.others()
            .map(|p| self.acks.get(&p).copied().unwrap_or(0))
            .fold(self.received_up_to(), u64::min)
    }

    /// Take in an ordered message; then, unless halted, advance the
    /// received prefix, deliver what has become stable and, if the prefix
    /// moved, send a fresh cumulative ack.
    fn ingest(&mut self, m: OrderedMsg<P>, out: &mut EngineOut<P>) {
        if m.seq >= self.recv_cursor {
            self.log.entry(m.seq).or_insert(m);
        }
        if !self.active {
            return;
        }
        let before = self.recv_cursor;
        while self.log.contains_key(&self.recv_cursor) {
            self.recv_cursor += 1;
        }
        self.drain_stable(&mut out.deliver);
        if self.recv_cursor != before {
            self.ack_sends(out);
        }
    }

    /// Deliver everything `<= min(recv, stable)`.
    fn drain_stable(&mut self, out: &mut Vec<OrderedMsg<P>>) {
        self.deliver_through(self.stable(), out);
    }

    /// Hand the log up to `limit` to the application; at each delivery
    /// advance the dedup floors and drop the satisfied pending of our own.
    fn deliver_through(&mut self, limit: u64, out: &mut Vec<OrderedMsg<P>>) {
        while self.deliver_cursor <= limit {
            // The stable prefix is received-contiguous and a flush batch
            // is gap-free, so the log must hold it. If an invariant breach
            // ever leaves a gap, stop delivering and wait — the next flush
            // reconciles the log — rather than killing the replica on its
            // hot path (`clippy::unwrap_used` and the other no-panic lints).
            let Some(m) = self.log.get(&self.deliver_cursor).cloned() else {
                debug_assert!(false, "deliverable prefix missing from the log");
                break;
            };
            raise(&mut self.dedup, m.origin, m.local_id);
            raise(&mut self.assign_floor, m.origin, m.local_id);
            if m.origin == self.me {
                self.pending.retain(|(l, _)| *l != m.local_id);
            }
            self.deliver_cursor += 1;
            out.push(m);
        }
    }

    /// Stability traffic for an advanced received prefix: followers ack
    /// the collector, all-to-all members ack everyone, the collector sends
    /// nothing here (it announces on its tick).
    fn ack_sends(&self, out: &mut EngineOut<P>) {
        let up_to = self.received_up_to();
        match self.stability() {
            Stability::Follower => {
                if let Some(collector) = self.leader {
                    out.sends.push((collector, EngineMsg::Ack { up_to }));
                }
            }
            Stability::AllToAll => {
                out.sends
                    .extend(self.others().map(|p| (p, EngineMsg::Ack { up_to })));
            }
            Stability::Collector => {}
        }
    }

    // ---- sequence assignment: where the policies differ ---------------

    /// Has `(origin, local_id)` a sequence number already? Covers
    /// ordered-but-undelivered, which only the assigner knows about.
    fn is_assigned(&self, origin: ProcId, local_id: u64) -> bool {
        local_id < self.expected_local(origin)
    }

    /// Next local id this origin's stream expects.
    fn expected_local(&self, origin: ProcId) -> u64 {
        let floor = |m: &BTreeMap<ProcId, u64>| m.get(&origin).copied().unwrap_or(0);
        floor(&self.assign_floor).max(floor(&self.dedup)) + 1
    }

    /// Offer every own pending that has no sequence number yet to the
    /// policy. Under the token this is a visit of the token: nothing
    /// happens without it, and it moves on at once when anything of ours
    /// is still undelivered (an idle token rests until `release_at` to
    /// limit chatter).
    fn resubmit(&mut self, out: &mut EngineOut<P>) {
        let Some(&(newest, _)) = self.pending.back() else {
            return;
        };
        if matches!(self.assign, Assign::Token { holding: None, .. }) {
            return;
        }
        // Only the ids unassigned on entry can be offered: those from
        // `expected_local` up to the newest pending one. An offer may
        // assign (and deliver) later ones, so each is checked again, and
        // only a payload that is offered is cloned.
        for local_id in self.expected_local(self.me)..=newest {
            if self.is_assigned(self.me, local_id) {
                continue;
            }
            let Some((_, payload)) = self.pending.iter().find(|(l, _)| *l == local_id) else {
                continue;
            };
            self.offer(local_id, payload.clone(), out);
        }
        self.pass_token(out);
    }

    /// Get one own submission to whoever assigns: ourselves (sequencer, or
    /// token in hand — `resubmit` checked) or the sequencer.
    fn offer(&mut self, local_id: u64, payload: P, out: &mut EngineOut<P>) {
        match self.stability() {
            Stability::AllToAll => self.assign_seq(self.me, local_id, payload, out),
            Stability::Collector => self.order(self.me, local_id, payload, out),
            // No installed view yet: the submission stays pending and is
            // resubmitted on the next install.
            Stability::Follower => {
                if let Some(sequencer) = self.leader {
                    out.sends
                        .push((sequencer, EngineMsg::Request { local_id, payload }));
                }
            }
        }
    }

    /// Sequencer: order a request strictly in per-origin local-id order.
    /// An out-of-order request (an earlier one was lost and will be
    /// retried) is buffered; a duplicate is dropped.
    fn order(&mut self, origin: ProcId, local_id: u64, payload: P, out: &mut EngineOut<P>) {
        let expected = self.expected_local(origin);
        let Assign::Sequencer { waiting, .. } = &mut self.assign else {
            return;
        };
        if local_id > expected {
            waiting.entry(origin).or_default().insert(local_id, payload);
            return;
        }
        if local_id < expected {
            return;
        }
        self.assign_seq(origin, local_id, payload, out);
        // Drain any buffered successors that are now in order.
        loop {
            let next = self.expected_local(origin);
            let Assign::Sequencer { waiting, .. } = &mut self.assign else {
                break;
            };
            let Some(p) = waiting.get_mut(&origin).and_then(|buf| buf.remove(&next)) else {
                break;
            };
            self.assign_seq(origin, next, p, out);
        }
    }

    /// Give a submission the next sequence number, multicast it and take
    /// it in ourselves.
    fn assign_seq(&mut self, origin: ProcId, local_id: u64, payload: P, out: &mut EngineOut<P>) {
        let seq = match &mut self.assign {
            // Highest known + 1 (the log holds everything undelivered).
            Assign::Sequencer { .. } => {
                let last = self.log.keys().next_back().map_or(0, |&s| s + 1);
                last.max(self.recv_cursor)
            }
            Assign::Token {
                holding: Some(next_seq),
                floor,
                ..
            } => {
                *next_seq += 1;
                *floor = (*floor).max(*next_seq);
                *next_seq - 1
            }
            Assign::Token { holding: None, .. } => return,
        };
        raise(&mut self.assign_floor, origin, local_id);
        let m = OrderedMsg {
            seq,
            origin,
            local_id,
            payload,
        };
        out.sends
            .extend(self.others().map(|p| (p, EngineMsg::Ordered(m.clone()))));
        self.ingest(m, out);
    }

    /// Send a held token to the next member in rank order. A sole member
    /// keeps it, and so does one that is not in the installed view (e.g.
    /// mid-ejection) rather than send it into the void: the next install
    /// either reseats us or seeds a fresh token.
    fn pass_token(&mut self, out: &mut EngineOut<P>) {
        let Assign::Token { holding, .. } = &mut self.assign else {
            return;
        };
        let Some(idx) = self.members.iter().position(|&p| p == self.me) else {
            return;
        };
        if self.members.len() > 1 {
            if let Some(next_seq) = holding.take() {
                let successor = self.members[(idx + 1) % self.members.len()];
                out.sends.push((successor, EngineMsg::Token { next_seq }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;

    const T0: SimTime = SimTime::ZERO;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    fn installed(kind: EngineKind, me: u32, members: &[u32]) -> Engine<&'static str> {
        let mut e = Engine::with_retry(
            kind,
            p(me),
            SimDuration::from_millis(5),
            SimDuration::from_millis(100),
        );
        let mem: Vec<ProcId> = members.iter().map(|&i| p(i)).collect();
        let leader = mem[0] == p(me);
        let _ = e.install(T0, mem, 1, &[], leader);
        e
    }

    /// Extract `(to, up_to)` ack sends.
    fn acks(out: &EngineOut<&'static str>) -> Vec<(ProcId, u64)> {
        out.sends
            .iter()
            .filter_map(|(to, m)| match m {
                EngineMsg::Ack { up_to } => Some((*to, *up_to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sole_member_delivers_immediately() {
        let mut e = installed(EngineKind::Sequencer, 1, &[1]);
        let out = e.submit(T0, "a");
        assert_eq!(out.deliver.len(), 1);
        assert_eq!(out.deliver[0].seq, 1);
        assert_eq!(e.pending_count(), 0);
    }

    #[test]
    fn multi_member_delivery_waits_for_stability() {
        let mut seq = installed(EngineKind::Sequencer, 1, &[1, 2]);
        let out = seq.submit(T0, "a");
        // Ordered multicast + own ack go out, but nothing delivers yet:
        // member 2 has not confirmed holding the message.
        assert!(out.deliver.is_empty(), "delivered before stable");
        assert!(out
            .sends
            .iter()
            .any(|(to, m)| *to == p(2) && matches!(m, EngineMsg::Ordered(_))));
        assert_eq!(seq.received_up_to(), 1);
        assert_eq!(seq.delivered_up_to(), 0);
        // Member 2's cumulative ack arrives: now stable, now delivered.
        let out = seq.on_msg(T0, p(2), EngineMsg::Ack { up_to: 1 });
        assert_eq!(out.deliver.len(), 1);
        assert_eq!(out.deliver[0].payload, "a");
        assert_eq!(seq.delivered_up_to(), 1);
        assert_eq!(seq.pending_count(), 0);
    }

    #[test]
    fn collector_stability_round_trip() {
        // Full sequencer-engine stability flow: Ordered → follower Ack →
        // collector delivers + announces Stable → follower delivers.
        let mut seq = installed(EngineKind::Sequencer, 1, &[1, 2]);
        let mut member = installed(EngineKind::Sequencer, 2, &[1, 2]);
        let s_out = seq.submit(T0, "x");
        assert!(
            s_out.deliver.is_empty(),
            "collector needs the follower's ack"
        );
        let ordered = s_out
            .sends
            .iter()
            .find_map(|(to, m)| match (to, m) {
                (to, EngineMsg::Ordered(om)) if *to == p(2) => Some(om.clone()),
                _ => None,
            })
            .expect("ordered multicast");
        // Follower ingests and acks the collector only.
        let m_out = member.on_msg(T0, p(1), EngineMsg::Ordered(ordered));
        assert!(m_out.deliver.is_empty());
        assert_eq!(acks(&m_out), vec![(p(1), 1)]);
        // Collector receives the ack: stable → delivers; the announcement
        // to followers is batched onto the next engine tick.
        let s_out = seq.on_msg(T0, p(2), EngineMsg::Ack { up_to: 1 });
        assert_eq!(s_out.deliver.len(), 1);
        let tick_out = seq.tick(T0);
        let stable = tick_out
            .sends
            .iter()
            .find_map(|(to, m)| match (to, m) {
                (to, EngineMsg::Stable { up_to }) if *to == p(2) => Some(*up_to),
                _ => None,
            })
            .expect("stability announcement");
        // Follower delivers on the announcement.
        let m_out = member.on_msg(T0, p(1), EngineMsg::Stable { up_to: stable });
        assert_eq!(m_out.deliver.len(), 1);
        assert_eq!(m_out.deliver[0].payload, "x");
    }

    /// The leader is the member the group names at install, not rank 0:
    /// rank 0 requests from it and acks to it, and it orders on its own.
    #[test]
    fn the_named_leader_sequences_not_rank_zero() {
        let led_by_two = |me: u32| {
            let mut e = Engine::with_retry(
                EngineKind::Sequencer,
                p(me),
                SimDuration::from_millis(5),
                SimDuration::from_millis(100),
            );
            let mut out = EngineOut::default();
            e.install_into(T0, vec![p(1), p(2), p(3)], 1, &[], p(2), &mut out);
            assert!(out.sends.is_empty() && out.deliver.is_empty());
            e
        };
        let (mut rank0, mut leader) = (led_by_two(1), led_by_two(2));
        let out = rank0.submit(T0, "x");
        let [(to, req)] = &out.sends[..] else {
            panic!("one request: {:?}", out.sends);
        };
        assert_eq!(*to, p(2));
        let out = leader.on_msg(T0, p(1), req.clone());
        let ordered: Vec<ProcId> = out.sends.iter().map(|(to, _)| *to).collect();
        assert_eq!(ordered, [p(1), p(3)], "the leader orders the request");
        let out = rank0.on_msg(T0, p(2), out.sends[0].1.clone());
        assert_eq!(acks(&out), [(p(2), 1)], "rank 0 acks to the leader");
    }

    #[test]
    fn non_sequencer_requests_then_delivers() {
        let mut seq = installed(EngineKind::Sequencer, 1, &[1, 2]);
        let mut member = installed(EngineKind::Sequencer, 2, &[1, 2]);
        let out = member.submit(T0, "x");
        assert!(out.deliver.is_empty());
        assert_eq!(out.sends.len(), 1);
        assert_eq!(member.pending_count(), 1);
        let req = out.sends.into_iter().next().unwrap().1;
        let s_out = seq.on_msg(T0, p(2), req);
        // Feed everything back and forth until quiet.
        let mut to_member: Vec<EngineMsg<&'static str>> =
            s_out.sends.into_iter().map(|(_, m)| m).collect();
        let mut to_seq: Vec<EngineMsg<&'static str>> = vec![];
        let mut member_got = vec![];
        let mut seq_got: Vec<OrderedMsg<&'static str>> = s_out.deliver;
        for i in 0..6 {
            for m in to_member.drain(..) {
                let o = member.on_msg(T0, p(1), m);
                to_seq.extend(o.sends.into_iter().map(|(_, m)| m));
                member_got.extend(o.deliver);
            }
            for m in to_seq.drain(..) {
                let o = seq.on_msg(T0, p(2), m);
                to_member.extend(o.sends.into_iter().map(|(_, m)| m));
                seq_got.extend(o.deliver);
            }
            // Flush batched stability announcements.
            let t = T0 + SimDuration::from_millis(i + 1);
            let o = seq.tick(t);
            to_member.extend(o.sends.into_iter().map(|(_, m)| m));
        }
        assert_eq!(member_got.len(), 1);
        assert_eq!(member_got[0].payload, "x");
        assert_eq!(seq_got.len(), 1);
        assert_eq!(member.pending_count(), 0);
    }

    #[test]
    fn sequencer_suppresses_duplicate_requests() {
        let mut seq = installed(EngineKind::Sequencer, 1, &[1, 2]);
        let out1 = seq.on_msg(
            T0,
            p(2),
            EngineMsg::Request {
                local_id: 1,
                payload: "x",
            },
        );
        assert!(out1
            .sends
            .iter()
            .any(|(_, m)| matches!(m, EngineMsg::Ordered(_))));
        // Duplicate before delivery (assign floor catches it).
        let out2 = seq.on_msg(
            T0,
            p(2),
            EngineMsg::Request {
                local_id: 1,
                payload: "x",
            },
        );
        assert!(out2.sends.is_empty() && out2.deliver.is_empty());
        assert_eq!(seq.received_up_to(), 1);
    }

    #[test]
    fn halted_engine_queues_submissions() {
        let mut e = installed(EngineKind::Sequencer, 1, &[1, 2]);
        e.halt();
        let out = e.submit(T0, "q");
        assert!(out.sends.is_empty() && out.deliver.is_empty());
        assert_eq!(e.pending_count(), 1);
        // Reinstall resubmits (sole member now: delivered directly).
        let out = e.install(T0, vec![p(1)], 1, &[], true);
        assert_eq!(out.deliver.len(), 1);
        assert_eq!(e.pending_count(), 0);
    }

    #[test]
    fn digest_reports_received_prefix() {
        let mut e = installed(EngineKind::Sequencer, 1, &[1]);
        for s in ["a", "b", "c"] {
            let _ = e.submit(T0, s);
        }
        assert_eq!(e.delivered_up_to(), 3);
        let d = e.digest(1);
        assert_eq!(d.max_contig, 3);
        let seqs: Vec<u64> = d.extra.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        assert_eq!(d.dedup, vec![(p(1), 3)]);
    }

    #[test]
    fn digest_includes_received_but_undelivered() {
        // A member that received (but could not yet deliver) a message
        // still reports it in the flush digest — that is what makes
        // output-commit safe across view changes.
        let mut member = installed(EngineKind::Sequencer, 2, &[1, 2]);
        let m1 = OrderedMsg {
            seq: 1,
            origin: p(1),
            local_id: 1,
            payload: "a",
        };
        let out = member.on_msg(T0, p(1), EngineMsg::Ordered(m1));
        assert!(out.deliver.is_empty(), "not stable yet");
        member.halt();
        let d = member.digest(0);
        assert_eq!(d.max_contig, 1);
        assert_eq!(d.extra.len(), 1);
    }

    #[test]
    fn apply_flush_delivers_everything_agreed() {
        let mut e = installed(EngineKind::Sequencer, 2, &[1, 2]);
        let m1 = OrderedMsg {
            seq: 1,
            origin: p(1),
            local_id: 1,
            payload: "a",
        };
        let _ = e.on_msg(T0, p(1), EngineMsg::Ordered(m1.clone()));
        let m2 = OrderedMsg {
            seq: 2,
            origin: p(1),
            local_id: 2,
            payload: "b",
        };
        e.halt();
        let delivered = e.apply_flush(&[m1, m2], 3);
        let seqs: Vec<u64> = delivered.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(e.delivered_up_to(), 2);
    }

    #[test]
    fn prune_respects_delivery_cursor() {
        let mut e = installed(EngineKind::Sequencer, 1, &[1]);
        for s in ["a", "b", "c"] {
            let _ = e.submit(T0, s);
        }
        assert_eq!(e.log_len(), 3);
        e.prune(2);
        assert_eq!(e.log_len(), 1);
        e.prune(2);
        assert_eq!(e.log_len(), 1, "nothing at or below 2 is left: a no-op");
        e.prune(100);
        assert_eq!(e.log_len(), 0);
    }

    #[test]
    fn resume_after_abort_delivers_buffered() {
        let mut e = installed(EngineKind::Sequencer, 2, &[1, 2]);
        e.halt();
        let m1 = OrderedMsg {
            seq: 1,
            origin: p(1),
            local_id: 1,
            payload: "a",
        };
        let out = e.on_msg(T0, p(1), EngineMsg::Ordered(m1));
        assert!(out.deliver.is_empty());
        let out = e.on_msg(T0, p(1), EngineMsg::Stable { up_to: 1 });
        assert!(out.deliver.is_empty(), "halted: no delivery");
        let mut out = EngineOut::default();
        e.resume(T0, &mut out);
        assert_eq!(out.deliver.len(), 1, "buffered message delivered on resume");
        assert_eq!(e.delivered_up_to(), 1);
    }

    #[test]
    fn token_holder_orders_and_passes() {
        let mut a = installed(EngineKind::Token, 1, &[1, 2]);
        let out = a.submit(T0, "a");
        // Ordered multicast happens, but delivery waits for member 2's ack.
        assert!(out.deliver.is_empty());
        let has_token = out
            .sends
            .iter()
            .any(|(to, m)| *to == p(2) && matches!(m, EngineMsg::Token { next_seq: 2, .. }));
        assert!(has_token, "token must pass to successor: {:?}", out.sends);
        let out = a.on_msg(T0, p(2), EngineMsg::Ack { up_to: 1 });
        assert_eq!(out.deliver.len(), 1);
        assert_eq!(out.deliver[0].seq, 1);
    }

    #[test]
    fn token_non_holder_waits_for_token() {
        let mut b = installed(EngineKind::Token, 2, &[1, 2]);
        let out = b.submit(T0, "b");
        assert!(out.deliver.is_empty());
        assert!(out.sends.is_empty());
        // Token arrives: order + pass back; delivery still needs the
        // peer's ack of the ordered message.
        let out = b.on_msg(T0, p(1), EngineMsg::Token { next_seq: 1 });
        assert!(out
            .sends
            .iter()
            .any(|(to, m)| *to == p(1) && matches!(m, EngineMsg::Token { next_seq: 2, .. })));
        let out = b.on_msg(T0, p(1), EngineMsg::Ack { up_to: 1 });
        assert_eq!(out.deliver.len(), 1);
    }

    #[test]
    fn idle_token_held_until_release_then_passed_on_tick() {
        let mut a = installed(EngineKind::Token, 1, &[1, 2]);
        assert!(a.tick(T0).sends.is_empty());
        let later = T0 + SimDuration::from_millis(5);
        let out = a.tick(later);
        assert_eq!(out.sends.len(), 1);
        assert!(matches!(
            out.sends[0].1,
            EngineMsg::Token { next_seq: 1, .. }
        ));
    }

    #[test]
    fn sole_token_member_keeps_token() {
        let mut a = installed(EngineKind::Token, 1, &[1]);
        let out = a.submit(T0, "x");
        assert_eq!(out.deliver.len(), 1);
        assert!(out.sends.is_empty());
        let out = a.submit(T0, "y");
        assert_eq!(out.deliver.len(), 1);
        assert_eq!(out.deliver[0].seq, 2);
    }

    #[test]
    fn stale_token_discarded() {
        let mut a = installed(EngineKind::Token, 2, &[1, 2]);
        let _ = a.on_msg(T0, p(1), EngineMsg::Token { next_seq: 1 });
        let mut sub = a.submit(T0, "x");
        assert!(sub.deliver.is_empty());
        let _ = sub.sends.drain(..);
        // A stale duplicate of the old token arrives: ignored (our floor
        // is now 2, so a double grant at seq 1 is impossible).
        let out = a.on_msg(T0, p(1), EngineMsg::Token { next_seq: 1 });
        assert!(out.deliver.is_empty() && out.sends.is_empty());
        let out = a.submit(T0, "y");
        assert!(out.deliver.is_empty() && out.sends.is_empty());
        // The live token returns with the seq we passed on: accepted, and
        // "y" is ordered at seq 2.
        let out = a.on_msg(T0, p(1), EngineMsg::Token { next_seq: 2 });
        assert!(out
            .sends
            .iter()
            .any(|(_, m)| matches!(m, EngineMsg::Ordered(om) if om.seq == 2)));
    }

    #[test]
    fn install_resets_ack_floors() {
        let mut e = installed(EngineKind::Sequencer, 1, &[1, 2, 3]);
        let _ = e.submit(T0, "a");
        let _ = e.on_msg(T0, p(2), EngineMsg::Ack { up_to: 1 });
        // Member 3 never acked: still undelivered.
        assert_eq!(e.delivered_up_to(), 0);
        // View change removes member 3; the flush agrees history 1.
        e.halt();
        let m1 = OrderedMsg {
            seq: 1,
            origin: p(1),
            local_id: 1,
            payload: "a",
        };
        let delivered = e.apply_flush(&[m1], 2);
        assert_eq!(delivered.len(), 1);
        let _ = e.install(T0, vec![p(1), p(2)], 2, &[], true);
        // New submission becomes stable with just member 2's ack.
        let _ = e.submit(T0, "b");
        let out = e.on_msg(T0, p(2), EngineMsg::Ack { up_to: 2 });
        assert_eq!(out.deliver.len(), 1);
        assert_eq!(out.deliver[0].payload, "b");
    }

    // ---- send-order golden -------------------------------------------
    //
    // The order of `EngineOut::sends` fixes the frame order on every link
    // and with it every sim-time row of the experiments. Nothing else pins
    // it: the tests above look for a message *somewhere* in `sends`, and
    // Fig 10 sees the order only through latencies. The script below runs
    // three engines over one FIFO queue and writes down every stimulus and
    // exactly what it produced; the transcripts are the contract.

    type Msg = EngineMsg<&'static str>;

    fn show(m: &Msg) -> String {
        match m {
            EngineMsg::Request { local_id, .. } => format!("Request#{local_id}"),
            EngineMsg::Ordered(m) => format!("Ordered#{}", m.seq),
            EngineMsg::Ack { up_to } => format!("Ack#{up_to}"),
            EngineMsg::Stable { up_to } => format!("Stable#{up_to}"),
            EngineMsg::Token { next_seq, .. } => format!("Token#{next_seq}"),
        }
    }

    /// Members 1..=3, one FIFO queue between them, a transcript line per
    /// stimulus: `who what: from>to Variant#n ... !seq payload ...`.
    struct Script {
        engines: Vec<Engine<&'static str>>,
        queue: VecDeque<(ProcId, ProcId, Msg)>,
        now: SimTime,
        lines: Vec<String>,
        delivered: Vec<String>,
    }

    impl Script {
        fn new(kind: EngineKind) -> Self {
            let idle_pass = SimDuration::from_millis(5);
            let retry = SimDuration::from_millis(20);
            Script {
                engines: (1..=3)
                    .map(|i| Engine::with_retry(kind, p(i), idle_pass, retry))
                    .collect(),
                queue: VecDeque::new(),
                now: T0,
                lines: Vec::new(),
                delivered: vec![String::new(); 3],
            }
        }

        fn engine(&mut self, i: u32) -> &mut Engine<&'static str> {
            &mut self.engines[i as usize - 1]
        }

        fn absorb(&mut self, who: u32, what: &str, out: EngineOut<&'static str>) {
            let mut line = format!("{who} {what}:");
            for (to, m) in out.sends {
                line += &format!(" {who}>{} {}", to.0, show(&m));
                self.queue.push_back((p(who), to, m));
            }
            for m in out.deliver {
                line += &format!(" !{}{}", m.seq, m.payload);
                self.delivered[who as usize - 1] += m.payload;
            }
            self.lines.push(line);
        }

        fn install(&mut self, members: &[u32], next_seq: u64, dedup: &[(ProcId, u64)]) {
            let mem: Vec<ProcId> = members.iter().map(|&i| p(i)).collect();
            for &i in members {
                let now = self.now;
                let out =
                    self.engine(i)
                        .install(now, mem.clone(), next_seq, dedup, i == members[0]);
                self.absorb(i, "install", out);
            }
        }

        fn submit(&mut self, i: u32, payload: &'static str) {
            let now = self.now;
            let out = self.engine(i).submit(now, payload);
            self.absorb(i, &format!("submit {payload}"), out);
        }

        fn halt(&mut self, i: u32) {
            self.engine(i).halt();
            self.lines.push(format!("{i} halt"));
        }

        fn resume(&mut self, i: u32) {
            let now = self.now;
            let mut out = EngineOut::default();
            self.engine(i).resume(now, &mut out);
            self.absorb(i, "resume", out);
        }

        /// Deliver everything in flight, in FIFO order.
        fn pump(&mut self) {
            while let Some((from, to, m)) = self.queue.pop_front() {
                let halted = if self.engine(to.0).is_active() {
                    ""
                } else {
                    " (halted)"
                };
                let what = format!("<{} {}{halted}", from.0, show(&m));
                let now = self.now;
                let out = self.engine(to.0).on_msg(now, from, m);
                self.absorb(to.0, &what, out);
            }
        }

        /// One 5 ms engine tick at every member, halted or not (as
        /// `GroupMember::tick` does); silent ticks leave no line.
        fn tick(&mut self) {
            self.now += SimDuration::from_millis(5);
            for i in 1..=3 {
                let now = self.now;
                let out = self.engine(i).tick(now);
                if !(out.sends.is_empty() && out.deliver.is_empty()) {
                    self.absorb(i, "tick", out);
                }
            }
        }

        fn rounds(&mut self, n: usize) {
            for _ in 0..n {
                self.pump();
                self.tick();
            }
            self.pump();
        }

        /// Pump and tick until `who` have nothing pending and agree on what
        /// is delivered.
        fn settle(&mut self, who: &[u32]) {
            for _ in 0..200 {
                self.pump();
                let first = self.engine(who[0]).delivered_up_to();
                if who.iter().all(|&i| {
                    self.engine(i).pending_count() == 0 && self.engine(i).delivered_up_to() == first
                }) {
                    return;
                }
                self.tick();
            }
            panic!("script did not settle:\n{}", self.lines.join("\n"));
        }

        /// What the coordinator of a view change does with the digests of
        /// `survivors` (see `GroupMember::try_conclude`): union, next
        /// sequence number, merged dedup floors; then `apply_flush` and
        /// `install` at each survivor.
        fn view_change(&mut self, survivors: &[u32]) {
            let known = self.engine(survivors[0]).delivered_up_to();
            let digests: Vec<FlushDigest<&'static str>> = survivors
                .iter()
                .map(|&i| self.engine(i).digest(known))
                .collect();
            let mut union = BTreeMap::new();
            let mut dedup = BTreeMap::new();
            for d in &digests {
                for m in &d.extra {
                    union.entry(m.seq).or_insert_with(|| m.clone());
                }
                for &(origin, l) in &d.dedup {
                    let e = dedup.entry(origin).or_insert(0);
                    *e = l.max(*e);
                }
            }
            let msgs: Vec<OrderedMsg<&'static str>> = union.into_values().collect();
            for m in &msgs {
                let e = dedup.entry(m.origin).or_insert(0);
                *e = m.local_id.max(*e);
            }
            let next_seq = msgs.last().map_or(known, |m| m.seq) + 1;
            let dedup: Vec<(ProcId, u64)> = dedup.into_iter().collect();
            for &i in survivors {
                let deliver = self.engine(i).apply_flush(&msgs, next_seq);
                self.absorb(
                    i,
                    "apply_flush",
                    EngineOut {
                        sends: vec![],
                        deliver,
                    },
                );
            }
            self.install(survivors, next_seq, &dedup);
        }
    }

    fn golden_script(kind: EngineKind) -> Script {
        let mut s = Script::new(kind);
        s.install(&[1, 2, 3], 1, &[]);
        // One submission from each member.
        s.submit(1, "a");
        s.submit(2, "b");
        s.submit(3, "c");
        s.settle(&[1, 2, 3]);
        // A follower halts (flush pending) with ordering traffic in
        // flight, buffers what arrives, and resumes (flush aborted).
        s.submit(1, "d");
        s.pump();
        s.halt(2);
        s.tick();
        s.submit(3, "e");
        s.rounds(2);
        s.resume(2);
        s.settle(&[1, 2, 3]);
        // The same for the leader, with its own submission in flight; a
        // follower's submission has to get through afterwards (request
        // retry / the kept token).
        s.submit(1, "f");
        s.halt(1);
        s.submit(2, "g");
        s.rounds(2);
        s.resume(1);
        s.settle(&[1, 2, 3]);
        // Member 3 is dropped from the view while member 2 has one
        // submission on its way to the halted leader and one queued.
        s.halt(1);
        s.submit(2, "h");
        s.pump();
        s.halt(2);
        s.halt(3);
        s.submit(2, "i");
        s.view_change(&[1, 2]);
        s.settle(&[1, 2]);
        s
    }

    fn assert_golden(kind: EngineKind, want: &str) {
        let s = golden_script(kind);
        let got = s.lines.join("\n");
        let want: Vec<&str> = want
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(got, want.join("\n"), "transcript of {kind:?}:\n{got}\n");
        assert_eq!(s.delivered[0], "abcdefghi", "member 1");
        assert_eq!(s.delivered[1], "abcdefghi", "member 2");
        assert_eq!(s.delivered[2], "abcdefg", "member 3 left before h and i");
    }

    #[test]
    fn send_order_golden_sequencer() {
        assert_golden(
            EngineKind::Sequencer,
            "
            1 install:
            2 install:
            3 install:
            1 submit a: 1>2 Ordered#1 1>3 Ordered#1
            2 submit b: 2>1 Request#1
            3 submit c: 3>1 Request#1
            2 <1 Ordered#1: 2>1 Ack#1
            3 <1 Ordered#1: 3>1 Ack#1
            1 <2 Request#1: 1>2 Ordered#2 1>3 Ordered#2
            1 <3 Request#1: 1>2 Ordered#3 1>3 Ordered#3
            1 <2 Ack#1:
            1 <3 Ack#1: !1a
            2 <1 Ordered#2: 2>1 Ack#2
            3 <1 Ordered#2: 3>1 Ack#2
            2 <1 Ordered#3: 2>1 Ack#3
            3 <1 Ordered#3: 3>1 Ack#3
            1 <2 Ack#2:
            1 <3 Ack#2: !2b
            1 <2 Ack#3:
            1 <3 Ack#3: !3c
            1 tick: 1>2 Stable#3 1>3 Stable#3
            2 <1 Stable#3: !1a !2b !3c
            3 <1 Stable#3: !1a !2b !3c
            1 submit d: 1>2 Ordered#4 1>3 Ordered#4
            2 <1 Ordered#4: 2>1 Ack#4
            3 <1 Ordered#4: 3>1 Ack#4
            1 <2 Ack#4:
            1 <3 Ack#4: !4d
            2 halt
            1 tick: 1>2 Stable#4 1>3 Stable#4
            3 submit e: 3>1 Request#2
            2 <1 Stable#4 (halted):
            3 <1 Stable#4: !4d
            1 <3 Request#2: 1>2 Ordered#5 1>3 Ordered#5
            2 <1 Ordered#5 (halted):
            3 <1 Ordered#5: 3>1 Ack#5
            1 <3 Ack#5:
            3 tick: 3>1 Request#2
            1 <3 Request#2:
            2 resume: 2>1 Ack#5 !4d
            1 <2 Ack#5: !5e
            1 tick: 1>2 Stable#5 1>3 Stable#5
            2 <1 Stable#5: !5e
            3 <1 Stable#5: !5e
            1 submit f: 1>2 Ordered#6 1>3 Ordered#6
            1 halt
            2 submit g: 2>1 Request#2
            2 <1 Ordered#6: 2>1 Ack#6
            3 <1 Ordered#6: 3>1 Ack#6
            1 <2 Request#2 (halted):
            1 <2 Ack#6 (halted):
            1 <3 Ack#6 (halted):
            2 tick: 2>1 Request#2
            1 <2 Request#2 (halted):
            1 resume: !6f
            1 tick: 1>2 Stable#6 1>3 Stable#6
            2 <1 Stable#6: !6f
            3 <1 Stable#6: !6f
            2 tick: 2>1 Request#2
            1 <2 Request#2: 1>2 Ordered#7 1>3 Ordered#7
            2 <1 Ordered#7: 2>1 Ack#7
            3 <1 Ordered#7: 3>1 Ack#7
            1 <2 Ack#7:
            1 <3 Ack#7: !7g
            1 tick: 1>2 Stable#7 1>3 Stable#7
            2 <1 Stable#7: !7g
            3 <1 Stable#7: !7g
            1 halt
            2 submit h: 2>1 Request#3
            1 <2 Request#3 (halted):
            2 halt
            3 halt
            2 submit i:
            1 apply_flush:
            2 apply_flush:
            1 install:
            2 install: 2>1 Request#3 2>1 Request#4
            1 <2 Request#3: 1>2 Ordered#8
            1 <2 Request#4: 1>2 Ordered#9
            2 <1 Ordered#8: 2>1 Ack#8
            2 <1 Ordered#9: 2>1 Ack#9
            1 <2 Ack#8: !8h
            1 <2 Ack#9: !9i
            1 tick: 1>2 Stable#9
            2 <1 Stable#9: !8h !9i
            ",
        );
    }

    #[test]
    fn send_order_golden_token() {
        assert_golden(
            EngineKind::Token,
            "
            1 install:
            2 install:
            3 install:
            1 submit a: 1>2 Ordered#1 1>3 Ordered#1 1>2 Ack#1 1>3 Ack#1 1>2 Token#2
            2 submit b:
            3 submit c:
            2 <1 Ordered#1: 2>1 Ack#1 2>3 Ack#1
            3 <1 Ordered#1: 3>1 Ack#1 3>2 Ack#1
            2 <1 Ack#1:
            3 <1 Ack#1:
            2 <1 Token#2: 2>1 Ordered#2 2>3 Ordered#2 2>1 Ack#2 2>3 Ack#2 2>3 Token#3
            1 <2 Ack#1:
            3 <2 Ack#1: !1a
            1 <3 Ack#1: !1a
            2 <3 Ack#1: !1a
            1 <2 Ordered#2: 1>2 Ack#2 1>3 Ack#2
            3 <2 Ordered#2: 3>1 Ack#2 3>2 Ack#2
            1 <2 Ack#2:
            3 <2 Ack#2:
            3 <2 Token#3: 3>1 Ordered#3 3>2 Ordered#3 3>1 Ack#3 3>2 Ack#3 3>1 Token#4
            2 <1 Ack#2:
            3 <1 Ack#2: !2b
            1 <3 Ack#2: !2b
            2 <3 Ack#2: !2b
            1 <3 Ordered#3: 1>2 Ack#3 1>3 Ack#3
            2 <3 Ordered#3: 2>1 Ack#3 2>3 Ack#3
            1 <3 Ack#3:
            2 <3 Ack#3:
            1 <3 Token#4:
            2 <1 Ack#3: !3c
            3 <1 Ack#3:
            1 <2 Ack#3: !3c
            3 <2 Ack#3: !3c
            1 submit d: 1>2 Ordered#4 1>3 Ordered#4 1>2 Ack#4 1>3 Ack#4 1>2 Token#5
            2 <1 Ordered#4: 2>1 Ack#4 2>3 Ack#4
            3 <1 Ordered#4: 3>1 Ack#4 3>2 Ack#4
            2 <1 Ack#4:
            3 <1 Ack#4:
            2 <1 Token#5:
            1 <2 Ack#4:
            3 <2 Ack#4: !4d
            1 <3 Ack#4: !4d
            2 <3 Ack#4: !4d
            2 halt
            2 tick: 2>3 Token#5
            3 submit e:
            3 <2 Token#5: 3>1 Ordered#5 3>2 Ordered#5 3>1 Ack#5 3>2 Ack#5 3>1 Token#6
            1 <3 Ordered#5: 1>2 Ack#5 1>3 Ack#5
            2 <3 Ordered#5 (halted):
            1 <3 Ack#5:
            2 <3 Ack#5 (halted):
            1 <3 Token#6:
            2 <1 Ack#5 (halted):
            3 <1 Ack#5:
            1 tick: 1>2 Token#6
            2 <1 Token#6 (halted):
            2 tick: 2>3 Token#6
            3 <2 Token#6: 3>1 Token#6
            1 <3 Token#6:
            2 resume: 2>1 Ack#5 2>3 Ack#5 !5e
            1 <2 Ack#5: !5e
            3 <2 Ack#5: !5e
            1 submit f: 1>2 Ordered#6 1>3 Ordered#6 1>2 Ack#6 1>3 Ack#6 1>2 Token#7
            1 halt
            2 submit g:
            2 <1 Ordered#6: 2>1 Ack#6 2>3 Ack#6
            3 <1 Ordered#6: 3>1 Ack#6 3>2 Ack#6
            2 <1 Ack#6:
            3 <1 Ack#6:
            2 <1 Token#7: 2>1 Ordered#7 2>3 Ordered#7 2>1 Ack#7 2>3 Ack#7 2>3 Token#8
            1 <2 Ack#6 (halted):
            3 <2 Ack#6: !6f
            1 <3 Ack#6 (halted):
            2 <3 Ack#6: !6f
            1 <2 Ordered#7 (halted):
            3 <2 Ordered#7: 3>1 Ack#7 3>2 Ack#7
            1 <2 Ack#7 (halted):
            3 <2 Ack#7:
            3 <2 Token#8:
            1 <3 Ack#7 (halted):
            2 <3 Ack#7:
            3 tick: 3>1 Token#8
            1 <3 Token#8 (halted):
            1 tick: 1>2 Token#8
            2 <1 Token#8: 2>3 Token#8
            3 <2 Token#8:
            1 resume: 1>2 Ack#7 1>3 Ack#7 !6f !7g
            2 <1 Ack#7: !7g
            3 <1 Ack#7: !7g
            1 halt
            2 submit h:
            2 halt
            3 halt
            2 submit i:
            1 apply_flush:
            2 apply_flush:
            1 install:
            2 install:
            1 tick: 1>2 Token#8
            3 tick: 3>1 Token#8
            2 <1 Token#8: 2>1 Ordered#8 2>1 Ack#8 2>1 Ordered#9 2>1 Ack#9 2>1 Token#10
            1 <3 Token#8:
            1 <2 Ordered#8: 1>2 Ack#8
            1 <2 Ack#8: !8h
            1 <2 Ordered#9: 1>2 Ack#9
            1 <2 Ack#9: !9i
            1 <2 Token#10:
            2 <1 Ack#8: !8h
            2 <1 Ack#9: !9i
            ",
        );
    }
}
