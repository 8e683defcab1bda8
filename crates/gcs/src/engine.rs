//! Total-order engines: fixed sequencer (ISIS-style) and rotating token
//! (Totem-style), both with **safe delivery** (stability).
//!
//! Both engines share a delivery core with three cursors:
//!
//! * `recv` — highest sequence number received contiguously;
//! * `stable` — highest sequence number known to be held by *every* view
//!   member (cumulative acks, all-to-all);
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
//! The engines only run *inside* an installed view; the view-change flush
//! in [`crate::group`] halts them, collects their digests (based on the
//! *received* prefix, a superset of what anyone delivered), reconciles,
//! and reinstalls them for the next view.

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
        EngineOut { sends: Vec::new(), deliver: Vec::new() }
    }
}

impl<P> EngineOut<P> {
    fn merge(&mut self, mut other: EngineOut<P>) {
        self.sends.append(&mut other.sends);
        self.deliver.append(&mut other.deliver);
    }
}

/// How stability information flows in the view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Stability {
    /// We collect everyone's acks and announce stability (sequencer).
    Collector,
    /// We ack to the collector and follow its announcements.
    Follower,
    /// Everyone acks everyone (token engine).
    AllToAll,
}

/// State shared by both engines.
#[derive(Clone, Debug, Hash)]
struct Core<P> {
    me: ProcId,
    stability: Stability,
    /// Follower mode: the collector's announced stability floor.
    stable_floor: u64,
    /// Current view members (sorted). Empty until first install.
    members: Vec<ProcId>,
    /// Next sequence number expected in the received-contiguous prefix.
    recv_cursor: u64,
    /// Next sequence number to deliver to the application.
    deliver_cursor: u64,
    /// Cumulative ack per peer: highest seq that peer holds contiguously.
    /// `BTreeMap` (not `HashMap`): snapshots and iteration of replica
    /// state must be deterministic across processes (detlint D001).
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

impl<P: Clone> Core<P> {
    fn new(me: ProcId) -> Self {
        Core {
            me,
            stability: Stability::AllToAll,
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

    fn others(&self) -> impl Iterator<Item = ProcId> + '_ {
        let me = self.me;
        self.members.iter().copied().filter(move |&p| p != me)
    }

    /// Highest contiguously received sequence number.
    fn recv_contig(&self) -> u64 {
        self.recv_cursor - 1
    }

    /// Highest stable sequence number: everyone in the view holds it.
    fn stable(&self) -> u64 {
        match self.stability {
            Stability::Collector | Stability::AllToAll => {
                let mut s = self.recv_contig();
                for p in self.members.iter().filter(|&&p| p != self.me) {
                    s = s.min(self.acks.get(p).copied().unwrap_or(0));
                }
                s
            }
            Stability::Follower => self.recv_contig().min(self.stable_floor),
        }
    }

    /// Record a stability announcement from the collector.
    fn on_stable(&mut self, up_to: u64) -> Vec<OrderedMsg<P>> {
        self.stable_floor = self.stable_floor.max(up_to);
        self.drain_stable()
    }

    /// Insert a known ordered message, advance the received prefix, and
    /// deliver anything that has become stable. Returns `(deliveries,
    /// recv_advanced)` — when the prefix advanced the caller multicasts a
    /// fresh cumulative ack.
    fn ingest(&mut self, m: OrderedMsg<P>) -> (Vec<OrderedMsg<P>>, bool) {
        if m.seq >= self.recv_cursor {
            self.log.entry(m.seq).or_insert(m);
        }
        let before = self.recv_cursor;
        while self.log.contains_key(&self.recv_cursor) {
            self.recv_cursor += 1;
        }
        (self.drain_stable(), self.recv_cursor != before)
    }

    /// Record a peer's cumulative ack; deliver anything newly stable.
    fn on_ack(&mut self, from: ProcId, up_to: u64) -> Vec<OrderedMsg<P>> {
        let e = self.acks.entry(from).or_insert(0);
        *e = (*e).max(up_to);
        self.drain_stable()
    }

    /// Deliver everything `<= min(recv, stable)`.
    fn drain_stable(&mut self) -> Vec<OrderedMsg<P>> {
        let limit = self.stable();
        let mut out = Vec::new();
        while self.deliver_cursor <= limit {
            // The stable prefix is received-contiguous, so the log must
            // hold it. If an invariant breach ever leaves a gap, stop
            // delivering and wait — the next flush reconciles the log —
            // rather than killing the replica on its hot path (P001).
            let Some(m) = self.log.get(&self.deliver_cursor).cloned() else {
                debug_assert!(false, "stable prefix missing from the log");
                break;
            };
            self.note_delivered(&m);
            self.deliver_cursor += 1;
            out.push(m);
        }
        out
    }

    /// Bookkeeping at delivery: advance the dedup floor and drop satisfied
    /// pendings of our own.
    fn note_delivered(&mut self, m: &OrderedMsg<P>) {
        let floor = self.dedup.entry(m.origin).or_insert(0);
        *floor = (*floor).max(m.local_id);
        let af = self.assign_floor.entry(m.origin).or_insert(0);
        *af = (*af).max(m.local_id);
        if m.origin == self.me {
            let lid = m.local_id;
            self.pending.retain(|(l, _)| *l != lid);
        }
    }

    /// Assigner-side duplicate check (covers ordered-but-undelivered).
    fn is_assigned(&self, origin: ProcId, local_id: u64) -> bool {
        self.assign_floor.get(&origin).copied().unwrap_or(0) >= local_id
            || self.dedup.get(&origin).copied().unwrap_or(0) >= local_id
    }

    fn note_assigned(&mut self, origin: ProcId, local_id: u64) {
        let af = self.assign_floor.entry(origin).or_insert(0);
        *af = (*af).max(local_id);
    }

    fn digest(&self, coord_known: u64) -> FlushDigest<P> {
        FlushDigest {
            max_contig: self.recv_contig(),
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

    /// Apply a reconciled flush batch: the agreed history is stable by
    /// agreement, so everything up to `next_seq - 1` is delivered.
    fn apply_flush(&mut self, msgs: &[OrderedMsg<P>], next_seq: u64) -> Vec<OrderedMsg<P>> {
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
        while self.deliver_cursor < next_seq {
            let Some(m) = self.log.get(&self.deliver_cursor).cloned() else {
                debug_assert!(false, "flush batch left a gap below next_seq");
                break;
            };
            self.note_delivered(&m);
            self.deliver_cursor += 1;
            out.push(m);
        }
        self.recv_cursor = self.recv_cursor.max(self.deliver_cursor);
        out
    }

    /// Joiner path: adopt the agreed history position without delivering
    /// any of it (the application receives a state snapshot instead).
    fn skip_to(&mut self, next_seq: u64) {
        self.log.clear();
        self.recv_cursor = next_seq;
        self.deliver_cursor = next_seq;
    }

    fn install(&mut self, members: Vec<ProcId>, next_seq: u64, dedup: &[(ProcId, u64)]) {
        self.members = members;
        self.recv_cursor = self.recv_cursor.max(next_seq);
        self.deliver_cursor = self.deliver_cursor.max(next_seq);
        self.stable_floor = next_seq - 1;
        self.acks.clear();
        for &p in &self.members {
            if p != self.me {
                self.acks.insert(p, next_seq - 1);
            }
        }
        for (p, l) in dedup {
            let floor = self.dedup.entry(*p).or_insert(0);
            *floor = (*floor).max(*l);
            let af = self.assign_floor.entry(*p).or_insert(0);
            *af = (*af).max(*l);
        }
        self.active = true;
    }

    fn prune(&mut self, stable_up_to: u64) {
        // Every tick comes through here, and `split_off` allocates a new
        // tree even when it drops nothing.
        if self.log.first_key_value().is_some_and(|(&seq, _)| seq <= stable_up_to) {
            self.log = self.log.split_off(&(stable_up_to + 1));
        }
    }

    /// Emit stability traffic for an advanced received prefix: followers
    /// ack the collector, all-to-all members ack everyone, the collector
    /// sends nothing here (it announces via `stable_sends`).
    fn ack_sends(&self) -> Vec<(ProcId, EngineMsg<P>)> {
        let up_to = self.recv_contig();
        match self.stability {
            Stability::Follower => {
                let collector = self.members.first().copied();
                collector
                    .filter(|&c| c != self.me)
                    .map(|c| vec![(c, EngineMsg::Ack { up_to })])
                    .unwrap_or_default()
            }
            Stability::AllToAll => self
                .others()
                .map(|p| (p, EngineMsg::Ack { up_to }))
                .collect(),
            Stability::Collector => vec![],
        }
    }

    /// Collector: announce stability to the followers.
    fn stable_sends(&self) -> Vec<(ProcId, EngineMsg<P>)> {
        let up_to = self.stable();
        self.others()
            .map(|p| (p, EngineMsg::Stable { up_to }))
            .collect()
    }
}

/// Fixed-sequencer engine: the view leader (rank 0) assigns sequence
/// numbers; everyone else sends it requests.
#[derive(Clone, Debug, Hash)]
pub struct SeqEngine<P> {
    core: Core<P>,
    /// Collector: stability advanced since the last announcement.
    stable_dirty: bool,
    /// Per-origin reorder buffer: requests that arrived before an earlier
    /// (lower local id) request from the same origin. Origins submit with
    /// gap-free local ids, so ordering strictly in local-id order keeps
    /// per-origin FIFO even when a request is lost and retried.
    waiting: BTreeMap<ProcId, BTreeMap<u64, P>>,
    /// When pendings were last (re)requested.
    last_request: SimTime,
    retry_every: SimDuration,
}

/// Rotating-token engine: a token carrying the next sequence number
/// circulates in rank order; the holder orders its pending submissions.
#[derive(Clone, Debug, Hash)]
pub struct TokenEngine<P> {
    core: Core<P>,
    /// `Some(next_seq)` while we hold the token.
    holding: Option<u64>,
    /// Highest token sequence ever observed; stale copies below this are
    /// discarded (defence in depth — the link layer already deduplicates).
    floor: u64,
    /// When to pass an idle token on.
    release_at: SimTime,
    idle_pass: SimDuration,
    /// Diagnostic: token hops observed.
    pub hops: u64,
}

/// The configured engine for one group member.
#[derive(Clone, Debug, Hash)]
pub enum Engine<P> {
    /// Fixed sequencer.
    Seq(SeqEngine<P>),
    /// Rotating token.
    Token(TokenEngine<P>),
}

impl<P: Clone> Engine<P> {
    /// Create an engine of the given kind for member `me`.
    pub fn new(kind: crate::config::EngineKind, me: ProcId, idle_pass: SimDuration) -> Self {
        Self::with_retry(kind, me, idle_pass, SimDuration::from_millis(100))
    }

    /// Create an engine with an explicit pending-request retry interval.
    pub fn with_retry(
        kind: crate::config::EngineKind,
        me: ProcId,
        idle_pass: SimDuration,
        retry_every: SimDuration,
    ) -> Self {
        match kind {
            crate::config::EngineKind::Sequencer => Engine::Seq(SeqEngine {
                core: Core::new(me),
                stable_dirty: false,
                waiting: BTreeMap::new(),
                last_request: SimTime::ZERO,
                retry_every,
            }),
            crate::config::EngineKind::Token => Engine::Token(TokenEngine {
                core: Core::new(me),
                holding: None,
                floor: 0,
                release_at: SimTime::ZERO,
                idle_pass,
                hops: 0,
            }),
        }
    }

    fn core(&self) -> &Core<P> {
        match self {
            Engine::Seq(e) => &e.core,
            Engine::Token(e) => &e.core,
        }
    }

    fn core_mut(&mut self) -> &mut Core<P> {
        match self {
            Engine::Seq(e) => &mut e.core,
            Engine::Token(e) => &mut e.core,
        }
    }

    /// Highest sequence number delivered to the application.
    pub fn delivered_up_to(&self) -> u64 {
        self.core().deliver_cursor - 1
    }

    /// Highest sequence number received contiguously (≥ delivered).
    pub fn received_up_to(&self) -> u64 {
        self.core().recv_contig()
    }

    /// Own submissions not yet delivered (survive view changes and are
    /// resubmitted after install).
    pub fn pending_count(&self) -> usize {
        self.core().pending.len()
    }

    /// Is the engine accepting traffic (not halted for a flush)?
    pub fn is_active(&self) -> bool {
        self.core().active
    }

    /// Forget a submitter's dedup/assignment floors. A fresh join episode
    /// rebuilds that member's engine from scratch (local ids restart at
    /// 1), so floors inherited from its previous life would silently
    /// swallow everything the new life submits.
    pub fn reset_submitter(&mut self, p: ProcId) {
        let core = self.core_mut();
        core.dedup.remove(&p);
        core.assign_floor.remove(&p);
    }

    /// Submit an application payload for total ordering.
    pub fn submit(&mut self, now: SimTime, payload: P) -> EngineOut<P> {
        let core = self.core_mut();
        let local_id = core.next_local_id;
        core.next_local_id += 1;
        core.pending.push_back((local_id, payload.clone()));
        if !core.active {
            // Queued; resubmitted after the next install.
            return EngineOut::default();
        }
        match self {
            Engine::Seq(e) => e.order_or_request(local_id, payload),
            Engine::Token(e) => e.order_if_holding(now),
        }
    }

    /// Handle an in-view engine message from `from`.
    pub fn on_msg(&mut self, now: SimTime, from: ProcId, msg: EngineMsg<P>) -> EngineOut<P> {
        if !self.core().active {
            // Halted for a (possibly aborted) flush: buffer, don't deliver.
            // If the flush concludes, `apply_flush` supersedes the buffer;
            // if it aborts, `resume` processes it.
            match msg {
                EngineMsg::Ordered(m) => {
                    let core = self.core_mut();
                    if m.seq >= core.recv_cursor {
                        core.log.entry(m.seq).or_insert(m);
                    }
                }
                EngineMsg::Ack { up_to } => {
                    let core = self.core_mut();
                    let e = core.acks.entry(from).or_insert(0);
                    *e = (*e).max(up_to);
                }
                EngineMsg::Stable { up_to } => {
                    let core = self.core_mut();
                    core.stable_floor = core.stable_floor.max(up_to);
                }
                EngineMsg::Token { next_seq, .. } => {
                    if let Engine::Token(e) = self {
                        // Keep the token so it is not lost across a
                        // transient halt; ordering waits for
                        // resume/install.
                        if next_seq >= e.floor && e.holding.is_none() {
                            e.floor = next_seq;
                            e.holding = Some(next_seq);
                        }
                    }
                }
                EngineMsg::Request { .. } => {}
            }
            return EngineOut::default();
        }
        match (self, msg) {
            (Engine::Seq(e), EngineMsg::Request { local_id, payload }) => {
                e.on_request(from, local_id, payload)
            }
            (Engine::Seq(e), EngineMsg::Ordered(m)) => e.core.ingest_and_ack(m),
            (Engine::Token(e), EngineMsg::Ordered(m)) => e.core.ingest_and_ack(m),
            (Engine::Seq(e), EngineMsg::Ack { up_to }) => {
                let before = e.core.stable();
                let deliver = e.core.on_ack(from, up_to);
                if e.core.stability == Stability::Collector && e.core.stable() > before {
                    // Batch the announcement: followers learn on the next
                    // engine tick (they don't sit on the reply fast path,
                    // which runs through the collector itself).
                    e.stable_dirty = true;
                }
                EngineOut { sends: vec![], deliver }
            }
            (Engine::Seq(e), EngineMsg::Stable { up_to }) => EngineOut {
                sends: vec![],
                deliver: e.core.on_stable(up_to),
            },
            (Engine::Token(e), EngineMsg::Ack { up_to }) => EngineOut {
                sends: vec![],
                deliver: e.core.on_ack(from, up_to),
            },
            (Engine::Token(e), EngineMsg::Token { next_seq, .. }) => e.on_token(now, next_seq),
            // Cross-engine messages indicate misconfiguration; drop each
            // combination by name so a new EngineMsg variant is a compile
            // error here rather than silently swallowed (F004).
            (Engine::Seq(_), EngineMsg::Token { .. })
            | (Engine::Token(_), EngineMsg::Request { .. })
            | (Engine::Token(_), EngineMsg::Stable { .. }) => EngineOut::default(),
        }
    }

    /// Periodic maintenance (token idle passing; pending-request retry).
    pub fn tick(&mut self, now: SimTime) -> EngineOut<P> {
        match self {
            Engine::Seq(e) => {
                let mut out = EngineOut::default();
                if e.core.active && e.stable_dirty {
                    e.stable_dirty = false;
                    out.sends = e.core.stable_sends();
                }
                // Re-request pendings that may have raced a view change
                // (e.g. sent to a sequencer that had not installed yet).
                if e.core.active
                    && !e.core.pending.is_empty()
                    && now.since(e.last_request) >= e.retry_every
                {
                    e.last_request = now;
                    for (local_id, payload) in e.core.pending.clone() {
                        if !e.core.is_assigned(e.core.me, local_id) {
                            out.merge(e.order_or_request(local_id, payload));
                        }
                    }
                }
                out
            }
            Engine::Token(e) => e.tick(now),
        }
    }

    /// Halt for a view change or pending flush: stop ordering and
    /// delivering. A held token is kept (the flush may be aborted and the
    /// token must not be lost); `install` re-seeds or clears it.
    pub fn halt(&mut self) {
        self.core_mut().active = false;
    }

    /// Resume in the *same* view after an aborted flush: process anything
    /// buffered while halted and resubmit own pendings.
    pub fn resume(&mut self, now: SimTime) -> EngineOut<P> {
        {
            let core = self.core_mut();
            core.active = true;
            while core.log.contains_key(&core.recv_cursor) {
                core.recv_cursor += 1;
            }
        }
        let mut out = EngineOut::default();
        {
            let core = self.core_mut();
            out.deliver = core.drain_stable();
            out.sends = core.ack_sends();
        }
        match self {
            Engine::Seq(e) => {
                if e.core.stability == Stability::Collector {
                    // Acks absorbed while halted advance stability without
                    // setting the dirty flag; re-announce on the next tick
                    // so followers waiting on `Stable` are not stranded.
                    e.stable_dirty = true;
                }
                for (local_id, payload) in e.core.pending.clone() {
                    if !e.core.is_assigned(e.core.me, local_id) {
                        out.merge(e.order_or_request(local_id, payload));
                    }
                }
            }
            Engine::Token(e) => {
                out.merge(e.order_if_holding(now));
            }
        }
        out
    }

    /// Produce this member's flush digest.
    pub fn digest(&self, coord_known: u64) -> FlushDigest<P> {
        self.core().digest(coord_known)
    }

    /// Apply the coordinator's reconciled batch; returns new deliveries.
    pub fn apply_flush(&mut self, msgs: &[OrderedMsg<P>], next_seq: u64) -> Vec<OrderedMsg<P>> {
        self.core_mut().apply_flush(msgs, next_seq)
    }

    /// Joiner path: adopt the history position without delivering.
    pub fn skip_to(&mut self, next_seq: u64) {
        self.core_mut().skip_to(next_seq);
    }

    /// Install a new view and resume. `leader` must be true exactly at the
    /// view's rank-0 member (it seeds the token / becomes sequencer).
    /// Resubmits pending own messages.
    pub fn install(
        &mut self,
        now: SimTime,
        members: Vec<ProcId>,
        next_seq: u64,
        dedup: &[(ProcId, u64)],
        leader: bool,
    ) -> EngineOut<P> {
        self.core_mut().install(members, next_seq, dedup);
        match self {
            Engine::Seq(e) => {
                e.core.stability =
                    if leader { Stability::Collector } else { Stability::Follower };
            }
            Engine::Token(e) => e.core.stability = Stability::AllToAll,
        }
        let mut out = EngineOut::default();
        match self {
            Engine::Seq(e) => {
                e.waiting.clear();
                // Resubmit pendings (duplicates are filtered by the
                // sequencer's assign floor).
                for (local_id, payload) in e.core.pending.clone() {
                    if !e.core.is_assigned(e.core.me, local_id) {
                        out.merge(e.order_or_request(local_id, payload));
                    }
                }
            }
            Engine::Token(e) => {
                e.floor = e.floor.max(next_seq);
                if leader {
                    e.holding = Some(next_seq);
                    e.release_at = now + e.idle_pass;
                    out.merge(e.order_if_holding(now));
                } else {
                    // Any token held across the flush belongs to the old
                    // view; the new leader seeds a fresh one.
                    e.holding = None;
                }
            }
        }
        out
    }

    /// Drop log entries at or below `stable_up_to` (known delivered by the
    /// whole view).
    pub fn prune(&mut self, stable_up_to: u64) {
        let cutoff = stable_up_to.min(self.delivered_up_to());
        self.core_mut().prune(cutoff);
    }

    /// Size of the retained ordered-message log (diagnostics / GC tests).
    pub fn log_len(&self) -> usize {
        self.core().log.len()
    }
}

impl<P: Clone + std::hash::Hash> Engine<P> {
    /// Deterministic fingerprint of the full ordering state (cursors,
    /// log, acks, dedup floors, pendings, engine-specific fields).
    /// Equal fingerprints mean the engines behave identically from here
    /// on — the model checker uses this for visited-set deduplication.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        jrs_sim::fingerprint(self)
    }
}

impl<P: Clone> Core<P> {
    /// Ingest an ordered message; if the received prefix advanced,
    /// multicast a fresh cumulative ack.
    fn ingest_and_ack(&mut self, m: OrderedMsg<P>) -> EngineOut<P> {
        let (deliver, advanced) = self.ingest(m);
        let sends = if advanced { self.ack_sends() } else { vec![] };
        EngineOut { sends, deliver }
    }
}

impl<P: Clone> SeqEngine<P> {
    /// Rank-0 member of the installed view; `None` before any install
    /// (submissions stay pending until one happens).
    fn sequencer(&self) -> Option<ProcId> {
        self.core.members.first().copied()
    }

    fn order_or_request(&mut self, local_id: u64, payload: P) -> EngineOut<P> {
        match self.sequencer() {
            Some(seq) if seq == self.core.me => self.order(self.core.me, local_id, payload),
            Some(seq) => EngineOut {
                sends: vec![(seq, EngineMsg::Request { local_id, payload })],
                deliver: vec![],
            },
            // No installed view yet: keep the submission pending; it is
            // resubmitted on the next install.
            None => EngineOut::default(),
        }
    }

    fn on_request(&mut self, from: ProcId, local_id: u64, payload: P) -> EngineOut<P> {
        if self.sequencer() != Some(self.core.me) {
            // Stale request routed to a former sequencer: the origin will
            // resubmit after the next install; drop.
            return EngineOut::default();
        }
        self.order(from, local_id, payload)
    }

    /// Assign the next sequence number (sequencer only). Requests are
    /// ordered strictly in per-origin local-id order: an out-of-order
    /// request (an earlier one was lost and will be retried) is buffered.
    fn order(&mut self, origin: ProcId, local_id: u64, payload: P) -> EngineOut<P> {
        if self.core.is_assigned(origin, local_id) {
            return EngineOut::default();
        }
        let expected = self.expected_local(origin);
        if local_id > expected {
            self.waiting.entry(origin).or_default().insert(local_id, payload);
            return EngineOut::default();
        }
        let mut out = self.order_now(origin, local_id, payload);
        // Drain any buffered successors that are now in order.
        loop {
            let next = self.expected_local(origin);
            let Some(buf) = self.waiting.get_mut(&origin) else { break };
            let Some(p) = buf.remove(&next) else { break };
            out.merge(self.order_now(origin, next, p));
        }
        out
    }

    /// Next local id this origin's stream expects.
    fn expected_local(&self, origin: ProcId) -> u64 {
        self.core
            .assign_floor
            .get(&origin)
            .copied()
            .unwrap_or(0)
            .max(self.core.dedup.get(&origin).copied().unwrap_or(0))
            + 1
    }

    fn order_now(&mut self, origin: ProcId, local_id: u64, payload: P) -> EngineOut<P> {
        if self.core.is_assigned(origin, local_id) {
            return EngineOut::default();
        }
        // Next seq = highest known + 1 (log holds everything undelivered).
        let next = self
            .core
            .log
            .keys()
            .next_back()
            .map(|&s| s + 1)
            .unwrap_or(self.core.recv_cursor)
            .max(self.core.recv_cursor);
        self.core.note_assigned(origin, local_id);
        let m = OrderedMsg { seq: next, origin, local_id, payload };
        let mut out = EngineOut {
            sends: self
                .core
                .others()
                .map(|p| (p, EngineMsg::Ordered(m.clone())))
                .collect(),
            deliver: vec![],
        };
        out.merge(self.core.ingest_and_ack(m));
        out
    }
}

impl<P: Clone> TokenEngine<P> {
    /// Next member in rank order after us; `None` if we are not in the
    /// installed view (e.g. mid-ejection) — the token is then held
    /// rather than sent into the void.
    fn successor(&self) -> Option<ProcId> {
        let me = self.core.me;
        let idx = self.core.members.iter().position(|&p| p == me)?;
        Some(self.core.members[(idx + 1) % self.core.members.len()])
    }

    fn on_token(&mut self, now: SimTime, next_seq: u64) -> EngineOut<P> {
        // Token seq can only move forward; a stale duplicate is discarded.
        // (Equal is legitimate: an idle token circulates unchanged.)
        if next_seq < self.floor || self.holding.is_some() {
            return EngineOut::default();
        }
        self.hops += 1;
        self.floor = next_seq;
        self.holding = Some(next_seq);
        self.release_at = now + self.idle_pass;
        self.order_if_holding(now)
    }

    /// Order all pendings if we hold the token, then pass it when work was
    /// done (idle tokens are held until `release_at` to limit chatter).
    fn order_if_holding(&mut self, _now: SimTime) -> EngineOut<P> {
        let Some(mut next_seq) = self.holding else {
            return EngineOut::default();
        };
        if self.core.pending.is_empty() {
            return EngineOut::default();
        }
        let mut out = EngineOut::default();
        for (local_id, payload) in self.core.pending.clone() {
            if self.core.is_assigned(self.core.me, local_id) {
                continue;
            }
            self.core.note_assigned(self.core.me, local_id);
            let m = OrderedMsg {
                seq: next_seq,
                origin: self.core.me,
                local_id,
                payload,
            };
            next_seq += 1;
            for p in self.core.others() {
                out.sends.push((p, EngineMsg::Ordered(m.clone())));
            }
            out.merge(self.core.ingest_and_ack(m));
        }
        self.holding = Some(next_seq);
        self.floor = self.floor.max(next_seq);
        // Pass the token on immediately after doing work.
        out.merge(self.pass_token());
        out
    }

    fn pass_token(&mut self) -> EngineOut<P> {
        let Some(next_seq) = self.holding.take() else {
            return EngineOut::default();
        };
        if self.core.members.len() <= 1 {
            // Sole member keeps the token.
            self.holding = Some(next_seq);
            return EngineOut::default();
        }
        let Some(succ) = self.successor() else {
            // Not in the installed view: keep the token; the next
            // install either reseats us or seeds a fresh token.
            self.holding = Some(next_seq);
            return EngineOut::default();
        };
        EngineOut {
            sends: vec![(succ, EngineMsg::Token { next_seq, idle_hops: 0 })],
            deliver: vec![],
        }
    }

    fn tick(&mut self, now: SimTime) -> EngineOut<P> {
        if self.holding.is_some() && now >= self.release_at {
            self.pass_token()
        } else {
            EngineOut::default()
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
        let mut e = Engine::new(kind, p(me), SimDuration::from_millis(5));
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
        assert!(s_out.deliver.is_empty(), "collector needs the follower's ack");
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
        let out1 = seq.on_msg(T0, p(2), EngineMsg::Request { local_id: 1, payload: "x" });
        assert!(out1.sends.iter().any(|(_, m)| matches!(m, EngineMsg::Ordered(_))));
        // Duplicate before delivery (assign floor catches it).
        let out2 = seq.on_msg(T0, p(2), EngineMsg::Request { local_id: 1, payload: "x" });
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
        let m1 = OrderedMsg { seq: 1, origin: p(1), local_id: 1, payload: "a" };
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
        let m1 = OrderedMsg { seq: 1, origin: p(1), local_id: 1, payload: "a" };
        let _ = e.on_msg(T0, p(1), EngineMsg::Ordered(m1.clone()));
        let m2 = OrderedMsg { seq: 2, origin: p(1), local_id: 2, payload: "b" };
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
        let m1 = OrderedMsg { seq: 1, origin: p(1), local_id: 1, payload: "a" };
        let out = e.on_msg(T0, p(1), EngineMsg::Ordered(m1));
        assert!(out.deliver.is_empty());
        let out = e.on_msg(T0, p(1), EngineMsg::Stable { up_to: 1 });
        assert!(out.deliver.is_empty(), "halted: no delivery");
        let out = e.resume(T0);
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
        let out = b.on_msg(T0, p(1), EngineMsg::Token { next_seq: 1, idle_hops: 0 });
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
        assert!(matches!(out.sends[0].1, EngineMsg::Token { next_seq: 1, .. }));
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
        let _ = a.on_msg(T0, p(1), EngineMsg::Token { next_seq: 1, idle_hops: 0 });
        let mut sub = a.submit(T0, "x");
        assert!(sub.deliver.is_empty());
        let _ = sub.sends.drain(..);
        // A stale duplicate of the old token arrives: ignored (our floor
        // is now 2, so a double grant at seq 1 is impossible).
        let out = a.on_msg(T0, p(1), EngineMsg::Token { next_seq: 1, idle_hops: 0 });
        assert!(out.deliver.is_empty() && out.sends.is_empty());
        let out = a.submit(T0, "y");
        assert!(out.deliver.is_empty() && out.sends.is_empty());
        // The live token returns with the seq we passed on: accepted, and
        // "y" is ordered at seq 2.
        let out = a.on_msg(T0, p(1), EngineMsg::Token { next_seq: 2, idle_hops: 0 });
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
        let m1 = OrderedMsg { seq: 1, origin: p(1), local_id: 1, payload: "a" };
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
                let out = self.engine(i).install(now, mem.clone(), next_seq, dedup, i == members[0]);
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
            let out = self.engine(i).resume(now);
            self.absorb(i, "resume", out);
        }

        /// Deliver everything in flight, in FIFO order.
        fn pump(&mut self) {
            while let Some((from, to, m)) = self.queue.pop_front() {
                let halted = if self.engine(to.0).is_active() { "" } else { " (halted)" };
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
                if who
                    .iter()
                    .all(|&i| self.engine(i).pending_count() == 0 && self.engine(i).delivered_up_to() == first)
                {
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
            let digests: Vec<FlushDigest<&'static str>> =
                survivors.iter().map(|&i| self.engine(i).digest(known)).collect();
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
                self.absorb(i, "apply_flush", EngineOut { sends: vec![], deliver });
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
        let want: Vec<&str> = want.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
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
