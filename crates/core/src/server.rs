//! The JOSHUA head-node daemon: symmetric active/active replication of an
//! unmodified PBS server via external interception of the PBS interface.
//!
//! Each head node runs one [`JoshuaServer`] process embedding
//!
//! * a [`GroupHost`] (the Transis stand-in and its sim embedding) for
//!   totally ordered, virtually synchronous delivery among the active
//!   heads, and
//! * an unmodified [`PbsServerCore`] (the TORQUE stand-in) driven purely
//!   through its public command interface.
//!
//! Like the paper's daemon on Transis, this file is application logic
//! only: it submits payloads and reacts to ordered upcalls. Sending,
//! tick arming, frame dispatch and the per-frame CPU cost live in the
//! group layer; the cost table arrives in `JoshuaConfig::group`. The
//! JOSHUA layer's own costs are [`JoshuaCostModel::PAPER`].
//!
//! ## Data paths
//!
//! * **User commands** (jsub/jdel/jstat/...) arrive as
//!   [`ClientRequest`]s, are broadcast through the group
//!   ([`Payload::Client`]), applied by *every* replica on delivery, and
//!   answered exactly once: the delivery of a second ordered message
//!   ([`Payload::Output`]) releases the cached reply at the current
//!   responder (the lowest-ranked established member) — the paper's
//!   "output routed through the group communication system for
//!   distributed mutual exclusion".
//! * **Job starts** are dispatched by every replica to the mom, whose
//!   launch prologue requests the **jmutex** through the dispatching
//!   head ([`Payload::JMutexAcquire`]); the first acquire in the total
//!   order wins, so the job runs exactly once and the other attempts are
//!   emulated.
//! * **Obituaries** from moms are lifted into the total order
//!   ([`Payload::MomFinished`]) so replicas and joiners converge.
//! * **Joins** (new or replacement heads, and ejected members rejoining)
//!   receive a state snapshot ordered in-stream ([`Payload::Snapshot`])
//!   and replay everything ordered after it — the paper's "copying the
//!   current state of an active service over to the joining head node".

use crate::config::{JoshuaConfig, JoshuaCostModel};
use crate::payload::{self, JMutexOutcome, Payload, ReplicaState};
use crate::persist::{HeadStore, Recovered};
use crate::replica::{Applied, Replica};
use jrs_gcs::simharness::GroupHost;
use jrs_gcs::{GcsEvent, View};
use jrs_pbs::proc::{dispatch, ArbiterRelease, ArbiterRequest, ClientReply, ClientRequest};
use jrs_pbs::server::{MomReport, PbsServerCore, ServerAction};
use jrs_pbs::{JobId, JobState, MomInbound};
use jrs_sim::{Ctx, Msg, ProcId, Process, SimDuration, SimTime, TimerId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Control message: gracefully leave the group and shut down (the paper's
/// voluntary head-node leave, handled as a forced failure via signal).
#[derive(Clone, Copy, Debug)]
pub struct LeaveCmd;

/// Counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoshuaStats {
    /// Client commands this head broadcast into the group.
    pub commands_forwarded: u64,
    /// Ordered payloads applied.
    pub payloads_applied: u64,
    /// Replies this head released to clients.
    pub replies_sent: u64,
    /// jmutex grants decided here (as granter).
    pub jmutex_granted: u64,
    /// jmutex denials decided here (as granter).
    pub jmutex_denied: u64,
    /// Snapshots donated.
    pub snapshots_sent: u64,
    /// Snapshots received and installed.
    pub snapshots_installed: u64,
    /// Delta catch-ups donated to recovered joiners.
    pub catch_ups_sent: u64,
    /// Delta catch-ups received and applied.
    pub catch_ups_applied: u64,
    /// Commands appended (and fsynced) to the local WAL.
    pub wal_records: u64,
    /// Full-state snapshots written to the local disk.
    pub snapshots_written: u64,
}

/// How far this replica is from participating in the replicated state.
enum SyncMode {
    /// Full participant: applies every ordered payload on delivery.
    Established,
    /// Joiner awaiting state transfer (snapshot or delta); ordered
    /// payloads are buffered for replay after installation.
    AwaitState(Vec<(u64, Payload)>),
    /// Cold restart after a total-cluster blackout: an initial member
    /// holding recovered local state, buffering ordered payloads until
    /// every member's recovery announcement is in and the group has
    /// agreed whose state is most advanced.
    Reconciling(Vec<(u64, Payload)>),
}

/// A payload waiting on a timer, keyed by its tag.
enum Deferred {
    /// Broadcast once a modelled CPU cost (interception, PBS command
    /// processing) has elapsed.
    Broadcast(Payload),
    /// Witness duty for an obituary: re-broadcast it after a grace period
    /// unless the job completed in the meantime.
    Witness { job: JobId, exit: i32, mom: ProcId },
}

/// Forensics from the durable-state recovery pass, for tests and traces.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Applied-command index restored from snapshot + WAL replay.
    pub recovered_index: u64,
    /// WAL commands replayed on top of the snapshot.
    pub wal_replayed: usize,
    /// A torn WAL tail was truncated to the last valid record.
    pub torn_tail_truncated: bool,
    /// Mid-log corruption at this byte offset; the WAL was quarantined
    /// and only the snapshot was trusted.
    pub corruption_offset: Option<u64>,
    /// Replica fingerprint right after snapshot + WAL replay, before any
    /// live traffic: with an undamaged disk this is bit-identical to the
    /// fingerprint of the life that crashed.
    pub recovered_fingerprint: u64,
}

/// The JOSHUA daemon. See module docs.
pub struct JoshuaServer {
    config: JoshuaConfig,
    group: GroupHost<Payload>,
    /// The replicated state machine; only ordered commands and state
    /// transfers change it.
    replica: Replica,
    /// Joiners that still need a snapshot (replicated bookkeeping).
    needs_snapshot: BTreeSet<ProcId>,
    /// Members of the current view that joined with it (not yet
    /// established; excluded from responder duty).
    joined_current: BTreeSet<ProcId>,
    /// Synchronisation state (established / awaiting transfer / cold
    /// reconciliation).
    sync: SyncMode,
    /// Sequence number of the last ordered payload applied.
    last_applied_seq: u64,
    /// Recent applied commands for delta donation to recovered joiners.
    ring: VecDeque<(u64, Payload)>,
    /// Unresolved recovery announcements `member → (index, fingerprint)`
    /// (replicated bookkeeping, mirrored into donated state).
    hellos: BTreeMap<ProcId, (u64, u64)>,
    /// Durable storage, when persistence is enabled.
    store: Option<HeadStore>,
    /// True while replaying recovered/donated history: suppresses the
    /// externally visible side effects (mom dispatch, output release,
    /// verdicts) that the pre-crash life already performed.
    replaying: bool,
    /// After a recovery, re-drive mom dispatch once established.
    resync_pending: bool,
    /// Last incarnation written to the meta file (persist on change).
    persisted_incarnation: u64,
    /// What recovery found (None until `on_start`, or without a store).
    recovery: Option<RecoveryReport>,
    /// Payloads waiting on a timer, keyed by timer tag.
    deferred: BTreeMap<u64, Deferred>,
    next_tag: u64,
    stats: JoshuaStats,
}

impl JoshuaServer {
    /// Create a daemon. `initial_heads` is the static bootstrap member
    /// list (all initial heads configured identically); a process not in
    /// the list joins through them instead.
    pub(crate) fn new(me: ProcId, config: JoshuaConfig, initial_heads: Vec<ProcId>) -> Self {
        let group = GroupHost::new(me, config.group.clone(), initial_heads.clone());
        let replica = Replica::new(PbsServerCore::with_moms(&config.nodes));
        let store = config.persist.enabled.then(HeadStore::new);
        // With a durable store, even an initial member defers establishment
        // to `on_start` recovery + reconciliation (it may hold state from a
        // previous life, and so may its peers). Diskless initial members
        // are established immediately, as in the paper.
        let sync = if !initial_heads.contains(&me) {
            SyncMode::AwaitState(Vec::new())
        } else if store.is_some() {
            SyncMode::Reconciling(Vec::new())
        } else {
            SyncMode::Established
        };
        JoshuaServer {
            config,
            group,
            replica,
            needs_snapshot: BTreeSet::new(),
            joined_current: BTreeSet::new(),
            sync,
            last_applied_seq: 0,
            ring: VecDeque::new(),
            hellos: BTreeMap::new(),
            store,
            replaying: false,
            resync_pending: false,
            persisted_incarnation: 0,
            recovery: None,
            deferred: BTreeMap::new(),
            next_tag: 1,
            stats: JoshuaStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection (tests, experiments)
    // ------------------------------------------------------------------

    /// The embedded PBS server.
    pub fn pbs(&self) -> &PbsServerCore {
        self.replica.pbs()
    }

    /// The group membership view.
    pub fn view(&self) -> &View {
        self.group.member().view()
    }

    /// Counters.
    pub fn stats(&self) -> JoshuaStats {
        self.stats
    }

    /// Group-layer counters.
    pub fn group_stats(&self) -> jrs_gcs::GroupStats {
        self.group.member().stats()
    }

    /// Is this head fully established (installed and state-transferred)?
    pub fn is_established(&self) -> bool {
        self.group.member().is_installed() && matches!(self.sync, SyncMode::Established)
    }

    /// Commands applied since genesis (monotonic across restarts).
    pub fn applied_index(&self) -> u64 {
        self.replica.applied_index()
    }

    /// Deterministic fingerprint of the replicated state. Equal on every
    /// established replica at quiescence; recovery announcements carry it
    /// so equal indices can be cross-checked.
    pub fn state_fingerprint(&self) -> u64 {
        self.replica.fingerprint()
    }

    /// What the durable-state recovery pass found (None before `on_start`
    /// or when persistence is disabled).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// The member responsible for client-visible output in the current view.
    fn responder(&self) -> Option<ProcId> {
        payload::responder(&self.view().members, &self.joined_current)
    }

    fn is_responder(&self) -> bool {
        self.responder() == Some(self.group.member().me())
    }

    /// Handle the upcalls of one group call, in order.
    fn on_group(&mut self, ctx: &mut Ctx<'_>, mut events: Vec<GcsEvent<Payload>>) {
        for ev in events.drain(..) {
            self.on_gcs_event(ctx, ev);
        }
        self.group.recycle(events);
        // Persist the group incarnation whenever it advances, so a future
        // restart rejoins with one the survivors will not ignore.
        let inc = self.group.member().incarnation();
        if inc != self.persisted_incarnation {
            if let Some(store) = &self.store {
                let now = ctx.now();
                store.save_incarnation(ctx.disk_mut(), now, inc);
            }
            self.persisted_incarnation = inc;
        }
    }

    fn broadcast(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let events = self.group.broadcast(ctx, payload);
        self.on_group(ctx, events);
    }

    /// Broadcast `payload` after a modelled CPU delay (the work that
    /// produces it). Keeps cost serialization correct even for the
    /// single-head case where self-delivery is synchronous.
    fn defer_broadcast(&mut self, ctx: &mut Ctx<'_>, payload: Payload, delay: SimDuration) {
        self.defer(ctx, Deferred::Broadcast(payload), delay);
    }

    /// Park `entry` until a timer `delay` from now fires.
    fn defer(&mut self, ctx: &mut Ctx<'_>, entry: Deferred, delay: SimDuration) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.deferred.insert(tag, entry);
        ctx.set_timer(delay, tag);
    }

    fn on_gcs_event(&mut self, ctx: &mut Ctx<'_>, ev: GcsEvent<Payload>) {
        match ev {
            GcsEvent::Deliver { seq, payload, .. } => {
                match &mut self.sync {
                    SyncMode::Established => {}
                    SyncMode::AwaitState(buf) | SyncMode::Reconciling(buf) => {
                        // Not yet established: buffer everything except
                        // the synchronisation control traffic itself —
                        // state transfers addressed to us, and recovery
                        // announcements (which drive reconciliation).
                        let me = ctx.me();
                        let is_control = match &payload {
                            Payload::Snapshot { targets, .. }
                            | Payload::CatchUp { targets, .. } => targets.contains(&me),
                            Payload::Hello { .. } => true,
                            // Every other payload is ordinary command
                            // traffic; name them so a future control
                            // variant must be classified here (`clippy::wildcard_enum_match_arm`).
                            Payload::Client { .. }
                            | Payload::Output { .. }
                            | Payload::MomFinished { .. }
                            | Payload::JMutexAcquire { .. }
                            | Payload::JMutexRelease { .. } => false,
                        };
                        if !is_control {
                            buf.push((seq, payload));
                            return;
                        }
                    }
                }
                self.apply(ctx, seq, payload);
            }
            GcsEvent::ViewChange { view, joined, left } => {
                self.on_view_change(ctx, view, joined, left);
            }
            GcsEvent::Ejected => self.on_ejected(),
        }
    }

    // ------------------------------------------------------------------
    // Ordered payload application
    // ------------------------------------------------------------------

    fn apply(&mut self, ctx: &mut Ctx<'_>, seq: u64, payload: Payload) {
        self.stats.payloads_applied += 1;
        self.last_applied_seq = seq;
        match payload {
            p @ (Payload::Client { .. }
            | Payload::MomFinished { .. }
            | Payload::JMutexAcquire { .. }
            | Payload::JMutexRelease { .. }) => {
                // The four state-machine commands: numbered, logged,
                // applied. Everything else is control traffic and is
                // neither counted nor persisted.
                self.apply_command(ctx, p, true);
            }
            Payload::Hello {
                member,
                applied_index,
                fingerprint,
            } => {
                self.on_hello(ctx, member, applied_index, fingerprint);
            }
            Payload::CatchUp {
                targets,
                as_of_seq,
                entries,
            } => {
                self.on_catch_up(ctx, targets, as_of_seq, entries);
            }
            Payload::Output { client, req_id } => {
                if self.is_responder() {
                    if let Some(reply) = self.replica.cached_reply(client, req_id) {
                        let reply = reply.clone();
                        self.stats.replies_sent += 1;
                        ctx.send_after(
                            client,
                            ClientReply { req_id, reply },
                            JoshuaCostModel::PAPER.intercept_overhead,
                        );
                    }
                }
            }
            Payload::Snapshot {
                targets,
                as_of_seq,
                state,
            } => {
                // An already-established target must not rewind to an
                // older snapshot (possible when two donors overlapped).
                if targets.contains(&ctx.me()) && !matches!(self.sync, SyncMode::Established) {
                    self.install_snapshot(ctx, as_of_seq, *state);
                }
                self.transfer_done(&targets);
            }
        }
    }

    /// Apply one of the four replicated state-machine commands: number it,
    /// persist it to the WAL (fsynced before any effect escapes), run the
    /// state transition and its effects, then remember it for delta
    /// donation. `log` is false only when replaying records that are
    /// already in the WAL.
    fn apply_command(&mut self, ctx: &mut Ctx<'_>, payload: Payload, log: bool) {
        let idx = self.replica.applied_index() + 1;
        if log {
            if let Some(store) = &self.store {
                let now = ctx.now();
                if store.log_command(ctx.disk_mut(), now, idx, &payload) {
                    self.stats.wal_records += 1;
                }
            }
        }
        match self.replica.apply(ctx.now(), &payload) {
            Applied::Ran {
                client,
                req_id,
                cmd,
                actions,
            } => {
                let cost = JoshuaCostModel::PAPER.pbs.cost_of(cmd);
                self.dispatch(ctx, actions, cost);
                if self.is_responder() && !self.replaying {
                    // Second ordering round, once the PBS server has
                    // produced the output: agree on its release.
                    self.defer_broadcast(ctx, Payload::Output { client, req_id }, cost);
                }
            }
            Applied::Retried { client, req_id } => {
                // The client retried through another head: re-release the
                // cached output.
                if self.is_responder() && !self.replaying {
                    let delay = JoshuaCostModel::PAPER.intercept_overhead;
                    self.defer_broadcast(ctx, Payload::Output { client, req_id }, delay);
                }
            }
            Applied::Finished(actions) => self.dispatch(ctx, actions, SimDuration::ZERO),
            Applied::Decided {
                job,
                mom,
                session,
                granter,
                outcome,
            } => {
                let sender =
                    payload::verdict_sender(&self.view().members, granter, self.responder());
                if sender == ctx.me() && !self.replaying {
                    let granted = outcome == JMutexOutcome::Granted;
                    if granted {
                        self.stats.jmutex_granted += 1;
                    } else {
                        self.stats.jmutex_denied += 1;
                    }
                    ctx.send(
                        mom,
                        MomInbound::Verdict {
                            job,
                            session,
                            granted,
                        },
                    );
                }
            }
            Applied::Quiet => {}
        }
        self.remember(idx, payload);
        if log {
            self.maybe_snapshot(ctx, idx);
        }
    }

    /// Keep a command in the bounded donation ring.
    fn remember(&mut self, idx: u64, payload: Payload) {
        /// How many recent commands a head keeps for delta donation; a
        /// recovered joiner further behind gets a full snapshot instead.
        const RING_CAPACITY: usize = 256;
        self.ring.push_back((idx, payload));
        while self.ring.len() > RING_CAPACITY {
            self.ring.pop_front();
        }
    }

    /// Write a periodic full-state snapshot (bounds WAL replay time).
    fn maybe_snapshot(&mut self, ctx: &mut Ctx<'_>, idx: u64) {
        let every = self.config.persist.snapshot_every;
        if every != 0 && idx.is_multiple_of(every) {
            self.write_snapshot(ctx);
        }
    }

    /// Write the full state as of `applied_index` to the local disk (a
    /// no-op when diskless).
    fn write_snapshot(&mut self, ctx: &mut Ctx<'_>) {
        let Some(store) = &self.store else { return };
        let state = self.replica.state(&self.needs_snapshot, &self.hellos);
        let now = ctx.now();
        if store.save_snapshot(ctx.disk_mut(), now, state.applied_index, &state) {
            self.stats.snapshots_written += 1;
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, actions: Vec<ServerAction>, delay: SimDuration) {
        // During recovery replay the pre-crash life already dispatched
        // these (and what it did not, `resync` re-drives once established).
        if !self.replaying {
            let me = ctx.me();
            dispatch(
                ctx,
                actions,
                Some(me),
                delay + JoshuaCostModel::PAPER.pbs.dispatch_processing,
            );
        }
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    fn on_view_change(
        &mut self,
        ctx: &mut Ctx<'_>,
        view: View,
        joined: Vec<ProcId>,
        left: Vec<ProcId>,
    ) {
        self.joined_current = joined.iter().copied().collect();
        for j in &joined {
            // A (re)joiner announces itself afresh below; any announcement
            // recorded under its id belongs to a previous life.
            self.hellos.remove(j);
            if *j != ctx.me() {
                self.needs_snapshot.insert(*j);
            }
        }
        for l in &left {
            self.hellos.remove(l);
        }
        if joined.contains(&ctx.me()) {
            // We are the (re)joiner: await state, then announce what our
            // disk vouched for (index 0 when diskless or empty) so the
            // donor can ship a delta instead of a full snapshot.
            if matches!(self.sync, SyncMode::Established) {
                self.sync = SyncMode::AwaitState(Vec::new());
            }
            self.register_with_moms(ctx);
            self.announce(ctx);
            return;
        }
        if matches!(self.sync, SyncMode::Reconciling(_)) {
            // A cold-restart participant died mid-reconciliation (possibly
            // the chosen reference): re-resolve over the shrunken view.
            self.try_resolve(ctx);
            return;
        }
        if !self.is_responder() || !matches!(self.sync, SyncMode::Established) {
            return;
        }
        // Verdict redelivery: outstanding launch grants whose granter
        // left can never reach their mom — the responder re-sends them.
        // Idempotent at the mom (a running/done job ignores late grants).
        for (job, g) in self.replica.jmutex().orphaned_grants(&view.members) {
            ctx.send(
                g.mom,
                MomInbound::Verdict {
                    job,
                    session: g.session,
                    granted: true,
                },
            );
        }
        // Donor duty is announcement-triggered (`on_hello`); the view
        // change only re-donates to joiners whose announcement was already
        // ordered but whose donor died before the donation was (otherwise
        // they would wait forever).
        let orphans: Vec<ProcId> = self
            .needs_snapshot
            .iter()
            .copied()
            .filter(|t| self.hellos.contains_key(t))
            .collect();
        if !orphans.is_empty() {
            self.donate(ctx, orphans);
        }
    }

    /// Register with the moms for obituaries.
    fn register_with_moms(&self, ctx: &mut Ctx<'_>) {
        for (_, mom) in &self.config.nodes {
            ctx.send(*mom, MomInbound::RegisterServer { server: ctx.me() });
        }
    }

    /// Announce what the local disk vouched for (index 0 when diskless or
    /// empty), so the group can pick a reference state or a donor can
    /// ship a delta instead of a full snapshot.
    fn announce(&mut self, ctx: &mut Ctx<'_>) {
        let hello = Payload::Hello {
            member: ctx.me(),
            applied_index: self.replica.applied_index(),
            fingerprint: self.state_fingerprint(),
        };
        self.broadcast(ctx, hello);
    }

    /// A recovery announcement was ordered: record it and either advance
    /// cold-restart reconciliation or (when established and on donor duty)
    /// ship the joiner the state it is missing.
    fn on_hello(
        &mut self,
        ctx: &mut Ctx<'_>,
        member: ProcId,
        applied_index: u64,
        fingerprint: u64,
    ) {
        self.hellos.insert(member, (applied_index, fingerprint));
        match self.sync {
            SyncMode::Reconciling(_) => self.try_resolve(ctx),
            SyncMode::Established => {
                if member != ctx.me()
                    && self.is_responder()
                    && self.needs_snapshot.contains(&member)
                {
                    self.donate(ctx, vec![member]);
                }
            }
            SyncMode::AwaitState(_) => {}
        }
    }

    /// Cold-restart reconciliation: once every member of the view has
    /// announced its recovered index, agree (deterministically, at every
    /// replica) whose state is the reference. Members matching it resume;
    /// the reference donates the laggards their missing delta.
    fn try_resolve(&mut self, ctx: &mut Ctx<'_>) {
        if !self.group.member().is_installed() {
            return;
        }
        let members = self.view().members.clone();
        if members.is_empty() || !members.iter().all(|m| self.hellos.contains_key(m)) {
            return;
        }
        // Reference: the most advanced announced index; the membership
        // list is identical at every replica, so first-wins is a
        // deterministic tie break.
        let mut ref_member = members[0];
        let mut ref_idx = 0u64;
        let mut ref_fp = 0u64;
        let mut first = true;
        for m in &members {
            let (i, f) = self.hellos[m];
            if first || i > ref_idx {
                ref_member = *m;
                ref_idx = i;
                ref_fp = f;
                first = false;
            }
        }
        let resolution_seq = self.last_applied_seq;
        let matches_ref = |(i, f): (u64, u64)| i == ref_idx && f == ref_fp;
        let laggards: Vec<ProcId> = members
            .iter()
            .copied()
            .filter(|m| !matches_ref(self.hellos[m]))
            .collect();
        let me_matches = matches_ref(self.hellos[&ctx.me()]);
        for m in &members {
            if matches_ref(self.hellos[m]) {
                self.hellos.remove(m);
            }
        }
        for l in &laggards {
            self.needs_snapshot.insert(*l);
        }
        if me_matches {
            self.establish(ctx, resolution_seq);
        }
        if !laggards.is_empty() && ref_member == ctx.me() {
            self.donate(ctx, laggards);
        }
    }

    /// Ship state to `targets` (all of which have announced an index via
    /// [`Payload::Hello`]): a delta of recent commands when the donation
    /// ring still covers the most lagging target, else a full snapshot.
    fn donate(&mut self, ctx: &mut Ctx<'_>, targets: Vec<ProcId>) {
        let as_of_seq = self.last_applied_seq;
        let index = self.replica.applied_index();
        let min_idx = targets
            .iter()
            .filter_map(|t| self.hellos.get(t).map(|(i, _)| *i))
            .min()
            .unwrap_or(0);
        // A fresh joiner (index 0, no recovered state) always gets the full
        // snapshot — replaying the whole history as a delta would be both
        // slower and indistinguishable from state divergence.
        let delta_ok = min_idx > 0
            && targets.iter().all(|t| match self.hellos.get(t) {
                // A target at our own index must also match our state
                // (divergence at equal index needs the full overwrite).
                Some((i, f)) => *i < index || (*i == index && *f == self.state_fingerprint()),
                None => false,
            })
            && (min_idx == index || self.ring.front().is_some_and(|(i, _)| *i <= min_idx + 1));
        if delta_ok {
            let entries: Vec<(u64, Payload)> = self
                .ring
                .iter()
                .filter(|(i, _)| *i > min_idx)
                .cloned()
                .collect();
            self.stats.catch_ups_sent += 1;
            self.broadcast(
                ctx,
                Payload::CatchUp {
                    targets,
                    as_of_seq,
                    entries,
                },
            );
        } else {
            let state = self.replica.state(&self.needs_snapshot, &self.hellos);
            self.stats.snapshots_sent += 1;
            self.broadcast(
                ctx,
                Payload::Snapshot {
                    targets,
                    as_of_seq,
                    state: Box::new(state),
                },
            );
        }
    }

    /// A delta donation was ordered. Targets replay the entries their
    /// recovered state is missing (side effects suppressed — the donor
    /// replicas performed them live) and resume; every replica clears the
    /// targets' transfer bookkeeping.
    fn on_catch_up(
        &mut self,
        ctx: &mut Ctx<'_>,
        targets: Vec<ProcId>,
        as_of_seq: u64,
        entries: Vec<(u64, Payload)>,
    ) {
        if targets.contains(&ctx.me()) && !matches!(self.sync, SyncMode::Established) {
            self.stats.catch_ups_applied += 1;
            self.replaying = true;
            for (idx, payload) in entries {
                if idx == self.replica.applied_index() + 1 {
                    self.apply_command(ctx, payload, true);
                }
            }
            self.replaying = false;
            self.establish(ctx, as_of_seq);
        }
        self.transfer_done(&targets);
    }

    /// A state transfer was ordered: every replica (target or not) clears
    /// the targets' transfer bookkeeping.
    fn transfer_done(&mut self, targets: &[ProcId]) {
        for t in targets {
            self.needs_snapshot.remove(t);
            self.joined_current.remove(t);
            self.hellos.remove(t);
        }
    }

    fn install_snapshot(&mut self, ctx: &mut Ctx<'_>, as_of_seq: u64, state: ReplicaState) {
        self.stats.snapshots_installed += 1;
        let (needs_snapshot, hellos) = self.replica.install(state);
        self.needs_snapshot = needs_snapshot.into_iter().collect();
        self.hellos = hellos.into_iter().map(|(m, i, f)| (m, (i, f))).collect();
        self.needs_snapshot.remove(&ctx.me());
        // Whatever the ring held belongs to a state we just discarded.
        self.ring.clear();
        self.establish(ctx, as_of_seq);
        // Anchor the adopted state on disk: our WAL has a gap between our
        // old index and the donor's, so a later crash must recover from
        // this snapshot, not from the log alone.
        self.write_snapshot(ctx);
    }

    /// Leave the buffering mode: replay everything ordered after the state
    /// we now hold, then resume live participation.
    fn establish(&mut self, ctx: &mut Ctx<'_>, as_of_seq: u64) {
        let buffered = match std::mem::replace(&mut self.sync, SyncMode::Established) {
            SyncMode::AwaitState(b) | SyncMode::Reconciling(b) => b,
            SyncMode::Established => Vec::new(),
        };
        for (seq, payload) in buffered {
            if seq > as_of_seq {
                self.apply(ctx, seq, payload);
            }
        }
        self.last_applied_seq = self.last_applied_seq.max(as_of_seq);
        if self.resync_pending {
            self.resync(ctx);
        }
    }

    /// After a recovery, nudge the world back into motion: re-send mom
    /// dispatches for jobs the pre-crash life had in flight. Idempotent at
    /// the mom — a job it still runs yields a progress report, one that
    /// died with it launches afresh (the jmutex re-grants to the same
    /// mom). Queued jobs need no kick: scheduling runs deterministically
    /// inside command application at every replica.
    fn resync(&mut self, ctx: &mut Ctx<'_>) {
        self.resync_pending = false;
        let me = ctx.me();
        let snap = self.replica.pbs().snapshot();
        for job in &snap.jobs {
            let mom = job
                .allocated
                .first()
                .and_then(|node| self.config.nodes.iter().find(|(n, _)| n == node))
                .map(|(_, m)| *m);
            let Some(mom) = mom else { continue };
            match job.state {
                JobState::Running => {
                    let msg = MomInbound::Start {
                        job: job.id,
                        spec: job.spec.clone(),
                        nodes: job.allocated.clone(),
                        server: me,
                        arbiter: Some(me),
                    };
                    ctx.send(mom, msg);
                }
                JobState::Exiting => {
                    ctx.send(
                        mom,
                        MomInbound::Cancel {
                            job: job.id,
                            server: me,
                        },
                    );
                }
                JobState::Queued | JobState::Complete | JobState::Held => {}
            }
        }
    }

    /// Install what the local disk vouched for (called before joining the
    /// group, so nothing here is externally visible).
    fn adopt_recovery(&mut self, ctx: &mut Ctx<'_>, rec: Recovered) {
        let mut report = RecoveryReport {
            torn_tail_truncated: rec.torn_tail_truncated,
            corruption_offset: rec.corruption_offset,
            ..RecoveryReport::default()
        };
        // Rejoin with a strictly greater incarnation than any we ever
        // announced, so peers do not mistake us for our dead predecessor.
        self.group
            .member_mut()
            .adopt_incarnation(rec.incarnation + 1);
        let have_state = rec.state.is_some();
        if let Some(state) = rec.state {
            // The membership bookkeeping it carries is dropped below.
            let _ = self.replica.install(state);
        }
        // Membership bookkeeping from the previous life is stale by
        // construction — everyone re-announces; donors re-derive needs.
        self.needs_snapshot.clear();
        self.hellos.clear();
        // Replay the log on top. Entries at or below the snapshot index
        // only rebuild the donation ring; later ones re-run the state
        // machine with side effects suppressed (the pre-crash life
        // already performed them; `resync` re-drives what it did not).
        let snap_index = self.replica.applied_index();
        self.replaying = true;
        let mut prev: Option<u64> = None;
        for (idx, payload) in rec.entries {
            if let Some(p) = prev {
                if idx != p + 1 {
                    // Index gap (an ejection rewound the key space): the
                    // ring must only ever hold a contiguous run.
                    self.ring.clear();
                }
            }
            prev = Some(idx);
            if idx <= snap_index {
                self.remember(idx, payload);
            } else if idx == self.replica.applied_index() + 1 {
                self.apply_command(ctx, payload, false);
                report.wal_replayed += 1;
            } else {
                // Unreachable history beyond a gap: drop it.
                self.ring.clear();
                prev = None;
            }
        }
        self.replaying = false;
        report.recovered_index = self.replica.applied_index();
        report.recovered_fingerprint = self.state_fingerprint();
        self.resync_pending = have_state || report.recovered_index > 0;
        self.recovery = Some(report);
    }

    fn on_ejected(&mut self) {
        // Total state reset; the group layer rejoins automatically and a
        // snapshot will arrive after the next view change.
        self.replica
            .reset(PbsServerCore::with_moms(&self.config.nodes));
        self.needs_snapshot.clear();
        self.joined_current.clear();
        self.sync = SyncMode::AwaitState(Vec::new());
        self.last_applied_seq = 0;
        self.ring.clear();
        self.hellos.clear();
        self.replaying = false;
        self.resync_pending = false;
    }
}

impl Process for JoshuaServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Recover whatever the local disk vouches for *before* joining:
        // the announced index and incarnation depend on it.
        if let Some(store) = self.store.take() {
            let rec = store.recover(ctx.disk_mut());
            self.store = Some(store);
            self.adopt_recovery(ctx, rec);
        }
        let events = self.group.start(ctx);
        self.on_group(ctx, events);
        // Initial members register with the moms right away.
        if self.group.member().is_installed() {
            self.register_with_moms(ctx);
            // Cold restart: announce the recovered state so the bootstrap
            // group can agree whose is the reference (non-initial members
            // announce on their join view change instead).
            if self.store.is_some() {
                self.announce(ctx);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
        // Group traffic from peer daemons; anything else is handed back.
        let msg = match self.group.on_message(ctx, from, msg) {
            Ok(events) => return self.on_group(ctx, events),
            Err(msg) => msg,
        };
        // Intercepted PBS user command, taken by value (fallible downcast,
        // the Err arm hands the box back: the no-panic lints).
        let msg = match msg.downcast::<ClientRequest>() {
            Ok(req) => {
                self.stats.commands_forwarded += 1;
                let ClientRequest {
                    client,
                    req_id,
                    cmd,
                } = *req;
                // Interception cost (jsub → joshua local round), then order.
                let delay = JoshuaCostModel::PAPER.intercept_overhead;
                return self.defer_broadcast(
                    ctx,
                    Payload::Client {
                        client,
                        req_id,
                        cmd,
                    },
                    delay,
                );
            }
            Err(msg) => msg,
        };
        // Obituaries and other mom reports.
        if let Some(report) = msg.downcast_ref::<MomReport>() {
            if let MomReport::Finished { job, exit } = report {
                // Lift into the total order. Only the responder broadcasts
                // immediately (every head receives the same report from
                // the mom); the others act as witnesses, re-broadcasting
                // after a grace period if the completion never appears —
                // covering a responder that died holding the report.
                let (job, exit, mom) = (*job, *exit, from);
                if self.is_responder() {
                    self.broadcast(ctx, Payload::MomFinished { job, exit, mom });
                } else {
                    let witness = Deferred::Witness { job, exit, mom };
                    self.defer(ctx, witness, SimDuration::from_secs(2));
                }
            }
            return;
        }
        // jmutex protocol from mom launch prologues.
        if let Some(req) = msg.downcast_ref::<ArbiterRequest>() {
            let p = Payload::JMutexAcquire {
                job: req.job,
                mom: req.mom,
                session: req.session,
                granter: ctx.me(),
                reclaim: req.reclaim,
            };
            self.broadcast(ctx, p);
            return;
        }
        if let Some(rel) = msg.downcast_ref::<ArbiterRelease>() {
            let p = Payload::JMutexRelease { job: rel.job };
            self.broadcast(ctx, p);
            return;
        }
        // Administrative shutdown (voluntary leave).
        if msg.downcast_ref::<LeaveCmd>().is_some() {
            let events = self.group.leave(ctx);
            self.on_group(ctx, events);
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, tag: u64) {
        if let Some(events) = self.group.on_timer(ctx, tag) {
            return self.on_group(ctx, events);
        }
        match self.deferred.remove(&tag) {
            Some(Deferred::Broadcast(payload)) => self.broadcast(ctx, payload),
            Some(Deferred::Witness { job, exit, mom }) => {
                let pbs = self.replica.pbs();
                if pbs.job(job).is_some_and(|j| j.state != JobState::Complete) {
                    self.broadcast(ctx, Payload::MomFinished { job, exit, mom });
                }
            }
            None => {}
        }
    }

    /// An idle group tick delivers no upcall, so `on_group` would have
    /// nothing to do either.
    fn periodic_idle(&self, now: SimTime, tag: u64) -> bool {
        self.group.periodic_idle(now, tag)
    }
}
