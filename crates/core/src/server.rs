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
//!   distributed mutual exclusion". A jstat caches only its read; the
//!   responder builds the listing from its state at the `Output`.
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
use std::collections::{BTreeMap, BTreeSet};

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
    /// Retry joining the group: the disk did not take the incarnation.
    Join,
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
        // An ejection announced a new incarnation: a stalled disk keeps
        // the old value, and the next group call retries.
        self.persist_incarnation(ctx);
    }

    /// Persist the group incarnation if it advanced, so a future restart
    /// rejoins with one the survivors will not ignore. False while the
    /// disk keeps the previous value (a stalled fsync).
    fn persist_incarnation(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let inc = self.group.member().incarnation();
        if inc == self.persisted_incarnation {
            return true;
        }
        let landed = match &self.store {
            Some(store) => {
                let now = ctx.now();
                store.save_incarnation(ctx.disk_mut(), now, inc)
            }
            None => true,
        };
        if landed {
            self.persisted_incarnation = inc;
        }
        landed
    }

    /// Start the group protocol once the incarnation it announces is
    /// durable. Announced and then lost in a crash, it would be announced
    /// again by the next life, and the survivors ignore a join whose
    /// incarnation they have seen. A stalled disk defers the join by a
    /// group tick.
    fn join(&mut self, ctx: &mut Ctx<'_>) {
        if !self.persist_incarnation(ctx) {
            let retry = self.config.group.tick_every;
            return self.defer(ctx, Deferred::Join, retry);
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
            GcsEvent::Ejected => self.on_ejected(ctx),
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
                // Only the responder builds what it releases: a jstat's
                // listing is the state at this point of the total order.
                if self.is_responder() {
                    if let Some(reply) = self.replica.release(client, req_id) {
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
    /// persist it to the WAL (fsynced before any effect escapes), then run
    /// the state transition and its effects. `log` is false only when
    /// replaying records that are already in the WAL.
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
        if log {
            self.maybe_snapshot(ctx, idx);
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
    /// no-op when diskless). Once it lands, the WAL is compacted behind it
    /// ([`HeadStore::compact_wal`]).
    fn write_snapshot(&mut self, ctx: &mut Ctx<'_>) {
        let Some(store) = &self.store else { return };
        let now = ctx.now();
        let encode = |out: &mut Vec<u8>| {
            self.replica
                .encode_state(&self.needs_snapshot, &self.hellos, out);
        };
        let index = self.replica.applied_index();
        if store.save_snapshot_with(ctx.disk_mut(), now, index, encode) {
            self.stats.snapshots_written += 1;
            store.compact_wal(ctx.disk_mut(), index);
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
    /// [`Payload::Hello`]): a delta of recent commands when the WAL's
    /// window still covers the most lagging target, else a full snapshot.
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
            });
        let store = self.store.as_ref().filter(|_| delta_ok);
        if let Some(entries) = store.and_then(|s| s.delta(ctx.disk_mut(), min_idx, index)) {
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
        // What the disk holds is of the state just replaced.
        if let Some(store) = &self.store {
            store.reset(ctx.disk_mut());
        }
        self.establish(ctx, as_of_seq);
        // Anchor the adopted state on disk: the emptied log starts after
        // it, so a later crash must recover from this snapshot.
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
                .and_then(|node| self.config.nodes.iter().find(|(n, _)| **n == **node))
                .map(|(_, m)| *m);
            let Some(mom) = mom else { continue };
            match job.state {
                JobState::Running => {
                    let msg = MomInbound::Start {
                        job: job.id,
                        spec: job.spec.clone(),
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
        // Replay the log after the snapshot, with side effects suppressed
        // (the pre-crash life already performed them; `resync` re-drives
        // what it did not).
        self.replaying = true;
        for (_, payload) in rec.entries {
            self.apply_command(ctx, payload, false);
            report.wal_replayed += 1;
        }
        self.replaying = false;
        report.recovered_index = self.replica.applied_index();
        report.recovered_fingerprint = self.state_fingerprint();
        self.resync_pending = have_state || report.recovered_index > 0;
        self.recovery = Some(report);
    }

    fn on_ejected(&mut self, ctx: &mut Ctx<'_>) {
        // Total state reset, on disk too; the group layer rejoins and a
        // snapshot will arrive after the next view change.
        self.replica
            .reset(PbsServerCore::with_moms(&self.config.nodes));
        if let Some(store) = &self.store {
            store.reset(ctx.disk_mut());
        }
        self.needs_snapshot.clear();
        self.joined_current.clear();
        self.sync = SyncMode::AwaitState(Vec::new());
        self.last_applied_seq = 0;
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
        self.join(ctx);
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
            Some(Deferred::Join) => self.join(ctx),
            None => {}
        }
    }

    /// An idle group tick delivers no upcall, so `on_group` would have
    /// nothing to do either.
    fn periodic_idle(&self, now: SimTime, tag: u64) -> bool {
        self.group.periodic_idle(now, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig, HaMode};
    use crate::config::PersistConfig;
    use crate::persist::RING_CAPACITY;
    use crate::workload;
    use jrs_pbs::{CmdReply, JobSpec, ServerCmd};
    use jrs_store::Codec;
    use proptest::prelude::*;

    /// What the sampled states held, so a case shows it exercised each
    /// part of the encoders.
    #[derive(Default)]
    struct Seen {
        states: BTreeSet<JobState>,
        reads: bool,
        grants: bool,
        hellos: bool,
        needs_snapshot: bool,
    }

    /// Both borrowed encoders against the owned state they stand for.
    fn check(
        head: &JoshuaServer,
        needs_snapshot: &BTreeSet<ProcId>,
        hellos: &BTreeMap<ProcId, (u64, u64)>,
    ) -> Result<(), TestCaseError> {
        let (replica, pbs) = (&head.replica, head.replica.pbs());
        let mut borrowed = Vec::new();
        replica.encode_state(needs_snapshot, hellos, &mut borrowed);
        let owned = replica.state(needs_snapshot, hellos).to_bytes();
        prop_assert!(
            borrowed == owned,
            "Replica::encode_state differs from state().to_bytes()"
        );
        let mut borrowed = Vec::new();
        pbs.encode_snapshot(&mut borrowed);
        let owned = pbs.snapshot().to_bytes();
        prop_assert!(
            borrowed == owned,
            "encode_snapshot differs from snapshot().to_bytes()"
        );
        Ok(())
    }

    fn observe(head: &JoshuaServer, seen: &mut Seen) {
        let state = head.replica.state(&head.needs_snapshot, &head.hellos);
        seen.states.extend(state.pbs.jobs.iter().map(|j| j.state));
        seen.reads |= state
            .applied
            .iter()
            .any(|(_, _, reply)| matches!(reply, CmdReply::Read(_)));
        seen.grants |= head.replica.jmutex().grants().next().is_some();
        seen.hellos |= !head.hellos.is_empty();
        seen.needs_snapshot |= !head.needs_snapshot.is_empty();
    }

    /// The WAL records of `disk` after index `after`, `(index, bytes)`, as
    /// [`jrs_store::Wal::replay`] reads them: durable and volatile.
    fn logged_tail(disk: &jrs_sim::SimDisk, after: u64) -> Vec<(u64, Vec<u8>)> {
        let replay = jrs_store::Wal::new("joshua.wal").replay(disk);
        let entries = replay.expect("an undamaged log").entries;
        entries
            .into_iter()
            .filter(|(idx, _)| *idx > after)
            .collect()
    }

    /// What head `i` donates a target at `after`: its WAL's records from
    /// there to its applied index, decoded.
    fn delta(c: &Cluster, i: usize, after: u64) -> Option<Vec<(u64, Payload)>> {
        let head = c.joshua(i);
        let store = head.store.as_ref().expect("a durable head");
        store.delta(c.world.disk(c.head_nodes[i]), after, head.applied_index())
    }

    /// A delta is the donor's WAL tail. Head 0's disk stalls while head 1
    /// is down, so the last records head 0 donates when head 1 rejoins
    /// are in the log's volatile tail. At the donation its entries are
    /// the log's records after head 1's recovered index, by index and by
    /// encoded bytes, and head 1 rejoins by that delta.
    #[test]
    fn a_delta_is_the_donors_wal_tail_even_while_its_disk_stalls() {
        let mut c = durable_cluster(3);
        c.spawn_client(workload::burst(150));
        c.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        c.crash_head(1);
        let target = c.joshua(1).applied_index();
        while c.joshua(0).applied_index() < target + 40 {
            c.run_for(SimDuration::from_millis(5));
        }
        let donor = c.head_nodes[0];
        let until = c.world.now() + SimDuration::from_secs(30);
        c.world.disk_mut(donor).stall_until(until);
        let stalled_from = c.joshua(0).applied_index();
        while c.joshua(0).applied_index() < stalled_from + 20 {
            c.run_for(SimDuration::from_millis(5));
        }
        c.restart_joshua_head(1);
        while c.joshua(0).stats().catch_ups_sent == 0 {
            assert!(c.world.now() < until, "head 0 donated no delta");
            c.run_for(SimDuration::from_micros(50));
        }
        let rec = c.joshua(1).recovery_report().expect("recovery ran");
        assert_eq!(rec.recovered_index, target, "head 1's announced index");
        let index = c.joshua(0).applied_index();
        let sent: Vec<(u64, Vec<u8>)> = delta(&c, 0, target)
            .expect("the log covers head 1")
            .iter()
            .map(|(idx, p)| (*idx, p.to_bytes()))
            .collect();
        let disk = c.world.disk(donor);
        assert_eq!(
            sent,
            logged_tail(disk, target),
            "the delta is the log's tail"
        );
        let ids: Vec<u64> = sent.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(ids, (target + 1..=index).collect::<Vec<u64>>());
        assert!(
            !disk.volatile("joshua.wal").is_empty() && stalled_from < index,
            "records after {stalled_from} are volatile"
        );

        c.run_until(SimTime::ZERO + SimDuration::from_secs(300));
        let s = c.joshua(1).stats();
        assert_eq!((s.catch_ups_applied, s.snapshots_installed), (1, 0));
        assert_eq!(c.assert_replicas_consistent(), 3);
    }

    /// The listings and the reads a reply cache holds, as
    /// `Replica::state` ships it (to a snapshot file or a joiner).
    fn listings_and_reads(state: &ReplicaState) -> (usize, usize) {
        let count =
            |is: fn(&CmdReply) -> bool| state.applied.iter().filter(|(_, _, r)| is(r)).count();
        (
            count(|r| matches!(r, CmdReply::Status(_))),
            count(|r| matches!(r, CmdReply::Read(_))),
        )
    }

    fn durable_cluster(heads: usize) -> Cluster {
        let mut cfg = ClusterConfig::new(HaMode::Joshua { heads });
        cfg.persist = PersistConfig::durable();
        Cluster::build(cfg)
    }

    /// A durable three-head cluster answers a mixed script while a fourth
    /// head joins by full snapshot. Every 5 ms no head's reply cache holds
    /// a listing (so neither does a state it donates), no snapshot file
    /// holds one at the end, and each jstat lists exactly the jobs
    /// submitted before it: built at release, a read is still ordered.
    #[test]
    fn heads_cache_jstat_reads_not_listings() {
        let mut c = durable_cluster(3);
        let script = workload::mixed(60, 5);
        c.spawn_client(script.clone());
        let (mut reads, mut step) = (0, 0u64);
        while c.take_dones().is_empty() {
            step += 1;
            assert!(step < 20_000, "the script did not finish in 100 s");
            if step == 200 {
                let _ = c.add_joshua_head();
            }
            c.run_for(SimDuration::from_millis(5));
            for i in 0..c.heads.len() {
                let head = c.joshua(i);
                let state = head.replica.state(&head.needs_snapshot, &head.hellos);
                let (listings, held) = listings_and_reads(&state);
                assert_eq!(listings, 0, "head {i} caches a listing at step {step}");
                reads += held;
            }
        }
        assert!(reads > 0, "no head ever held a cached read");
        assert_eq!(
            c.joshua(3).stats().snapshots_installed,
            1,
            "the joiner's donation"
        );
        for i in 0..c.heads.len() {
            let node = c.head_nodes[i];
            let state = HeadStore::new().recover(c.world.disk_mut(node)).state;
            let state = state.unwrap_or_else(|| panic!("head {i} wrote no snapshot"));
            assert_eq!(listings_and_reads(&state).0, 0, "head {i}'s snapshot file");
        }
        let records = c.take_records();
        assert_eq!(records.len(), script.len());
        for (k, (cmd, r)) in script.iter().zip(&records).enumerate() {
            if let ServerCmd::Qstat(None) = cmd {
                let CmdReply::Status(rows) = &r.reply else {
                    panic!("jstat {k} answered {:?}", r.reply)
                };
                let before = script[..k]
                    .iter()
                    .filter(|c| matches!(c, ServerCmd::Qsub(_)))
                    .count();
                assert_eq!(rows.len(), before, "jstat {k}");
            }
        }
    }

    /// Every head applies a jstat, and the responder dies while its
    /// `Output` waits out the stat cost. The client retries through head 1,
    /// which as the next responder builds the listing and answers.
    #[test]
    fn a_jstat_whose_responder_dies_before_its_output_is_answered_by_the_next() {
        let mut c = durable_cluster(3);
        let mut script = workload::burst(4);
        script.push(ServerCmd::Qstat(None));
        let client = c.spawn_client(script);
        let cached_read = |c: &Cluster| {
            (0..3).all(|i| {
                let head = c.joshua(i);
                let state = head.replica.state(&head.needs_snapshot, &head.hellos);
                state.applied.iter().any(|(who, id, reply)| {
                    *who == client && *id == 5 && matches!(reply, CmdReply::Read(None))
                })
            })
        };
        while !cached_read(&c) {
            assert!(c.world.now() < SimTime::ZERO + SimDuration::from_secs(60));
            c.run_for(SimDuration::from_millis(1));
        }
        let sent = |c: &Cluster, i: usize| c.joshua(i).stats().replies_sent;
        assert_eq!((sent(&c, 0), sent(&c, 1), sent(&c, 2)), (4, 0, 0));
        c.crash_head(0);
        while c.take_dones().is_empty() {
            assert!(c.world.now() < SimTime::ZERO + SimDuration::from_secs(120));
            c.run_for(SimDuration::from_millis(100));
        }
        let records = c.take_records();
        assert_eq!(records.len(), 5);
        let jstat = &records[4];
        assert!(jstat.attempts > 1, "answered without a retry");
        let CmdReply::Status(rows) = &jstat.reply else {
            panic!("the jstat answered {:?}", jstat.reply)
        };
        assert_eq!(rows.len(), 4);
        assert_eq!((sent(&c, 1), sent(&c, 2)), (1, 0), "head 1 released it");
    }

    /// Head 1 falls further behind than a delta reaches, so it rejoins by
    /// a full snapshot, and installing it empties the head's log and
    /// snapshots. After a second crash its log holds the new life alone:
    /// recovery rebuilds the crashed life exactly, and a delta it could
    /// donate reaches back to the install and no further.
    #[test]
    fn recovery_after_an_installed_snapshot_holds_only_the_new_life() {
        let mut c = durable_cluster(3);
        c.spawn_client(workload::burst(150));
        let node = c.head_nodes[1];
        c.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        c.crash_head(1);
        let old_life = c.joshua(1).applied_index();
        let ring = u64::try_from(RING_CAPACITY).expect("fits");
        while c.joshua(0).applied_index() < old_life + ring + 8 {
            c.run_for(SimDuration::from_millis(5));
        }
        c.restart_joshua_head(1);
        while c.joshua(1).stats().snapshots_installed == 0 {
            assert!(c.world.now() < SimTime::ZERO + SimDuration::from_secs(100));
            c.run_for(SimDuration::from_millis(1));
        }
        let (installed, _) = HeadStore::new()
            .load_snapshot(c.world.disk(node))
            .expect("the install's snapshot");
        assert!(
            installed > old_life + ring,
            "a delta could not cover head 1"
        );
        while c.joshua(1).applied_index() < installed + 40 {
            assert!(c.world.now() < SimTime::ZERO + SimDuration::from_secs(200));
            c.run_for(SimDuration::from_millis(5));
        }
        c.crash_head(1);
        let (pre_index, pre_fingerprint) =
            (c.joshua(1).applied_index(), c.joshua(1).state_fingerprint());
        let held: Vec<u64> = logged_tail(c.world.disk(node), 0)
            .iter()
            .map(|(idx, _)| *idx)
            .collect();
        assert_eq!(
            held,
            (installed + 1..=pre_index).collect::<Vec<u64>>(),
            "the log holds the new life alone"
        );

        c.restart_joshua_head(1);
        c.run_for(SimDuration::from_micros(1));
        let rec = c.joshua(1).recovery_report().expect("recovery ran");
        assert_eq!(
            (rec.recovered_index, rec.recovered_fingerprint),
            (pre_index, pre_fingerprint)
        );
        let ids: Vec<u64> = delta(&c, 1, installed)
            .expect("the new life")
            .iter()
            .map(|(idx, _)| *idx)
            .collect();
        assert_eq!(ids, held, "the donated entries");
        assert!(delta(&c, 1, installed - 1).is_none(), "nothing older");
        c.run_until(SimTime::ZERO + SimDuration::from_secs(300));
        assert_eq!(c.assert_replicas_consistent(), 3);
        assert_eq!(
            c.joshua(1).stats().catch_ups_applied,
            1,
            "rejoined by a delta"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// A durable three-head cluster runs a mixed script while head 2
        /// crashes, recovers and rejoins; every 5 ms every head's two
        /// borrowed encoders must write exactly the bytes of the owned
        /// `ReplicaState` / `ServerSnapshot`, under the head's own
        /// membership bookkeeping and under arbitrary bookkeeping.
        #[test]
        fn borrowed_encoders_write_the_owned_states_bytes(
            n in 30usize..60,
            seed in 0u64..1000,
            crash_ms in 400u64..2000,
            needs in proptest::collection::vec(0u32..8, 1..4),
            hellos in proptest::collection::vec((0u32..8, any::<u64>(), any::<u64>()), 1..4),
        ) {
            let needs: BTreeSet<ProcId> = needs.into_iter().map(ProcId).collect();
            let hellos: BTreeMap<ProcId, (u64, u64)> =
                hellos.into_iter().map(|(m, i, f)| (ProcId(m), (i, f))).collect();
            let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 3 });
            cfg.persist = PersistConfig::durable();
            let mut c = Cluster::build(cfg);
            // A fixed prologue puts a job in each state: jobs 1 and 2 run
            // for 10 s on the two nodes, job 3 waits and is held, job 1 is
            // deleted while it runs (exiting until its mom reports).
            let spec = JobSpec::with_runtime("pro", SimDuration::from_secs(10));
            let mut script = vec![
                ServerCmd::Qsub(spec.clone()),
                ServerCmd::Qsub(spec.clone()),
                ServerCmd::Qsub(spec),
                ServerCmd::Qhold(JobId(3)),
                ServerCmd::Qdel(JobId(1)),
            ];
            script.extend(workload::mixed(n, seed));
            c.spawn_client(script);
            let mut seen = Seen::default();
            for step in 1..=1_600u64 {
                let ms = step * 5;
                c.run_until(SimTime::ZERO + SimDuration::from_millis(ms));
                if ms == crash_ms / 5 * 5 {
                    c.crash_head(2);
                }
                if ms == crash_ms / 5 * 5 + 1_000 {
                    c.restart_joshua_head(2);
                }
                for i in 0..3 {
                    let head = c.joshua(i);
                    check(head, &head.needs_snapshot, &head.hellos)?;
                    check(head, &needs, &hellos)?;
                    observe(head, &mut seen);
                }
            }
            let states: Vec<JobState> = seen.states.into_iter().collect();
            prop_assert_eq!(
                states,
                vec![JobState::Queued, JobState::Running, JobState::Exiting, JobState::Complete, JobState::Held]
            );
            prop_assert!(seen.reads && seen.grants, "a cached read and a jmutex grant");
            prop_assert!(seen.hellos && seen.needs_snapshot, "head 2's rejoin left bookkeeping to encode");
        }
    }
}
