//! The one embedding of a [`GroupMember`] into a `jrs-sim` process.
//!
//! [`GroupHost`] owns the member, its tick timer, the embedder's CPU
//! charge policy and the one [`Output`] the member ever writes into; every
//! path that puts that output on the simulated wire goes through its
//! private `transmit`. An embedder calls the host from its `Process`
//! callbacks and gets back only the ordered upcalls ([`GcsEvent`]), in a
//! `Vec` it drains and hands back ([`GroupHost::recycle`]): how a frame is
//! charged, sent and how the tick is re-armed is not its business.
//!
//! Two embedders exist. [`GcsProcess`] (below) charges nothing and
//! publishes the upcalls through `Ctx::emit`: the vehicle for running the
//! group communication system alone over the realistic network model —
//! latency jitter, shared-hub contention, message loss, partitions and
//! node crashes. `joshua_core::JoshuaServer` supplies its calibrated cost
//! table as the charge and attaches the application logic.

use crate::config::GroupConfig;
use crate::group::{GcsEvent, GroupMember, Output};
use crate::msg::Wire;
use jrs_sim::{Ctx, Msg, ProcId, Process, SimDuration, TimerId, EXTERNAL};

/// Timer tag of the host's group tick. An embedder multiplexing its own
/// timers on the same process must not use it.
pub const TICK_TAG: u64 = 0;

/// The embedder's policy: sender-side CPU cost of one frame.
type Charge<P> = Box<dyn Fn(&Wire<P>) -> SimDuration>;

/// A [`GroupMember`] wired to a sim process: member, tick timer and the
/// per-frame CPU charge. See module docs.
pub struct GroupHost<P> {
    member: GroupMember<P>,
    tick_every: SimDuration,
    charge: Charge<P>,
    /// The member's output buffer: drained by `transmit` after every call,
    /// its capacity kept for the next one.
    out: Output<P>,
}

impl<P: Clone + 'static> GroupHost<P> {
    /// Wrap a configured member. `charge` is the sender-side CPU cost of
    /// one frame; the frames of one [`Output`] are charged serially.
    pub fn new(
        me: ProcId,
        config: GroupConfig,
        initial: Vec<ProcId>,
        charge: impl Fn(&Wire<P>) -> SimDuration + 'static,
    ) -> Self {
        let tick_every = config.tick_every;
        let member = GroupMember::new(me, config, initial);
        GroupHost {
            member,
            tick_every,
            charge: Box::new(charge),
            out: Output::default(),
        }
    }

    /// Read-only access to the wrapped member.
    pub fn member(&self) -> &GroupMember<P> {
        &self.member
    }

    /// Mutable access, for what must happen before [`start`](Self::start)
    /// (adopting a recovered incarnation).
    pub fn member_mut(&mut self) -> &mut GroupMember<P> {
        &mut self.member
    }

    /// The tick interval this host re-arms.
    pub(crate) fn tick_interval(&self) -> SimDuration {
        self.tick_every
    }

    /// Start the member and arm the first tick; call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) -> Vec<GcsEvent<P>> {
        self.member.start_into(ctx.now(), &mut self.out);
        let events = self.transmit(ctx);
        ctx.set_timer(self.tick_every, TICK_TAG);
        events
    }

    /// Feed a received message. `Err` hands back a message that is not a
    /// group frame (single fallible downcast, no check-then-expect: the no-panic lints).
    pub fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcId,
        msg: Msg,
    ) -> Result<Vec<GcsEvent<P>>, Msg> {
        let frame = msg.downcast::<Wire<P>>()?;
        self.member
            .on_wire_into(ctx.now(), from, *frame, &mut self.out);
        Ok(self.transmit(ctx))
    }

    /// Feed a fired timer. `None` when the tag is not the host's tick.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> Option<Vec<GcsEvent<P>>> {
        if tag != TICK_TAG {
            return None;
        }
        self.member.tick_into(ctx.now(), &mut self.out);
        let events = self.transmit(ctx);
        ctx.set_timer(self.tick_every, TICK_TAG);
        Some(events)
    }

    /// Submit a payload for totally ordered broadcast.
    pub fn broadcast(&mut self, ctx: &mut Ctx<'_>, payload: P) -> Vec<GcsEvent<P>> {
        self.member
            .broadcast_into(ctx.now(), payload, &mut self.out);
        self.transmit(ctx)
    }

    /// Announce a voluntary leave; the embedder exits afterwards.
    pub fn leave(&mut self, ctx: &mut Ctx<'_>) -> Vec<GcsEvent<P>> {
        self.member.leave_into(ctx.now(), &mut self.out);
        self.transmit(ctx)
    }

    /// Put the buffered output on the wire. The CPU is serial: each frame
    /// leaves after its own charge *and* that of every frame queued before
    /// it. The upcalls leave with the caller, who hands the `Vec` back.
    fn transmit(&mut self, ctx: &mut Ctx<'_>) -> Vec<GcsEvent<P>> {
        let mut busy = SimDuration::ZERO;
        for (to, frame, bytes) in self.out.wire.drain(..) {
            busy += (self.charge)(&frame);
            ctx.send_sized_after(to, frame, bytes, busy);
        }
        std::mem::take(&mut self.out.events)
    }

    /// Take back the upcall `Vec` of an earlier call, drained, so the next
    /// call pushes into its capacity instead of allocating.
    pub fn recycle(&mut self, events: Vec<GcsEvent<P>>) {
        debug_assert!(events.is_empty());
        if events.capacity() > self.out.events.capacity() {
            self.out.events = events;
        }
    }
}

/// Commands the harness can inject into a [`GcsProcess`] (via
/// `World::inject`).
#[derive(Debug)]
pub enum GcsCommand<P> {
    /// Submit a payload for totally ordered broadcast.
    Broadcast(P),
    /// Announce a voluntary leave and exit the process.
    Leave,
}

/// A simulation process that is nothing but a [`GroupHost`] with a zero
/// charge.
///
/// Delivered messages, view changes and ejections are published through
/// `Ctx::emit` as [`GcsEvent`] values; drain them with
/// `World::take_emitted::<GcsEvent<P>>()`.
pub struct GcsProcess<P> {
    host: GroupHost<P>,
}

impl<P: Clone + 'static> GcsProcess<P> {
    /// Wrap a configured member.
    pub fn new(me: ProcId, config: GroupConfig, initial: Vec<ProcId>) -> Self {
        GcsProcess {
            host: GroupHost::new(me, config, initial, |_| SimDuration::ZERO),
        }
    }

    /// Read-only access to the wrapped member (post-run inspection).
    pub fn member(&self) -> &GroupMember<P> {
        self.host.member()
    }

    /// The tick interval used by this embedding.
    pub fn tick_interval(&self) -> SimDuration {
        self.host.tick_interval()
    }

    fn emit_all(&mut self, ctx: &mut Ctx<'_>, mut events: Vec<GcsEvent<P>>) {
        for ev in events.drain(..) {
            ctx.emit(ev);
        }
        self.host.recycle(events);
    }
}

impl<P: Clone + 'static> Process for GcsProcess<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let events = self.host.start(ctx);
        self.emit_all(ctx, events);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
        if from == EXTERNAL {
            // Unknown harness payloads are dropped, not fatal (the no-panic lints).
            let Ok(cmd) = msg.downcast::<GcsCommand<P>>() else {
                return;
            };
            let events = match *cmd {
                GcsCommand::Broadcast(p) => self.host.broadcast(ctx, p),
                GcsCommand::Leave => {
                    let events = self.host.leave(ctx);
                    ctx.exit();
                    events
                }
            };
            return self.emit_all(ctx, events);
        }
        if let Ok(events) = self.host.on_message(ctx, from, msg) {
            self.emit_all(ctx, events);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, tag: u64) {
        if let Some(events) = self.host.on_timer(ctx, tag) {
            self.emit_all(ctx, events);
        }
    }
}
