//! The one embedding of a [`GroupMember`] into a `jrs-sim` process.
//!
//! [`GroupHost`] owns the member, its tick timer and the one [`Output`]
//! the member ever writes into; every path that puts that output on the
//! simulated wire goes through its private `transmit`, which charges each
//! frame its class's cost in the member's `GroupConfig::cost`. An embedder
//! calls the host from its `Process` callbacks and gets back only the
//! ordered upcalls ([`GcsEvent`]), in a `Vec` it drains and hands back
//! ([`GroupHost::recycle`]): how a frame is charged, sent and how the tick
//! is re-armed is not its business.
//!
//! A frame travels in a recycled box: `transmit` puts it into an empty box
//! from the host's free list, and the receiving host's `on_message` has the
//! member read the frame where it lies (`GroupMember::receive_into`): the
//! link moves out only a message it delivers or buffers, and the emptied
//! box is kept for the host's own next send. So a box is allocated only
//! when the sender's list is empty, and an ack or a duplicate is never
//! copied out of its box.
//!
//! The tick is a periodic timer (`Ctx::set_periodic`). Most ticks find
//! nothing to do, and an embedder that answers `Process::periodic_idle`
//! with [`GroupHost::periodic_idle`] lets the kernel skip those without
//! moving any other event.
//!
//! Two embedders exist. [`GcsProcess`] (below) publishes the upcalls
//! through `Ctx::emit`: the vehicle for running the group communication
//! system alone over the realistic network model — latency jitter,
//! shared-hub contention, message loss, partitions and node crashes.
//! `joshua_core::JoshuaServer` attaches the application logic; its cluster
//! configures the calibrated `FrameCost::TRANSIS` (the default is zero).

use crate::config::GroupConfig;
use crate::group::{GcsEvent, GroupMember, Output};
use crate::msg::Wire;
use jrs_sim::{Ctx, Msg, ProcId, Process, SimDuration, SimTime, TimerId, EXTERNAL};

/// Timer tag of the host's group tick. An embedder multiplexing its own
/// timers on the same process must not use it.
pub const TICK_TAG: u64 = 0;

/// A [`GroupMember`] wired to a sim process: member, tick timer and
/// output buffer. See module docs.
pub struct GroupHost<P> {
    member: GroupMember<P>,
    /// The member's output buffer: drained by `transmit` after every call,
    /// its capacity kept for the next one.
    out: Output<P>,
    /// Empty frame boxes: filled and sent by `transmit`, pushed back by
    /// `on_message` when a frame is taken out of one.
    boxes: Vec<Box<Option<Wire<P>>>>,
}

impl<P: Clone + 'static> GroupHost<P> {
    /// Wrap a configured member. The frames of one [`Output`] are charged
    /// serially, each at `config.cost`.
    pub fn new(me: ProcId, config: GroupConfig, initial: Vec<ProcId>) -> Self {
        GroupHost {
            member: GroupMember::new(me, config, initial),
            out: Output::default(),
            boxes: Vec::new(),
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

    /// Start the member and arm the first tick; call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) -> Vec<GcsEvent<P>> {
        self.member.start_into(ctx.now(), &mut self.out);
        let events = self.transmit(ctx);
        ctx.set_periodic(self.member.config().tick_every, TICK_TAG);
        events
    }

    /// Would the firing of timer `tag` at `now` do nothing but re-arm the
    /// tick? Only the tick can be idle
    /// ([`GroupMember::tick_is_idle`]); an embedder's `Process::periodic_idle`
    /// returns this.
    pub fn periodic_idle(&self, now: SimTime, tag: u64) -> bool {
        tag == TICK_TAG && self.member.tick_is_idle(now)
    }

    /// Feed a received message. `Err` hands back, unchanged, a message that
    /// is not a frame box filled by a host's `transmit` (single fallible
    /// downcast, no check-then-expect: the no-panic lints). The frame is
    /// read in its box, and the emptied box joins this host's free list.
    pub fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcId,
        msg: Msg,
    ) -> Result<Vec<GcsEvent<P>>, Msg> {
        let mut slot = msg.downcast::<Option<Wire<P>>>()?;
        if slot.is_none() {
            return Err(slot);
        }
        self.member
            .receive_into(ctx.now(), from, &mut slot, &mut self.out);
        self.boxes.push(slot);
        Ok(self.transmit(ctx))
    }

    /// Feed a fired timer. `None` when the tag is not the host's tick.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> Option<Vec<GcsEvent<P>>> {
        if tag != TICK_TAG {
            return None;
        }
        self.member.tick_into(ctx.now(), &mut self.out);
        let events = self.transmit(ctx);
        ctx.set_periodic(self.member.config().tick_every, TICK_TAG);
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

    /// Put the buffered output on the wire, each frame in a box from the
    /// free list (a new one only when it is empty). The CPU is serial: each
    /// frame leaves after its own cost *and* that of every frame queued
    /// before it. The upcalls leave with the caller, who hands the `Vec`
    /// back.
    fn transmit(&mut self, ctx: &mut Ctx<'_>) -> Vec<GcsEvent<P>> {
        let cost = self.member.config().cost;
        let mut busy = SimDuration::ZERO;
        for (to, frame, bytes) in self.out.wire.drain(..) {
            busy += frame.cost(&cost);
            let mut slot = self.boxes.pop().unwrap_or_default();
            *slot = Some(frame);
            ctx.send_boxed(to, slot, bytes, busy);
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

/// A simulation process that is nothing but a [`GroupHost`].
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
            host: GroupHost::new(me, config, initial),
        }
    }

    /// Read-only access to the wrapped member (post-run inspection).
    pub fn member(&self) -> &GroupMember<P> {
        self.host.member()
    }

    /// The tick interval used by this embedding.
    pub fn tick_interval(&self) -> SimDuration {
        self.host.member().config().tick_every
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

    fn periodic_idle(&self, now: SimTime, tag: u64) -> bool {
        self.host.periodic_idle(now, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrs_sim::World;

    /// A host that emits what `on_message` hands back: the `Err` value, or
    /// the size of its free list after a frame was taken.
    struct Probe {
        host: GroupHost<u32>,
    }

    impl Process for Probe {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
            match self.host.on_message(ctx, from, msg) {
                Ok(_) => ctx.emit(self.host.boxes.len()),
                Err(msg) => ctx.emit(msg),
            }
        }
    }

    #[test]
    fn only_a_filled_frame_box_is_taken() {
        let mut world = World::new(1);
        let node = world.add_node("head");
        let host = GroupHost::new(ProcId(0), GroupConfig::default(), vec![ProcId(0)]);
        let id = world.add_process(node, Probe { host });
        let ack = || Wire::<u32>::Ack { cum: 3 };
        world.inject(id, ack());
        world.inject(id, None::<Wire<u32>>);
        world.inject(id, 7_u64);
        world.inject(id, Some(ack()));
        world.run_for(SimDuration::from_millis(1));

        let back = world.take_emitted::<Msg>();
        assert_eq!(
            back.len(),
            3,
            "the three messages that are no filled box come back"
        );
        let mut back = back.into_iter().map(|(_, _, msg)| msg);
        let bare = back.next().and_then(|m| m.downcast::<Wire<u32>>().ok());
        assert_eq!(format!("{bare:?}"), format!("{:?}", Some(Box::new(ack()))));
        let empty = back
            .next()
            .and_then(|m| m.downcast::<Option<Wire<u32>>>().ok());
        assert!(empty.is_some_and(|slot| slot.is_none()));
        let other = back.next().and_then(|m| m.downcast::<u64>().ok());
        assert_eq!(other.as_deref(), Some(&7));
        let kept = world.take_emitted::<usize>();
        assert_eq!(kept.len(), 1, "the filled box is taken");
        assert_eq!(kept[0].2, 1, "and its box joins the free list");
    }
}
