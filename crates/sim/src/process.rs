//! The actor abstraction: deterministic state machines driven by the world.
//!
//! A [`Process`] owns its protocol state and reacts to three stimuli:
//! start-up, message delivery, and timer expiry. All interaction with the
//! outside (sending, timers, randomness, measurement) goes through the
//! [`Ctx`] handle, which keeps the state machines free of I/O and makes the
//! whole simulation deterministic and single-steppable.

use crate::disk::SimDisk;
use crate::ids::{ProcId, TimerId};
use crate::time::{SimDuration, SimTime};
use crate::world::World;
use std::any::Any;

/// Dynamically typed message payload. Receivers downcast to the concrete
/// protocol message type they expect.
pub type Msg = Box<dyn Any>;

/// Sender id used for messages injected from outside the simulation
/// (harness code poking a process directly).
pub const EXTERNAL: ProcId = ProcId(u32::MAX);

/// A deterministic actor.
pub trait Process: Any {
    /// Called once, when the process is added to the world.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg);

    /// Called when a timer set via [`Ctx::set_timer`] or
    /// [`Ctx::set_periodic`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId, _tag: u64) {}

    /// Asked before a firing of the periodic timer `tag` is dispatched.
    /// `true` promises that `on_timer` at `now` would do nothing but call
    /// `set_periodic` with the same period and tag: no send, no timer, no
    /// emit, no state change. The world then re-arms the timer itself, in
    /// the place in the event order that call would have given it, and
    /// skips the dispatch.
    fn periodic_idle(&self, _now: SimTime, _tag: u64) -> bool {
        false
    }
}

impl dyn Process {
    /// Downcast a process trait object to a concrete type.
    pub(crate) fn downcast_ref<T: Process>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref::<T>()
    }
}

/// Execution context handed to a process while it handles an event.
pub struct Ctx<'a> {
    pub(crate) world: &'a mut World,
    pub(crate) me: ProcId,
}

impl Ctx<'_> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// This process' id.
    #[inline]
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Send a message with the default wire size (512 bytes).
    pub fn send<M: Any>(&mut self, to: ProcId, msg: M) {
        self.send_sized(to, msg, 512);
    }

    /// Send a message, declaring its wire size for the bandwidth/hub model.
    pub(crate) fn send_sized<M: Any>(&mut self, to: ProcId, msg: M, bytes: u32) {
        self.world
            .route_message(self.me, to, Box::new(msg), bytes, SimDuration::ZERO);
    }

    /// Send a message after an extra sender-side processing delay — models
    /// CPU cost of producing the message without a separate timer dance.
    pub fn send_after<M: Any>(&mut self, to: ProcId, msg: M, delay: SimDuration) {
        self.world
            .route_message(self.me, to, Box::new(msg), 512, delay);
    }

    /// Send a message that is already boxed, with explicit size and
    /// sender-side delay: the box itself travels, so a sender that recycles
    /// boxes allocates none.
    pub fn send_boxed(&mut self, to: ProcId, msg: Msg, bytes: u32, delay: SimDuration) {
        self.world.route_message(self.me, to, msg, bytes, delay);
    }

    /// Arm a one-shot timer; `tag` is returned to `on_timer` for
    /// multiplexing several logical timers in one process.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.world.set_timer(self.me, delay, tag)
    }

    /// Arm this process's periodic timer `tag` to fire `period` from now,
    /// replacing its pending firing if one is armed. A firing is dispatched
    /// to `on_timer` like a one-shot timer's, and the timer lapses unless
    /// `on_timer` arms it again; a firing [`Process::periodic_idle`] reports
    /// idle is re-armed by the world without a dispatch.
    pub fn set_periodic(&mut self, period: SimDuration, tag: u64) {
        self.world.set_periodic(self.me, period, tag);
    }

    /// Cancel a pending one-shot timer. Cancelling an already-fired timer is
    /// a no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.world.cancel_timer(timer);
    }

    /// Publish a value to the harness (drained via `World::take_emitted`).
    pub fn emit<T: Any>(&mut self, value: T) {
        self.world.push_emitted(self.me, value);
    }

    /// Voluntarily stop this process (it receives no further events).
    pub fn exit(&mut self) {
        self.world.kill_proc(self.me);
    }

    /// This node's simulated disk, mutable.
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        let node = self.world.node_of(self.me);
        self.world.disk_mut(node)
    }
}
