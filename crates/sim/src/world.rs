//! The discrete-event world: virtual clock, event queue, node/process
//! registry, network routing and fault injection entry points.

use crate::disk::SimDisk;
use crate::ids::{NodeId, ProcId, TimerId};
use crate::network::{Network, NetworkConfig, Outcome};
use crate::process::{Ctx, Msg, Process};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// A deferred action with full world access (see [`World::schedule_at`]).
type Thunk = Box<dyn FnOnce(&mut World)>;

enum EventKind {
    // Start/Deliver/Timer carry the target's incarnation at enqueue time;
    // dispatch drops events addressed to an earlier incarnation, so a
    // restarted process never sees its predecessor's in-flight messages or
    // stale timers.
    Start {
        proc: ProcId,
        incarnation: u32,
    },
    Deliver {
        from: ProcId,
        to: ProcId,
        msg: Msg,
        incarnation: u32,
    },
    Timer {
        proc: ProcId,
        timer: TimerId,
        tag: u64,
        incarnation: u32,
    },
    Call(Thunk),
}

struct QueuedEvent {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
    // Ties break on insertion sequence for full determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct NodeSlot {
    #[allow(dead_code)]
    name: String,
    alive: bool,
}

struct ProcSlot {
    node: NodeId,
    alive: bool,
    /// Bumped by `restart_proc`; events are stamped with it at enqueue time.
    incarnation: u32,
    process: Option<Box<dyn Process>>,
}

/// A value published by a process via `Ctx::emit`.
struct Emitted {
    /// When it was emitted.
    at: SimTime,
    /// Which process emitted it.
    from: ProcId,
    /// The payload.
    value: Box<dyn Any>,
}

/// The simulation world. See the crate docs for the execution model.
pub struct World {
    clock: SimTime,
    queue: BinaryHeap<QueuedEvent>,
    next_seq: u64,
    rng: StdRng,
    nodes: Vec<NodeSlot>,
    procs: Vec<ProcSlot>,
    /// One simulated disk per node, same indexing as `nodes`. Disks survive
    /// `crash_node`/`revive_node` (only volatile data is lost).
    disks: Vec<SimDisk>,
    net: Network,
    next_timer: u64,
    cancelled_timers: HashSet<u64>,
    emitted: Vec<Emitted>,
    events_processed: u64,
    /// Safety valve against runaway protocols in tests; `None` = unlimited.
    max_events: Option<u64>,
}

impl World {
    /// New world with the default (Fast-Ethernet-hub) network model.
    pub fn new(seed: u64) -> Self {
        Self::with_network(seed, NetworkConfig::default())
    }

    /// New world with an explicit network configuration.
    pub fn with_network(seed: u64, net: NetworkConfig) -> Self {
        World {
            clock: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            rng: StdRng::seed_from_u64(seed),
            nodes: Vec::new(),
            procs: Vec::new(),
            disks: Vec::new(),
            net: Network::new(net),
            next_timer: 0,
            cancelled_timers: HashSet::new(),
            emitted: Vec::new(),
            events_processed: 0,
            max_events: None,
        }
    }

    /// Limit total processed events (test safety valve).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = Some(max);
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The network model, immutable.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The network model, mutable (partitions, loss injection).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Add a node (virtual machine) to the cluster. Each node gets its own
    /// [`SimDisk`].
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            name: name.into(),
            alive: true,
        });
        self.disks.push(SimDisk::new());
        id
    }

    /// A node's simulated disk.
    pub fn disk(&self, node: NodeId) -> &SimDisk {
        &self.disks[node.index()]
    }

    /// A node's simulated disk, mutable (fault injection, harness setup).
    pub fn disk_mut(&mut self, node: NodeId) -> &mut SimDisk {
        &mut self.disks[node.index()]
    }

    /// Number of nodes ever added.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Add a process on `node`. Its `on_start` runs at the current time.
    pub fn add_process(&mut self, node: NodeId, process: impl Process) -> ProcId {
        self.add_boxed_process(node, Box::new(process))
    }

    /// Add an already-boxed process on `node`.
    pub(crate) fn add_boxed_process(&mut self, node: NodeId, process: Box<dyn Process>) -> ProcId {
        assert!(node.index() < self.nodes.len(), "unknown node {node}");
        let id = ProcId(self.procs.len() as u32);
        let alive = self.nodes[node.index()].alive;
        self.procs.push(ProcSlot {
            node,
            alive,
            incarnation: 1,
            process: Some(process),
        });
        if alive {
            self.push_event(
                self.clock,
                EventKind::Start {
                    proc: id,
                    incarnation: 1,
                },
            );
        }
        id
    }

    /// Restart a dead process slot with a fresh process instance (same
    /// `ProcId`, next incarnation). The node must be alive (revive it
    /// first) and the old process dead. Messages and timers addressed to
    /// the previous incarnation are silently discarded, exactly as a
    /// rebooted machine never sees packets sent to its dead predecessor.
    ///
    /// Returns the new incarnation number.
    pub fn restart_proc(&mut self, p: ProcId, process: Box<dyn Process>) -> u32 {
        let slot = &mut self.procs[p.index()];
        assert!(
            self.nodes[slot.node.index()].alive,
            "restart_proc: node {} is down",
            slot.node
        );
        assert!(!slot.alive, "restart_proc: {p} is still running");
        slot.alive = true;
        slot.incarnation += 1;
        let incarnation = slot.incarnation;
        slot.process = Some(process);
        self.push_event(
            self.clock,
            EventKind::Start {
                proc: p,
                incarnation,
            },
        );
        incarnation
    }

    /// A process' current incarnation (1 for never-restarted processes).
    pub(crate) fn proc_incarnation(&self, p: ProcId) -> u32 {
        self.procs[p.index()].incarnation
    }

    /// The node a process runs on.
    pub fn node_of(&self, p: ProcId) -> NodeId {
        self.procs[p.index()].node
    }

    /// Is this process alive?
    pub fn is_proc_alive(&self, p: ProcId) -> bool {
        p.index() < self.procs.len() && self.procs[p.index()].alive
    }

    /// Is this node alive?
    pub fn is_node_alive(&self, n: NodeId) -> bool {
        self.nodes[n.index()].alive
    }

    /// All live processes hosted on a node.
    pub fn procs_on(&self, node: NodeId) -> Vec<ProcId> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.node == node && s.alive)
            .map(|(i, _)| ProcId(i as u32))
            .collect()
    }

    /// Borrow a process as its concrete type (e.g. to inspect final state).
    pub fn proc_ref<T: Process>(&self, p: ProcId) -> Option<&T> {
        self.procs
            .get(p.index())
            .and_then(|s| s.process.as_deref())
            .and_then(|pr| pr.downcast_ref::<T>())
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Crash a node right now: every process on it stops receiving events
    /// and all its undelivered messages are lost.
    pub fn crash_node(&mut self, node: NodeId) {
        self.nodes[node.index()].alive = false;
        for slot in self.procs.iter_mut().filter(|s| s.node == node) {
            slot.alive = false;
        }
        // Power loss: the disk keeps its durable content but drops every
        // unsynced byte (and applies armed torn-write damage).
        self.disks[node.index()].on_crash();
    }

    /// Mark a crashed node usable again. Old processes stay dead; the
    /// harness starts fresh ones (a replacement head node, per the paper's
    /// join protocol).
    pub fn revive_node(&mut self, node: NodeId) {
        self.nodes[node.index()].alive = true;
    }

    /// Kill a single process (e.g. `kill -9` of one daemon).
    pub fn kill_proc(&mut self, p: ProcId) {
        if let Some(slot) = self.procs.get_mut(p.index()) {
            slot.alive = false;
        }
    }

    /// Move a node into a partition group (see `Network`).
    pub fn set_partition_group(&mut self, node: NodeId, group: u32) {
        self.net.set_partition_group(node, group);
    }

    // ------------------------------------------------------------------
    // Scheduling primitives
    // ------------------------------------------------------------------

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueuedEvent { at, seq, kind });
    }

    /// Run `thunk` with full world access at absolute time `at` (clamped to
    /// now if already past).
    pub fn schedule_at(&mut self, at: SimTime, thunk: impl FnOnce(&mut World) + 'static) {
        let at = at.max(self.clock);
        self.push_event(at, EventKind::Call(Box::new(thunk)));
    }

    /// Inject a message to a process from the reserved EXTERNAL sender.
    pub fn inject<M: Any>(&mut self, to: ProcId, msg: M) {
        self.route_message(
            crate::process::EXTERNAL,
            to,
            Box::new(msg),
            0,
            SimDuration::ZERO,
        );
    }

    pub(crate) fn route_message(
        &mut self,
        from: ProcId,
        to: ProcId,
        msg: Msg,
        bytes: u32,
        extra_delay: SimDuration,
    ) {
        let now = self.clock;
        if to.index() >= self.procs.len() {
            return; // destination never existed; drop silently
        }
        let incarnation = self.procs[to.index()].incarnation;
        // EXTERNAL bypasses the network model: harness → process, zero delay.
        if from == crate::process::EXTERNAL {
            self.push_event(
                now + extra_delay,
                EventKind::Deliver {
                    from,
                    to,
                    msg,
                    incarnation,
                },
            );
            return;
        }
        let from_node = self.node_of(from);
        let to_node = self.node_of(to);
        if !self.nodes[from_node.index()].alive || !self.nodes[to_node.index()].alive {
            return;
        }
        let send_at = now + extra_delay;
        match self
            .net
            .route(&mut self.rng, send_at, from_node, to_node, bytes)
        {
            Outcome::Deliver(delay) => {
                self.push_event(
                    send_at + delay,
                    EventKind::Deliver {
                        from,
                        to,
                        msg,
                        incarnation,
                    },
                );
            }
            // The network counted the drop; nothing reaches the receiver.
            Outcome::Drop(_) => {}
        }
    }

    pub(crate) fn set_timer(&mut self, proc: ProcId, delay: SimDuration, tag: u64) -> TimerId {
        let timer = TimerId(self.next_timer);
        self.next_timer += 1;
        let at = self.clock + delay;
        let incarnation = self.procs[proc.index()].incarnation;
        self.push_event(
            at,
            EventKind::Timer {
                proc,
                timer,
                tag,
                incarnation,
            },
        );
        timer
    }

    pub(crate) fn cancel_timer(&mut self, timer: TimerId) {
        self.cancelled_timers.insert(timer.0);
    }

    pub(crate) fn push_emitted(&mut self, from: ProcId, value: Box<dyn Any>) {
        self.emitted.push(Emitted {
            at: self.clock,
            from,
            value,
        });
    }

    /// Drain emitted values of one concrete type, leaving others in place.
    pub fn take_emitted<T: Any>(&mut self) -> Vec<(SimTime, ProcId, T)> {
        let mut taken = Vec::new();
        let mut kept = Vec::new();
        for e in std::mem::take(&mut self.emitted) {
            match e.value.downcast::<T>() {
                Ok(v) => taken.push((e.at, e.from, *v)),
                Err(v) => kept.push(Emitted {
                    at: e.at,
                    from: e.from,
                    value: v,
                }),
            }
        }
        self.emitted = kept;
        taken
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Process a single event. Returns `false` when the queue is empty or
    /// the event budget is exhausted.
    pub(crate) fn step(&mut self) -> bool {
        if let Some(max) = self.max_events {
            if self.events_processed >= max {
                return false;
            }
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.clock, "time went backwards");
        self.clock = ev.at;
        self.events_processed += 1;
        match ev.kind {
            EventKind::Start { proc, incarnation } => {
                if self.proc_incarnation(proc) == incarnation {
                    self.dispatch(proc, |p, ctx| p.on_start(ctx));
                }
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                incarnation,
            } => {
                if self.is_proc_alive(to) && self.proc_incarnation(to) == incarnation {
                    self.dispatch(to, |p, ctx| p.on_message(ctx, from, msg));
                }
            }
            EventKind::Timer {
                proc,
                timer,
                tag,
                incarnation,
            } => {
                if self.cancelled_timers.remove(&timer.0) {
                    // cancelled; swallow
                } else if self.is_proc_alive(proc) && self.proc_incarnation(proc) == incarnation {
                    self.dispatch(proc, |p, ctx| p.on_timer(ctx, timer, tag));
                }
            }
            EventKind::Call(thunk) => thunk(self),
        }
        true
    }

    fn dispatch(&mut self, proc: ProcId, f: impl FnOnce(&mut dyn Process, &mut Ctx<'_>)) {
        if !self.is_proc_alive(proc) {
            return;
        }
        let mut boxed = self.procs[proc.index()]
            .process
            .take()
            .expect("process re-entered");
        {
            let mut ctx = Ctx {
                world: self,
                me: proc,
            };
            f(boxed.as_mut(), &mut ctx);
        }
        self.procs[proc.index()].process = Some(boxed);
    }

    /// Run until the queue drains or `deadline` passes (the clock stops at
    /// the deadline even if later events remain queued).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(ev) = self.queue.peek() {
            if ev.at > deadline {
                break;
            }
            if !self.step() {
                break;
            }
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
    }

    /// Run for a duration from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.clock + d;
        self.run_until(deadline);
    }

    /// Run until no events remain. Protocols with periodic timers never go
    /// idle — prefer `run_until`/`run_for` for those.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::EXTERNAL;

    /// Echoes every u32 it receives back to the sender, incremented.
    struct Echo {
        got: Vec<u32>,
    }

    impl Process for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
            let v = *msg.downcast::<u32>().expect("u32");
            self.got.push(v);
            if from != EXTERNAL {
                ctx.send(from, v + 1);
            }
        }
    }

    /// Sends `count` pings to a peer on start, collects replies.
    struct Pinger {
        peer: ProcId,
        count: u32,
        replies: Vec<u32>,
    }

    impl Process for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.count {
                ctx.send(self.peer, i);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: Msg) {
            self.replies.push(*msg.downcast::<u32>().unwrap());
        }
    }

    fn two_node_world() -> (World, NodeId, NodeId) {
        let mut w = World::with_network(7, NetworkConfig::ideal());
        let a = w.add_node("a");
        let b = w.add_node("b");
        (w, a, b)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut w, a, b) = two_node_world();
        let echo = w.add_process(b, Echo { got: vec![] });
        let pinger = w.add_process(
            a,
            Pinger {
                peer: echo,
                count: 3,
                replies: vec![],
            },
        );
        w.run_until_idle();
        let p = w.proc_ref::<Pinger>(pinger).unwrap();
        assert_eq!(p.replies, vec![1, 2, 3]);
        let e = w.proc_ref::<Echo>(echo).unwrap();
        assert_eq!(e.got, vec![0, 1, 2]);
        assert!(w.now() > SimTime::ZERO);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut w = World::new(seed);
            let a = w.add_node("a");
            let b = w.add_node("b");
            let echo = w.add_process(b, Echo { got: vec![] });
            let _ = w.add_process(
                a,
                Pinger {
                    peer: echo,
                    count: 50,
                    replies: vec![],
                },
            );
            w.run_until_idle();
            (w.now(), w.events_processed())
        };
        assert_eq!(run(99), run(99));
        // Different seeds give a different (jittered) end time.
        assert_ne!(run(99).0, run(100).0);
    }

    #[test]
    fn crash_node_stops_delivery() {
        let (mut w, a, b) = two_node_world();
        let echo = w.add_process(b, Echo { got: vec![] });
        let _ = w.add_process(
            a,
            Pinger {
                peer: echo,
                count: 1,
                replies: vec![],
            },
        );
        w.crash_node(b);
        w.run_until_idle();
        let e = w.proc_ref::<Echo>(echo).unwrap();
        assert!(e.got.is_empty());
        assert!(!w.is_proc_alive(echo));
        assert!(!w.is_node_alive(b));
    }

    #[test]
    fn revive_allows_new_processes() {
        let (mut w, _a, b) = two_node_world();
        w.crash_node(b);
        w.revive_node(b);
        let echo = w.add_process(b, Echo { got: vec![] });
        w.inject(echo, 41u32);
        w.run_until_idle();
        assert_eq!(w.proc_ref::<Echo>(echo).unwrap().got, vec![41]);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct T {
            fired: Vec<u64>,
            cancel_me: Option<TimerId>,
        }
        impl Process for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                self.cancel_me = Some(ctx.set_timer(SimDuration::from_millis(5), 2));
                ctx.set_timer(SimDuration::from_millis(1), 3);
                let t = self.cancel_me.unwrap();
                ctx.cancel_timer(t);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcId, _: Msg) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
                self.fired.push(tag);
            }
        }
        let (mut w, a, _b) = two_node_world();
        let p = w.add_process(
            a,
            T {
                fired: vec![],
                cancel_me: None,
            },
        );
        w.run_until_idle();
        assert_eq!(w.proc_ref::<T>(p).unwrap().fired, vec![3, 1]);
    }

    #[test]
    fn schedule_thunks_run_at_time() {
        let mut w = World::with_network(1, NetworkConfig::ideal());
        let n = w.add_node("x");
        let echo = w.add_process(n, Echo { got: vec![] });
        w.schedule_at(SimTime::ZERO + SimDuration::from_secs(2), move |w| {
            w.inject(echo, 7u32);
        });
        w.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(w.proc_ref::<Echo>(echo).unwrap().got.is_empty());
        w.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(w.proc_ref::<Echo>(echo).unwrap().got, vec![7]);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut w = World::new(3);
        w.run_until(SimTime::from_nanos(1_000));
        assert_eq!(w.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn emitted_values_are_typed_and_drained() {
        struct E;
        impl Process for E {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.emit(123u32);
                ctx.emit("hello");
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcId, _: Msg) {}
        }
        let mut w = World::new(0);
        let n = w.add_node("x");
        let p = w.add_process(n, E);
        w.run_until_idle();
        let ints = w.take_emitted::<u32>();
        assert_eq!(ints.len(), 1);
        assert_eq!(ints[0].1, p);
        assert_eq!(ints[0].2, 123);
        let strs = w.take_emitted::<&str>();
        assert_eq!(strs.len(), 1);
        assert!(w.take_emitted::<u32>().is_empty() && w.take_emitted::<&str>().is_empty());
    }

    #[test]
    fn exit_stops_a_process() {
        struct Quit;
        impl Process for Quit {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _: ProcId, _: Msg) {
                ctx.exit();
            }
        }
        let mut w = World::new(0);
        let n = w.add_node("x");
        let p = w.add_process(n, Quit);
        w.inject(p, 0u8);
        w.inject(p, 0u8);
        w.run_until_idle();
        assert!(!w.is_proc_alive(p));
    }

    #[test]
    fn max_events_guard() {
        struct Loopy;
        impl Process for Loopy {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerId, _: u64) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        let mut w = World::new(0);
        let n = w.add_node("x");
        let _ = w.add_process(n, Loopy);
        w.set_max_events(100);
        w.run_until_idle();
        assert_eq!(w.events_processed(), 100);
    }

    #[test]
    fn partition_blocks_then_heals() {
        let (mut w, a, b) = two_node_world();
        let echo = w.add_process(b, Echo { got: vec![] });
        let pinger = w.add_process(
            a,
            Pinger {
                peer: echo,
                count: 1,
                replies: vec![],
            },
        );
        w.set_partition_group(b, 1);
        w.run_until_idle();
        assert!(w.proc_ref::<Echo>(echo).unwrap().got.is_empty());
        w.network_mut().heal_partitions();
        // Pinger already sent; resend via inject to prove healing.
        w.inject(echo, 9u32);
        w.run_until_idle();
        assert_eq!(w.proc_ref::<Echo>(echo).unwrap().got, vec![9]);
        let _ = pinger;
    }

    #[test]
    fn restart_drops_stale_timers() {
        struct T {
            fired: u32,
        }
        impl Process for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(10), 7);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcId, _: Msg) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: TimerId, _: u64) {
                self.fired += 1;
            }
        }
        let mut w = World::with_network(0, NetworkConfig::ideal());
        let n = w.add_node("x");
        let p = w.add_process(n, T { fired: 0 });
        w.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        w.crash_node(n);
        w.revive_node(n);
        assert_eq!(w.proc_incarnation(p), 1);
        assert_eq!(w.restart_proc(p, Box::new(T { fired: 0 })), 2);
        w.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        // Incarnation 1's timer (due t=10s) is discarded; only incarnation
        // 2's own timer (armed on restart, due t=11s) fires.
        assert_eq!(w.proc_ref::<T>(p).unwrap().fired, 1);
    }

    #[test]
    fn disk_survives_crash_and_revive() {
        let (mut w, a, _b) = two_node_world();
        w.disk_mut(a).append("wal", b"ab");
        let now = w.now();
        assert!(w.disk_mut(a).fsync("wal", now));
        w.disk_mut(a).append("wal", b"cd");
        w.crash_node(a);
        w.revive_node(a);
        // Durable prefix survives the power cycle; the unsynced tail is gone.
        assert_eq!(w.disk(a).read("wal").unwrap(), b"ab");
    }

    #[test]
    fn proc_downcast_wrong_type_is_none() {
        let mut w = World::new(0);
        let n = w.add_node("x");
        let p = w.add_process(n, Echo { got: vec![] });
        assert!(w.proc_ref::<Pinger>(p).is_none());
        assert!(w.proc_ref::<Echo>(p).is_some());
    }
}
