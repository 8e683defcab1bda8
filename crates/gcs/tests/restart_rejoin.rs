//! ROADMAP item 1(c), inside `jrs-gcs`: a member restarted in place under
//! its old process id rejoins, and the group keeps ordering.
//!
//! Three `GroupHost<u32>` members on the default hub network (seed 2006),
//! zero frame cost. A member broadcasts from the upcall of the
//! `ViewChange` that lists it in `joined`, as `JoshuaServer` does with its
//! `Hello`. p0 crashes at 5 s; at 10 s its node is revived and a fresh
//! member boots under the same id with p1 and p2 as contacts. p0 then
//! broadcasts 5 payloads at 20-24 s and p2 5 at 30-34 s.
//!
//! The flush that admits p0 is coordinated by p1, which installs the new
//! view last. When the engine made rank 0 (the joiner p0) the sequencer,
//! p0's first ordered frame reached p1 before p1 had installed the view
//! and was dropped after the link acked it; every later broadcast waited
//! behind that sequence number, so none of the 11 was delivered anywhere.
//! The view's leader is now the coordinator that installed it.

use jrs_gcs::simharness::{GcsCommand, GroupHost};
use jrs_gcs::{GcsEvent, GroupConfig};
use jrs_sim::{
    Ctx, Msg, NetworkConfig, ProcId, Process, SimDuration, SimTime, TimerId, World, EXTERNAL,
};

/// A member that broadcasts once from its own join `ViewChange`.
struct Rejoiner {
    host: GroupHost<u32>,
}

impl Rejoiner {
    fn new(me: ProcId, contacts: Vec<ProcId>) -> Self {
        Rejoiner {
            host: GroupHost::new(me, GroupConfig::default(), contacts),
        }
    }

    fn publish(&mut self, ctx: &mut Ctx<'_>, mut events: Vec<GcsEvent<u32>>) {
        let me = self.host.member().me();
        let mut joined_now = false;
        for ev in events.drain(..) {
            joined_now |=
                matches!(&ev, GcsEvent::ViewChange { joined, .. } if joined.contains(&me));
            ctx.emit(ev);
        }
        self.host.recycle(events);
        if joined_now {
            let events = self.host.broadcast(ctx, 1000 + me.0);
            self.publish(ctx, events);
        }
    }
}

impl Process for Rejoiner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let events = self.host.start(ctx);
        self.publish(ctx, events);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
        let events = if from == EXTERNAL {
            let Ok(cmd) = msg.downcast::<GcsCommand<u32>>() else {
                return;
            };
            let GcsCommand::Broadcast(p) = *cmd else {
                return;
            };
            self.host.broadcast(ctx, p)
        } else {
            let Ok(events) = self.host.on_message(ctx, from, msg) else {
                return;
            };
            events
        };
        self.publish(ctx, events);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, tag: u64) {
        if let Some(events) = self.host.on_timer(ctx, tag) {
            self.publish(ctx, events);
        }
    }

    fn periodic_idle(&self, now: SimTime, tag: u64) -> bool {
        self.host.periodic_idle(now, tag)
    }
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[test]
fn member_zero_restarted_in_place_rejoins_and_ordering_continues() {
    let mut world = World::with_network(2006, NetworkConfig::default());
    let ids: Vec<ProcId> = (0..3).map(ProcId).collect();
    for &id in &ids {
        let node = world.add_node(format!("head-{id}"));
        assert_eq!(world.add_process(node, Rejoiner::new(id, ids.clone())), id);
    }
    let (p0, p2) = (ids[0], ids[2]);
    let node0 = world.node_of(p0);
    world.schedule_at(at(5_000), move |w| w.crash_node(node0));
    world.schedule_at(at(10_000), move |w| {
        w.revive_node(node0);
        w.restart_proc(p0, Box::new(Rejoiner::new(p0, vec![ProcId(1), p2])));
    });
    for i in 0..5u32 {
        world.schedule_at(at(20_000 + 1_000 * u64::from(i)), move |w| {
            w.inject(p0, GcsCommand::Broadcast(i));
        });
        world.schedule_at(at(30_000 + 1_000 * u64::from(i)), move |w| {
            w.inject(p2, GcsCommand::Broadcast(100 + i));
        });
    }
    world.run_until(at(60_000));

    let mut delivered = vec![0usize; ids.len()];
    for (_, who, ev) in world.take_emitted::<GcsEvent<u32>>() {
        if matches!(ev, GcsEvent::Deliver { .. }) {
            delivered[who.index()] += 1;
        }
    }
    assert_eq!(
        delivered,
        vec![11; ids.len()],
        "deliveries by member: the install-time broadcast of p0 and ten later ones"
    );
}
