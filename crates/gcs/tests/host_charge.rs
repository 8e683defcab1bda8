//! What [`GroupHost`] owns, written down once: the frame cost in
//! `GroupConfig::cost` moves *when* frames leave, never *what* the group
//! delivers, and the frames of one `Output` are charged serially (each
//! leaves one charge after the previous one — the serial-CPU rule the
//! cost calibration rests on).

use jrs_gcs::config::{FrameCost, GroupConfig};
use jrs_gcs::simharness::GroupHost;
use jrs_gcs::GcsEvent;
use jrs_sim::{
    Ctx, Msg, NetworkConfig, ProcId, Process, SimDuration, SimTime, TimerId, World, EXTERNAL,
};
use std::collections::BTreeMap;

type Payload = u32;

/// A bare embedder: publishes the upcalls and notes when each peer frame
/// arrived.
struct Hosted {
    host: GroupHost<Payload>,
    arrivals: Vec<(SimTime, ProcId)>,
}

fn publish(ctx: &mut Ctx<'_>, events: Vec<GcsEvent<Payload>>) {
    for ev in events {
        ctx.emit(ev);
    }
}

impl Process for Hosted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let events = self.host.start(ctx);
        publish(ctx, events);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
        let events = if from == EXTERNAL {
            let Ok(p) = msg.downcast::<Payload>() else {
                return;
            };
            self.host.broadcast(ctx, *p)
        } else {
            self.arrivals.push((ctx.now(), from));
            let Ok(events) = self.host.on_message(ctx, from, msg) else {
                return;
            };
            events
        };
        publish(ctx, events);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, tag: u64) {
        if let Some(events) = self.host.on_timer(ctx, tag) {
            publish(ctx, events);
        }
    }
}

type Delivered = BTreeMap<ProcId, Vec<(u64, ProcId, Payload)>>;

/// Three members on the ideal network (constant 10 us LAN latency), 12
/// broadcasts round-robin 50 ms apart. Returns what each member
/// delivered and, per receiver, when member 0's first frame arrived.
fn run(charge: SimDuration) -> (Delivered, Vec<SimTime>) {
    let mut world = World::with_network(7, NetworkConfig::ideal());
    let ids: Vec<ProcId> = (0..3).map(ProcId).collect();
    for id in &ids {
        let node = world.add_node(format!("head-{id}"));
        let cost = FrameCost {
            frame: charge,
            ack: charge,
            background: charge,
        };
        let config = GroupConfig {
            cost,
            ..GroupConfig::default()
        };
        let host = GroupHost::new(*id, config, ids.clone());
        assert_eq!(
            world.add_process(
                node,
                Hosted {
                    host,
                    arrivals: Vec::new()
                }
            ),
            *id
        );
    }
    for i in 0..12u32 {
        let who = ids[(i % 3) as usize];
        let at = SimTime::ZERO + SimDuration::from_millis(100 + 50 * u64::from(i));
        world.schedule_at(at, move |w| w.inject(who, i));
    }
    world.run_until(SimTime::ZERO + SimDuration::from_secs(2));

    let mut delivered = Delivered::new();
    for (_t, at, ev) in world.take_emitted::<GcsEvent<Payload>>() {
        match ev {
            GcsEvent::Deliver {
                seq,
                origin,
                payload,
            } => {
                delivered
                    .entry(at)
                    .or_default()
                    .push((seq, origin, payload));
            }
            other => panic!("fault-free run, yet {at} saw {other:?}"),
        }
    }
    let first_from_0 = ids[1..]
        .iter()
        .map(|p| {
            let hosted = world.proc_ref::<Hosted>(*p).expect("member alive");
            let first = hosted.arrivals.iter().find(|(_, from)| *from == ids[0]);
            first.expect("heard from member 0").0
        })
        .collect();
    (delivered, first_from_0)
}

#[test]
fn charge_moves_departures_not_deliveries() {
    let ms = SimDuration::from_millis(1);
    let (free, free_first) = run(SimDuration::ZERO);
    let (charged, charged_first) = run(ms);

    assert_eq!(free.len(), 3);
    for seq in free.values() {
        assert_eq!(seq.len(), 12, "every member delivers every broadcast");
    }
    assert_eq!(
        free, charged,
        "the charge must not change what is delivered, or in what order"
    );

    // Member 0's `start` output is one heartbeat per peer. Uncharged they
    // leave together; charged, each leaves one charge after the previous.
    let lan = SimDuration::from_micros(10);
    assert_eq!(free_first, [SimTime::ZERO + lan, SimTime::ZERO + lan]);
    assert_eq!(
        charged_first,
        [SimTime::ZERO + ms + lan, SimTime::ZERO + ms + ms + lan]
    );
}
