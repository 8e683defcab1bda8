//! The group communication system over the realistic `jrs-sim` network:
//! latency jitter, shared-hub contention, message loss and node crashes.

use jrs_gcs::config::GroupConfig;
use jrs_gcs::simharness::{GcsCommand, GcsProcess};
use jrs_gcs::GcsEvent;
use jrs_sim::{NetworkConfig, NodeId, ProcId, SimDuration, SimTime, World};
use std::collections::BTreeMap;

type Payload = u32;

struct Cluster {
    world: World,
    procs: Vec<ProcId>,
    nodes: Vec<NodeId>,
}

fn build(n: u32, seed: u64, net: NetworkConfig, cfg: GroupConfig) -> Cluster {
    let mut world = World::with_network(seed, net);
    let mut nodes = Vec::new();
    // ProcIds are assigned sequentially from 0 by the world, so the member
    // list is known up front.
    let ids: Vec<ProcId> = (0..n).map(ProcId).collect();
    let mut procs = Vec::new();
    for i in 0..n {
        let node = world.add_node(format!("head-{i}"));
        nodes.push(node);
        let p = world.add_process(
            node,
            GcsProcess::<Payload>::new(ids[i as usize], cfg.clone(), ids.clone()),
        );
        assert_eq!(p, ids[i as usize]);
        procs.push(p);
    }
    Cluster {
        world,
        procs,
        nodes,
    }
}

/// Collect per-member delivered payload sequences from emitted events.
fn deliveries(world: &mut World) -> BTreeMap<ProcId, Vec<(u64, Payload)>> {
    let mut map: BTreeMap<ProcId, Vec<(u64, Payload)>> = BTreeMap::new();
    for (_t, from, ev) in world.take_emitted::<GcsEvent<Payload>>() {
        if let GcsEvent::Deliver { seq, payload, .. } = ev {
            map.entry(from).or_default().push((seq, payload));
        }
    }
    map
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[test]
fn agreement_over_default_hub_network() {
    let mut c = build(4, 11, NetworkConfig::default(), GroupConfig::default());
    // 40 broadcasts interleaved from all members.
    for i in 0..40u32 {
        let who = c.procs[(i % 4) as usize];
        c.world.schedule_at(at(100 + i as u64 * 10), move |w| {
            w.inject(who, GcsCommand::Broadcast(i));
        });
    }
    c.world.run_until(at(3000));
    let d = deliveries(&mut c.world);
    let reference = &d[&c.procs[0]];
    assert_eq!(reference.len(), 40);
    for p in &c.procs {
        assert_eq!(&d[p], reference, "member {p} diverged");
    }
    // Gap-free sequence numbers.
    for (i, (seq, _)) in reference.iter().enumerate() {
        assert_eq!(*seq, i as u64 + 1);
    }
}

#[test]
fn agreement_under_five_percent_loss() {
    let mut net = NetworkConfig::default();
    net.lan.drop_prob = 50; // 5% loss, per-mille
    let mut c = build(3, 7, net, GroupConfig::default());
    for i in 0..30u32 {
        let who = c.procs[(i % 3) as usize];
        c.world.schedule_at(at(100 + i as u64 * 20), move |w| {
            w.inject(who, GcsCommand::Broadcast(i));
        });
    }
    c.world.run_until(at(8000));
    let d = deliveries(&mut c.world);
    let reference = &d[&c.procs[0]];
    assert_eq!(reference.len(), 30, "lost messages despite reliable links");
    for p in &c.procs {
        assert_eq!(&d[p], reference);
    }
    // Loss must actually have occurred for this test to mean anything.
    assert!(c.world.network().dropped_loss > 0);
}

#[test]
fn head_node_crash_mid_burst_over_sim() {
    let mut c = build(3, 23, NetworkConfig::default(), GroupConfig::default());
    for i in 0..30u32 {
        let who = c.procs[(i % 2 + 1) as usize]; // only members 1 and 2 submit
        c.world.schedule_at(at(100 + i as u64 * 15), move |w| {
            w.inject(who, GcsCommand::Broadcast(i));
        });
    }
    // Crash the sequencer (member 0) in the middle of the burst.
    let dead_node = c.nodes[0];
    c.world
        .schedule_at(at(300), move |w| w.crash_node(dead_node));
    c.world.run_until(at(6000));
    let d = deliveries(&mut c.world);
    let d1: Vec<(u64, Payload)> = d[&c.procs[1]].clone();
    let d2: Vec<(u64, Payload)> = d[&c.procs[2]].clone();
    // Survivors agree and eventually delivered every submission (each
    // submission survives in its origin's pending buffer across the view
    // change).
    assert_eq!(d1, d2, "survivors diverged after crash");
    let payloads: Vec<Payload> = d1.iter().map(|(_, p)| *p).collect();
    for i in 0..30u32 {
        assert!(
            payloads.contains(&i),
            "submission {i} lost across view change"
        );
    }
    // View shrank to the survivors.
    let m1 = c
        .world
        .proc_ref::<GcsProcess<Payload>>(c.procs[1])
        .unwrap()
        .member();
    assert_eq!(m1.view().members, vec![c.procs[1], c.procs[2]]);
}

#[test]
fn deterministic_same_seed() {
    let run = |seed: u64| {
        let mut c = build(4, seed, NetworkConfig::default(), GroupConfig::default());
        for i in 0..20u32 {
            let who = c.procs[(i % 4) as usize];
            c.world.schedule_at(at(100 + i as u64 * 7), move |w| {
                w.inject(who, GcsCommand::Broadcast(i));
            });
        }
        let node = c.nodes[1];
        c.world.schedule_at(at(180), move |w| w.crash_node(node));
        c.world.run_until(at(4000));
        let d = deliveries(&mut c.world);
        (c.world.events_processed(), d)
    };
    let (e1, d1) = run(5);
    let (e2, d2) = run(5);
    assert_eq!(e1, e2, "same seed must process the same number of events");
    assert_eq!(d1, d2, "same seed must produce identical deliveries");
}

#[test]
fn long_soak_with_periodic_traffic_stays_stable() {
    // The paper reports Transis crashing after days of excessive load;
    // this soak pushes continuous traffic through the group and asserts
    // liveness, agreement and bounded memory (log GC) at the end.
    let mut c = build(3, 99, NetworkConfig::default(), GroupConfig::default());
    for i in 0..500u32 {
        let who = c.procs[(i % 3) as usize];
        c.world.schedule_at(at(50 + i as u64 * 20), move |w| {
            w.inject(who, GcsCommand::Broadcast(i));
        });
    }
    c.world.run_until(at(15_000));
    let d = deliveries(&mut c.world);
    let reference = &d[&c.procs[0]];
    assert_eq!(reference.len(), 500);
    for p in &c.procs {
        assert_eq!(&d[p], reference);
        let m = c
            .world
            .proc_ref::<GcsProcess<Payload>>(*p)
            .unwrap()
            .member();
        assert!(
            m.log_len() < 100,
            "ordered-message log not garbage collected: {}",
            m.log_len()
        );
    }
}
