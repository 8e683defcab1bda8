//! ROADMAP item 1's sequencer retransmissions, shown inside `jrs-gcs`:
//! four `GcsProcess` members on the default hub network (seed 2006), 100
//! broadcasts from member 0 sent 150 ms apart, nothing crashed, dropped or
//! partitioned. The only difference between the two tests is
//! `GroupConfig::cost`.
//!
//! Observed at the time of writing, summed over the members:
//! - with the zero table (`FrameCost::default()`), 0 retransmissions,
//!   0 views and all 400 deliveries;
//! - with `FrameCost::TRANSIS`, 1 600 retransmissions, still with 0 views
//!   and 0 ejections. At 2 and 3 members the same run gives 352 and 900.
//!
//! So the storm needs no `JoshuaServer`: the charged frames of one output
//! leave up to tens of ms after `LinkManager::send` started their
//! retransmission clock, past `rto` = 25 ms. The charged test is ignored
//! until item 1's fix lands; `cargo test -p jrs-gcs --test charged_links
//! -- --ignored` runs it, and it fails with that count.

use jrs_gcs::config::{FrameCost, GroupConfig};
use jrs_gcs::simharness::{GcsCommand, GcsProcess};
use jrs_gcs::GcsEvent;
use jrs_sim::{NetworkConfig, ProcId, SimDuration, SimTime, World};

type Payload = u32;

const MEMBERS: u32 = 4;
const BROADCASTS: u32 = 100;

/// What the run left behind, summed over the members.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    retransmissions: u64,
    views: u64,
    ejections: u64,
    deliveries: usize,
}

fn run(cost: FrameCost) -> Counts {
    let mut world = World::with_network(2006, NetworkConfig::default());
    let ids: Vec<ProcId> = (0..MEMBERS).map(ProcId).collect();
    let config = GroupConfig {
        cost,
        ..GroupConfig::default()
    };
    for id in &ids {
        let node = world.add_node(format!("head-{id}"));
        let member = GcsProcess::<Payload>::new(*id, config.clone(), ids.clone());
        assert_eq!(world.add_process(node, member), *id);
    }
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let sender = ids[0];
    for i in 0..BROADCASTS {
        world.schedule_at(at(100 + 150 * u64::from(i)), move |w| {
            w.inject(sender, GcsCommand::Broadcast(i));
        });
    }
    let last = 100 + 150 * u64::from(BROADCASTS - 1);
    world.run_until(at(last + 5_000));

    let deliveries = world
        .take_emitted::<GcsEvent<Payload>>()
        .into_iter()
        .filter(|(_, _, ev)| matches!(ev, GcsEvent::Deliver { .. }))
        .count();
    let mut counts = Counts {
        retransmissions: 0,
        views: 0,
        ejections: 0,
        deliveries,
    };
    for id in &ids {
        let member = world
            .proc_ref::<GcsProcess<Payload>>(*id)
            .expect("member alive");
        let stats = member.member().stats();
        counts.retransmissions += stats.retransmissions;
        counts.views += stats.view_changes;
        counts.ejections += stats.ejections;
    }
    counts
}

#[test]
fn uncharged_members_retransmit_nothing() {
    assert_eq!(
        run(FrameCost::default()),
        Counts {
            retransmissions: 0,
            views: 0,
            ejections: 0,
            deliveries: (MEMBERS * BROADCASTS) as usize,
        }
    );
}

#[test]
#[ignore = "ROADMAP item 1"]
fn transis_charged_members_retransmit_nothing() {
    let counts = run(FrameCost::TRANSIS);
    assert_eq!(
        counts.retransmissions, 0,
        "fault-free members charged FrameCost::TRANSIS retransmitted {} link frames ({counts:?})",
        counts.retransmissions
    );
}
