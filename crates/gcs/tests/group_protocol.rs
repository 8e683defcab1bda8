//! Protocol-level tests of the group member state machine, driven through
//! the in-memory pump (zero-latency FIFO network, manual time control).

use jrs_gcs::config::{EngineKind, GroupConfig};
use jrs_gcs::testkit::Pump;
use jrs_sim::{ProcId, SimDuration};

fn p(i: u32) -> ProcId {
    ProcId(i)
}

fn cfg(kind: EngineKind) -> GroupConfig {
    GroupConfig::with_engine(kind)
}

fn cfg_primary() -> GroupConfig {
    GroupConfig {
        membership: jrs_gcs::MembershipPolicy::PrimaryComponent,
        ..GroupConfig::default()
    }
}

/// Tick long enough for failure detection + flush to complete.
fn settle(pump: &mut Pump<&'static str>) {
    pump.tick_for(SimDuration::from_millis(1500));
}

/// Two ticks: the sequencer announces stability, and followers deliver.
fn stabilize(pump: &mut Pump<&'static str>) {
    pump.tick_for(SimDuration::from_millis(10));
}

#[test]
fn bootstrap_group_agrees_on_initial_view() {
    let pump: Pump<&'static str> = Pump::group(3, cfg(EngineKind::Sequencer));
    for i in 0..3 {
        assert_eq!(pump.view_of(p(i)), vec![p(0), p(1), p(2)]);
        assert!(pump.members[&p(i)].is_installed());
    }
}

#[test]
fn broadcasts_totally_ordered_across_members() {
    let mut pump = Pump::group(3, cfg(EngineKind::Sequencer));
    pump.broadcast(p(0), "a");
    pump.broadcast(p(1), "b");
    pump.broadcast(p(2), "c");
    pump.broadcast(p(1), "d");
    stabilize(&mut pump);
    let order = pump.assert_agreement();
    assert_eq!(order.len(), 4);
    // Sequence numbers are gap-free from 1.
    let seqs: Vec<u64> = order.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, vec![1, 2, 3, 4]);
    // Everyone (including origins) delivered all four payloads.
    for i in 0..3 {
        assert_eq!(pump.delivered_payloads(p(i)).len(), 4);
    }
}

#[test]
fn fifo_per_origin_is_preserved() {
    let mut pump = Pump::group(2, cfg(EngineKind::Sequencer));
    for pay in ["m1", "m2", "m3", "m4", "m5"] {
        pump.broadcast(p(1), pay);
    }
    stabilize(&mut pump);
    let d0 = pump.delivered_payloads(p(0));
    assert_eq!(d0, vec!["m1", "m2", "m3", "m4", "m5"]);
}

#[test]
fn crash_of_follower_shrinks_view_and_service_continues() {
    let mut pump = Pump::group(3, cfg(EngineKind::Sequencer));
    pump.broadcast(p(0), "before");
    pump.crash(p(2));
    settle(&mut pump);
    assert_eq!(pump.view_of(p(0)), vec![p(0), p(1)]);
    assert_eq!(pump.view_of(p(1)), vec![p(0), p(1)]);
    pump.broadcast(p(1), "after");
    stabilize(&mut pump);
    pump.assert_agreement();
    assert_eq!(pump.delivered_payloads(p(0)), vec!["before", "after"]);
}

#[test]
fn crash_of_sequencer_reelects_and_preserves_pending() {
    let mut pump = Pump::group(3, cfg(EngineKind::Sequencer));
    pump.broadcast(p(0), "one");
    // Crash the sequencer (lowest rank = p0).
    pump.crash(p(0));
    // A member submits while the group is still detecting the failure;
    // the submission must survive the view change.
    pump.broadcast(p(1), "two");
    settle(&mut pump);
    assert_eq!(pump.view_of(p(1)), vec![p(1), p(2)]);
    let d1 = pump.delivered_payloads(p(1));
    let d2 = pump.delivered_payloads(p(2));
    assert!(d1.contains(&"two"), "pending submission lost: {d1:?}");
    assert_eq!(d1, d2);
}

#[test]
fn simultaneous_double_crash_recovers() {
    let mut pump = Pump::group(4, cfg(EngineKind::Sequencer));
    pump.broadcast(p(3), "x");
    pump.crash(p(0));
    pump.crash(p(1));
    settle(&mut pump);
    assert_eq!(pump.view_of(p(2)), vec![p(2), p(3)]);
    assert_eq!(pump.view_of(p(3)), vec![p(2), p(3)]);
    pump.broadcast(p(2), "y");
    stabilize(&mut pump);
    pump.assert_agreement();
}

#[test]
fn cascade_down_to_single_member() {
    let mut pump = Pump::group(4, cfg(EngineKind::Sequencer));
    for (i, pay) in ["a", "b", "c"].into_iter().enumerate() {
        pump.broadcast(p(i as u32), pay);
    }
    pump.crash(p(0));
    settle(&mut pump);
    pump.crash(p(1));
    settle(&mut pump);
    pump.crash(p(2));
    settle(&mut pump);
    assert_eq!(pump.view_of(p(3)), vec![p(3)]);
    // The last member still provides service.
    pump.broadcast(p(3), "solo");
    assert!(pump.delivered_payloads(p(3)).contains(&"solo"));
}

#[test]
fn voluntary_leave_is_fast() {
    let mut pump = Pump::group(3, cfg(EngineKind::Sequencer));
    pump.leave(p(1));
    // Leave condemns immediately: a single failure-detection round is not
    // needed, only the flush. Give it a few ticks.
    pump.tick_for(SimDuration::from_millis(200));
    assert_eq!(pump.view_of(p(0)), vec![p(0), p(2)]);
    pump.broadcast(p(2), "post-leave");
    stabilize(&mut pump);
    pump.assert_agreement();
}

#[test]
fn joiner_is_admitted_and_delivers_only_new_messages() {
    let mut pump = Pump::group(2, cfg(EngineKind::Sequencer));
    pump.broadcast(p(0), "old");
    pump.add_joiner(p(7), vec![p(0), p(1)]);
    settle(&mut pump);
    assert_eq!(pump.view_of(p(0)), vec![p(0), p(1), p(7)]);
    assert_eq!(pump.view_of(p(7)), vec![p(0), p(1), p(7)]);
    pump.broadcast(p(7), "new");
    stabilize(&mut pump);
    let d7 = pump.delivered_payloads(p(7));
    assert_eq!(d7, vec!["new"], "joiner must not see pre-join history");
    let d0 = pump.delivered_payloads(p(0));
    assert_eq!(d0, vec!["old", "new"]);
}

#[test]
fn join_then_crash_then_join_again() {
    let mut pump = Pump::group(2, cfg(EngineKind::Sequencer));
    pump.add_joiner(p(5), vec![p(0), p(1)]);
    settle(&mut pump);
    assert_eq!(pump.view_of(p(0)).len(), 3);
    pump.crash(p(5));
    settle(&mut pump);
    assert_eq!(pump.view_of(p(0)).len(), 2);
    pump.add_joiner(p(6), vec![p(0), p(1)]);
    settle(&mut pump);
    assert_eq!(pump.view_of(p(0)).len(), 3);
    pump.broadcast(p(6), "works");
    stabilize(&mut pump);
    pump.assert_agreement();
}

#[test]
fn minority_partition_blocks_majority_continues() {
    let mut pump = Pump::group(3, cfg_primary());
    // Cut p2 off from p0 and p1.
    pump.partition(p(2), p(0));
    pump.partition(p(2), p(1));
    settle(&mut pump);
    // Majority side moved on.
    assert_eq!(pump.view_of(p(0)), vec![p(0), p(1)]);
    assert_eq!(pump.view_of(p(1)), vec![p(0), p(1)]);
    pump.broadcast(p(0), "majority-only");
    assert!(pump.delivered_payloads(p(0)).contains(&"majority-only"));
    // Minority side must NOT have formed its own one-node view.
    let v2 = pump.view_of(p(2));
    assert_ne!(v2, vec![p(2)], "minority formed a split-brain view");
    assert!(!pump.delivered_payloads(p(2)).contains(&"majority-only"));
}

#[test]
fn healed_minority_rejoins_via_ejection() {
    let mut pump = Pump::group(3, cfg_primary());
    pump.partition(p(2), p(0));
    pump.partition(p(2), p(1));
    settle(&mut pump);
    pump.broadcast(p(0), "while-away");
    pump.heal();
    // Needs: behind detection (2x flush timeout) + rejoin flush.
    pump.tick_for(SimDuration::from_secs(4));
    assert_eq!(pump.view_of(p(0)), vec![p(0), p(1), p(2)]);
    assert_eq!(pump.view_of(p(2)), vec![p(0), p(1), p(2)]);
    assert!(pump.ejections.get(&p(2)).copied().unwrap_or(0) >= 1);
    // After rejoining, p2 participates again.
    pump.broadcast(p(2), "back");
    stabilize(&mut pump);
    assert!(pump.delivered_payloads(p(0)).contains(&"back"));
    assert!(pump.delivered_payloads(p(2)).contains(&"back"));
}

#[test]
fn token_engine_orders_across_members() {
    let mut pump = Pump::group(3, cfg(EngineKind::Token));
    pump.broadcast(p(2), "a");
    // Token must circulate before non-holders can order.
    pump.tick_for(SimDuration::from_millis(100));
    pump.broadcast(p(1), "b");
    pump.tick_for(SimDuration::from_millis(100));
    pump.broadcast(p(0), "c");
    pump.tick_for(SimDuration::from_millis(100));
    let order = pump.assert_agreement();
    assert_eq!(order.len(), 3);
    for i in 0..3 {
        assert_eq!(pump.delivered_payloads(p(i)).len(), 3);
    }
}

#[test]
fn token_engine_survives_holder_crash() {
    let mut pump = Pump::group(3, cfg(EngineKind::Token));
    pump.broadcast(p(0), "pre");
    pump.tick_for(SimDuration::from_millis(50));
    // Crash the leader (token origin).
    pump.crash(p(0));
    settle(&mut pump);
    assert_eq!(pump.view_of(p(1)), vec![p(1), p(2)]);
    pump.broadcast(p(1), "post");
    pump.tick_for(SimDuration::from_millis(200));
    let d1 = pump.delivered_payloads(p(1));
    let d2 = pump.delivered_payloads(p(2));
    assert!(d1.contains(&"post"));
    assert_eq!(d1, d2);
}

#[test]
fn stability_gc_bounds_log_growth() {
    let mut pump = Pump::group(3, cfg(EngineKind::Sequencer));
    for i in 0..200 {
        let pay: &'static str = Box::leak(format!("m{i}").into_boxed_str());
        pump.broadcast(p(i % 3), pay);
        if i % 10 == 0 {
            // Let heartbeats carry stability info.
            pump.tick_for(SimDuration::from_millis(60));
        }
    }
    pump.tick_for(SimDuration::from_millis(600));
    for i in 0..3 {
        let log = pump.members[&p(i)].log_len();
        assert!(log < 50, "member {i} log grew to {log} entries (GC broken)");
    }
    pump.assert_agreement();
}

#[test]
fn hundreds_of_broadcasts_remain_consistent() {
    let mut pump = Pump::group(4, cfg(EngineKind::Sequencer));
    for i in 0..300u32 {
        let pay: &'static str = Box::leak(format!("j{i}").into_boxed_str());
        pump.broadcast(p(i % 4), pay);
    }
    stabilize(&mut pump);
    let order = pump.assert_agreement();
    assert_eq!(order.len(), 300);
}

#[test]
fn view_change_during_burst_loses_nothing_from_survivors() {
    let mut pump = Pump::group(3, cfg(EngineKind::Sequencer));
    for i in 0..20u32 {
        let pay: &'static str = Box::leak(format!("pre{i}").into_boxed_str());
        pump.broadcast(p(i % 3), pay);
    }
    pump.crash(p(0));
    // Survivors keep submitting during the reconfiguration window.
    for i in 0..10u32 {
        let who = p(1 + (i % 2));
        let pay: &'static str = Box::leak(format!("mid{i}").into_boxed_str());
        pump.broadcast(who, pay);
    }
    settle(&mut pump);
    let d1 = pump.delivered_payloads(p(1));
    let d2 = pump.delivered_payloads(p(2));
    assert_eq!(d1, d2, "survivors diverged");
    for i in 0..10 {
        let want = format!("mid{i}");
        assert!(
            d1.iter().any(|s| *s == want),
            "lost survivor submission {want}"
        );
    }
}
