//! Regression test distilled from a proptest counterexample: a surviving
//! original member is ejected during a storm of joins and leaves; its
//! pending (unacknowledged) submission is wiped by the ejection reset, but
//! the group must still converge to a consistent, live view.

use jrs_gcs::config::GroupConfig;
use jrs_gcs::testkit::Pump;
use jrs_sim::{ProcId, SimDuration};

#[test]
fn churn_storm_converges_despite_ejection() {
    let mut pump: Pump<u32> = Pump::group(3, GroupConfig::default());
    let tick = SimDuration::from_millis(5);
    pump.leave(ProcId(0));
    pump.add_joiner(ProcId(100), vec![ProcId(1), ProcId(2)]);
    pump.leave(ProcId(1));
    pump.tick_for(tick);
    pump.add_joiner(ProcId(101), vec![ProcId(2), ProcId(100)]);
    pump.add_joiner(ProcId(102), vec![ProcId(2), ProcId(100), ProcId(101)]);
    pump.crash(ProcId(101));
    pump.add_joiner(ProcId(103), vec![ProcId(2), ProcId(100), ProcId(102)]);
    pump.leave(ProcId(102));
    pump.tick_for(tick);
    pump.leave(ProcId(103));
    pump.broadcast(ProcId(2), 0);
    pump.tick_for(SimDuration::from_secs(3));

    // Both survivors converge to the same installed, unblocked view.
    assert_eq!(pump.view_of(ProcId(2)), vec![ProcId(2), ProcId(100)]);
    assert_eq!(pump.view_of(ProcId(100)), vec![ProcId(2), ProcId(100)]);
    for id in [ProcId(2), ProcId(100)] {
        assert!(pump.members[&id].is_installed());
        assert!(!pump.members[&id].is_blocked());
    }
    // The submission either survived (delivered everywhere) or its origin
    // was ejected and legitimately lost the pending. Either way, the group
    // is live afterwards.
    let delivered = pump.delivered_payloads(ProcId(2)).contains(&0);
    let ejected = pump.ejections.get(&ProcId(2)).copied().unwrap_or(0) > 0;
    assert!(
        delivered || ejected,
        "payload silently lost without ejection"
    );
    pump.broadcast(ProcId(100), 7);
    // Followers deliver after the collector's (tick-batched) stability
    // announcement.
    pump.tick_for(tick);
    pump.tick_for(tick);
    assert!(pump.delivered_payloads(ProcId(2)).contains(&7));
    assert!(pump.delivered_payloads(ProcId(100)).contains(&7));
    // The pump checked every delivery on the way: one payload and one
    // view per sequence number, the ejected member's included.
    pump.assert_agreement();
}
