//! Regression test for a flush-protocol wedge found by the `jrs-mc`
//! bounded model checker (minimized counterexample: `submit,
//! deliver:0-2, tick, deliver:2-0, tick, deliver:0-2, tick, tick,
//! tick`, then quiescence).
//!
//! Transient asymmetric silence makes p0 suspect p1 and start a flush
//! proposing `[p0, p2]`; ten milliseconds later p0 also suspects p2 and
//! *restarts* with proposal `[p0]`. Before the fixes this orphaned p2:
//!
//! 1. the restarted attempt never aborted the superseded epoch, so p2
//!    stayed `Blocked` on a flush nobody was coordinating;
//! 2. a blocked member's stall handling only condemned the coordinator
//!    locally — the next heartbeat cleared the condemnation and the
//!    member halted forever instead of taking over or resuming;
//! 3. acks absorbed by the collector while halted advanced stability
//!    without setting the announce flag, so followers never learned the
//!    message was stable even after everyone resumed.
//!
//! With the fixes, the group heals in place (no view change is needed —
//! the silence was transient) and all members deliver.

use jrs_gcs::testkit::{Pump, Step};
use jrs_gcs::{EngineKind, FrameCost, GroupConfig, MembershipPolicy};
use jrs_sim::{ProcId, SimDuration};

fn cfg() -> GroupConfig {
    GroupConfig {
        engine: EngineKind::Sequencer,
        membership: MembershipPolicy::PrimaryComponent,
        tick_every: SimDuration::from_millis(10),
        heartbeat_every: SimDuration::from_millis(20),
        fail_after: SimDuration::from_millis(45),
        rto: SimDuration::from_millis(15),
        flush_timeout: SimDuration::from_millis(60),
        token_idle_pass: SimDuration::from_millis(10),
        request_retry: SimDuration::from_millis(30),
        payload_bytes: 128,
        cost: FrameCost::default(),
    }
}

#[test]
fn orphaned_flush_epoch_recovers_and_delivers() {
    let (p0, p2) = (ProcId(0), ProcId(2));
    let mut pump: Pump<u64> = Pump::group(3, cfg());
    pump.submit(p0, 7).expect("no guarantee broken");
    // Asymmetric partial connectivity: only a few frames move between
    // p0 and p2 while p1 hears nothing, until p0's detector fires.
    let steps = [
        Step::Deliver { from: p0, to: p2 },
        Step::Tick,
        Step::Deliver { from: p2, to: p0 },
        Step::Tick,
        Step::Deliver { from: p0, to: p2 },
        Step::Tick,
        Step::Tick,
        Step::Tick,
        // Heal: run to quiescence with regular ticks and full delivery.
        Step::Advance(28),
    ];
    for (i, step) in steps.into_iter().enumerate() {
        let applied = pump.apply(step, || 0).expect("no guarantee broken");
        assert!(applied || i > 0, "the first frame crosses");
    }
    pump.assert_agreement();
    for (id, m) in &pump.members {
        assert!(
            !m.is_blocked(),
            "{id:?} must resume ordering after the orphaned flush"
        );
    }
    let d0 = pump.delivered_payloads(ProcId(0));
    assert_eq!(d0, vec![7], "p0 must deliver the payload");
    for p in [1u32, 2] {
        assert_eq!(
            pump.delivered_payloads(ProcId(p)),
            d0,
            "p{p} must deliver the same prefix"
        );
    }
}
