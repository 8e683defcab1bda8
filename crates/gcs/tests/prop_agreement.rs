//! Property-based tests: for arbitrary interleavings of broadcasts,
//! crashes, leaves and joins, the group communication system must uphold
//! its core invariants:
//!
//! 1. **Agreement** — all surviving members deliver the same sequence.
//! 2. **Gap-free total order** — delivered sequence numbers are 1..n.
//! 3. **FIFO per origin** — one origin's payloads are delivered in
//!    submission order.
//! 4. **No survivor loss** — a payload submitted by a member that stays
//!    alive to the end is eventually delivered.
//! 5. **Prefix property** — a crashed member's delivery sequence is a
//!    prefix-compatible subsequence of the survivors' (it never delivered
//!    something different at the same position).

use jrs_gcs::config::{EngineKind, GroupConfig};
use jrs_gcs::testkit::{Pump, Step};
use jrs_sim::{ProcId, SimDuration};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => any::<u8>().prop_map(Step::Broadcast),
        3 => (1u8..6).prop_map(Step::Advance),
        1 => any::<u8>().prop_map(Step::Crash),
        1 => any::<u8>().prop_map(Step::Leave),
        1 => Just(Step::Join),
    ]
}

/// Play one schedule; returns the pump and each surviving origin's
/// submitted payloads, in order. The pump checks every delivery as it
/// happens: one origin and one payload per sequence number, live or dead,
/// before or after ejection, one view per message, and increasing
/// sequence numbers per member.
fn play(
    kind: EngineKind,
    n_members: u32,
    steps: &[Step],
) -> (Pump<u32>, BTreeMap<ProcId, Vec<u32>>) {
    let mut pump: Pump<u32> = Pump::group(n_members, GroupConfig::with_engine(kind));
    let mut submitted: BTreeMap<ProcId, Vec<u32>> = BTreeMap::new();
    for (i, &step) in steps.iter().enumerate() {
        let payload = i as u32;
        match step {
            // Only count submissions from installed members: a joiner
            // queues them too, but if it never finishes joining the
            // payload is legitimately never delivered.
            Step::Broadcast(sel) if pump.members[&pump.pick(sel)].is_installed() => {
                submitted.entry(pump.pick(sel)).or_default().push(payload);
            }
            Step::Crash(sel) | Step::Leave(sel) if pump.members.len() > 1 => {
                submitted.remove(&pump.pick(sel));
            }
            _ => {}
        }
        if let Err(v) = pump.apply(step, || payload) {
            panic!("step {i} {step:?}: {v:?}");
        }
    }
    // Let everything settle: detection + flush + retries.
    pump.tick_for(SimDuration::from_secs(3));
    (pump, submitted)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every case runs under both ordering policies.
    #[test]
    fn agreement_under_random_schedules(
        n in 2u32..5,
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        for kind in [EngineKind::Sequencer, EngineKind::Token] {
            check_agreement(kind, n, &steps)
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
        }
    }
}

fn check_agreement(kind: EngineKind, n: u32, steps: &[Step]) -> Result<(), TestCaseError> {
    let (pump, submitted) = play(kind, n, steps);
    let live: Vec<ProcId> = pump.members.keys().copied().collect();
    prop_assert!(!live.is_empty());

    // (2) Gap-free order: a never-ejected member's delivered seqs are
    // contiguous from its first delivery (ejection legitimately skips
    // history — the application receives a state snapshot instead).
    for p in &live {
        if pump.ejections.get(p).copied().unwrap_or(0) > 0 {
            continue;
        }
        if let Some(dl) = pump.delivered.get(p) {
            for w in dl.windows(2) {
                prop_assert_eq!(
                    w[1].seq,
                    w[0].seq + 1,
                    "gap in member {}'s delivery order",
                    p
                );
            }
        }
    }

    // Reference history for the per-origin checks: the union over all
    // members, one payload per sequence number (1, checked by the pump).
    let reference: BTreeMap<u64, u32> = pump
        .delivered
        .values()
        .flatten()
        .map(|d| (d.seq, d.payload))
        .collect();

    // (3) FIFO per origin + (4) no survivor loss.
    for (origin, submitted) in &submitted {
        if !pump.members.contains_key(origin) {
            continue; // crashed after submitting: loss is allowed
        }
        // Find the origin's payloads in the reference order.
        let delivered_from_origin: Vec<u32> = reference
            .values()
            .copied()
            .filter(|pay| submitted.contains(pay))
            .collect();
        let ejected = pump.ejections.get(origin).copied().unwrap_or(0) > 0;
        if ejected {
            // An ejected member loses its pending (unacknowledged)
            // submissions — the client layer retries those. What *was*
            // delivered must still respect submission order.
            let mut it = submitted.iter();
            let in_order = delivered_from_origin.iter().all(|d| it.any(|s| s == d));
            prop_assert!(
                in_order,
                "origin {} deliveries reordered: {:?} vs submitted {:?}",
                origin,
                delivered_from_origin,
                submitted
            );
        } else {
            prop_assert_eq!(
                &delivered_from_origin,
                submitted,
                "origin {} payloads lost or reordered",
                origin
            );
        }
    }

    // (5) is subsumed by (1): the pump checks every delivery, crashed
    // members' included, against the first delivery of its sequence
    // number.
    Ok(())
}
