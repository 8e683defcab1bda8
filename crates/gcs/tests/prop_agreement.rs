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
use jrs_gcs::testkit::Pump;
use jrs_sim::{ProcId, SimDuration};
use proptest::prelude::*;

/// One step of a randomized schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Member (index into the live set) broadcasts.
    Broadcast(u8),
    /// Advance time by a few ticks.
    Advance(u8),
    /// Crash the member with this index (if more than one remains).
    Crash(u8),
    /// Voluntary leave (if more than one remains).
    Leave(u8),
    /// Add a fresh joiner.
    Join,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => any::<u8>().prop_map(Step::Broadcast),
        3 => (1u8..6).prop_map(Step::Advance),
        1 => any::<u8>().prop_map(Step::Crash),
        1 => any::<u8>().prop_map(Step::Leave),
        1 => Just(Step::Join),
    ]
}

#[derive(Clone, Debug, Default)]
struct Model {
    /// Per-origin submitted payloads, in order.
    submitted: std::collections::BTreeMap<ProcId, Vec<u32>>,
}

/// Group and joiners are configured alike: a joiner whose ordering policy
/// differs from the group's sends messages nobody there acts on, and its
/// submissions are silently lost.
fn run_schedule(kind: EngineKind, n_members: u32, steps: &[Step]) -> (Pump<u32>, Model) {
    let config = GroupConfig::with_engine(kind);
    let mut pump: Pump<u32> = Pump::group(n_members, config.clone());
    let mut model = Model::default();
    let mut next_payload = 0u32;
    let mut next_joiner = 100u32;
    let tick = SimDuration::from_millis(5);
    for step in steps {
        match step {
            Step::Broadcast(sel) => {
                let ids: Vec<ProcId> = pump.members.keys().copied().collect();
                if ids.is_empty() {
                    break;
                }
                let who = ids[*sel as usize % ids.len()];
                // Only count submissions from installed members: a joiner
                // queues them too, but if it never finishes joining the
                // payload is legitimately never delivered.
                let installed = pump.members[&who].is_installed();
                pump.broadcast(who, next_payload);
                if installed {
                    model.submitted.entry(who).or_default().push(next_payload);
                }
                next_payload += 1;
            }
            Step::Advance(k) => {
                for _ in 0..*k {
                    pump.tick(tick);
                }
            }
            Step::Crash(sel) => {
                let ids: Vec<ProcId> = pump.members.keys().copied().collect();
                if ids.len() > 1 {
                    let who = ids[*sel as usize % ids.len()];
                    pump.crash(who);
                    model.submitted.remove(&who);
                }
            }
            Step::Leave(sel) => {
                let ids: Vec<ProcId> = pump.members.keys().copied().collect();
                if ids.len() > 1 {
                    let who = ids[*sel as usize % ids.len()];
                    pump.leave(who);
                    model.submitted.remove(&who);
                }
            }
            Step::Join => {
                let contacts: Vec<ProcId> = pump.members.keys().copied().collect();
                if !contacts.is_empty() {
                    pump.add_joiner(ProcId(next_joiner), contacts, config.clone());
                    next_joiner += 1;
                }
            }
        }
    }
    // Let everything settle: detection + flush + retries.
    pump.tick_for(tick, SimDuration::from_secs(3));
    (pump, model)
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
    let (pump, model) = run_schedule(kind, n, steps);

    // (1) Pairwise content agreement: no two processes (live or dead,
    // before or after ejection) ever delivered different payloads at
    // the same total-order position.
    let live: Vec<ProcId> = pump.members.keys().copied().collect();
    prop_assert!(!live.is_empty());
    let mut by_seq: std::collections::BTreeMap<u64, u32> = Default::default();
    for (p, dl) in &pump.delivered {
        for d in dl {
            match by_seq.get(&d.seq) {
                None => {
                    by_seq.insert(d.seq, d.payload);
                }
                Some(&x) => prop_assert_eq!(
                    x,
                    d.payload,
                    "member {} delivered a different payload at seq {}",
                    p,
                    d.seq
                ),
            }
        }
    }

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
    // members, which (1) proved consistent.
    let reference: Vec<(u64, u32)> = by_seq.iter().map(|(&s, &x)| (s, x)).collect();

    // (3) FIFO per origin + (4) no survivor loss.
    for (origin, submitted) in &model.submitted {
        if !pump.members.contains_key(origin) {
            continue; // crashed after submitting: loss is allowed
        }
        // Find the origin's payloads in the reference order.
        let delivered_from_origin: Vec<u32> = reference
            .iter()
            .map(|(_, pay)| *pay)
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

    // (5) is subsumed by (1): crashed members' logs participate in the
    // pairwise same-seq agreement above.
    Ok(())
}
