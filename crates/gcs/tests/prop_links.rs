//! Property-based test of the reliable link layer: under arbitrary loss,
//! duplication and reordering of wire frames, the receiver delivers the
//! sender's message sequence exactly once, in order, as long as
//! retransmission eventually gets a frame through.

use jrs_gcs::link::LinkManager;
use jrs_gcs::msg::{GcsMsg, Wire};
use jrs_gcs::ViewId;
use jrs_sim::{ProcId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

const PEER: ProcId = ProcId(1);

fn msg(n: u64) -> GcsMsg<u32> {
    GcsMsg::Heartbeat {
        view_id: ViewId {
            num: n,
            coord: ProcId(0),
        },
        view_size: 1,
        delivered_up_to: 0,
    }
}

fn msg_id(m: &GcsMsg<u32>) -> u64 {
    match m {
        GcsMsg::Heartbeat { view_id, .. } => view_id.num,
        _ => unreachable!(),
    }
}

/// Per-frame adversary decision, derived from a random byte.
#[derive(Clone, Copy, Debug)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    DelayBehindNext,
}

fn fate(b: u8) -> Fate {
    match b % 8 {
        0..=3 => Fate::Deliver,
        4 => Fate::Drop,
        5 => Fate::Duplicate,
        _ => Fate::DelayBehindNext,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn reliable_fifo_exactly_once(
        n_msgs in 1usize..40,
        fates in prop::collection::vec(any::<u8>(), 1..400),
    ) {
        let rto = SimDuration::from_millis(10);
        let mut tx: LinkManager<u32> = LinkManager::new(rto);
        let mut rx: LinkManager<u32> = LinkManager::new(rto);
        let mut now = SimTime::ZERO;

        // The sender frames all messages up front.
        let mut in_flight: VecDeque<Wire<u32>> = (0..n_msgs as u64)
            .map(|i| tx.send(now, PEER, msg(i + 1)))
            .collect();
        let mut delivered: Vec<u64> = Vec::new();
        // The adversary has a finite mischief budget (the `fates` vector);
        // once it is spent every frame is delivered — any reliable
        // protocol only promises delivery under finite interference.
        let mut fate_iter = fates.iter();

        // Adversarial delivery loop; retransmissions refill the queue.
        let mut rounds = 0;
        while delivered.len() < n_msgs && rounds < 5000 {
            rounds += 1;
            if let Some(frame) = in_flight.pop_front() {
                match fate_iter.next().map(|b| fate(*b)).unwrap_or(Fate::Deliver) {
                    Fate::Drop => {}
                    Fate::Duplicate => {
                        in_flight.push_back(frame.clone());
                        let inb = rx.on_wire(now, PEER, frame);
                        delivered.extend(inb.first.iter().chain(&inb.rest).map(msg_id));
                        if let Some(reply) = inb.reply {
                            let _ = tx.on_wire(now, PEER, reply);
                        }
                    }
                    Fate::DelayBehindNext => in_flight.push_back(frame),
                    Fate::Deliver => {
                        let inb = rx.on_wire(now, PEER, frame);
                        delivered.extend(inb.first.iter().chain(&inb.rest).map(msg_id));
                        if let Some(reply) = inb.reply {
                            let _ = tx.on_wire(now, PEER, reply);
                        }
                    }
                }
            } else {
                // Queue drained without full delivery: let the RTO expire
                // and collect retransmissions.
                now += rto;
                for (_, frame) in tx.tick(now) {
                    in_flight.push_back(frame);
                }
            }
        }

        // Exactly once, in order.
        let want: Vec<u64> = (1..=n_msgs as u64).collect();
        prop_assert_eq!(delivered, want);
        // Drain remaining frames cleanly: nothing further may deliver.
        while let Some(frame) = in_flight.pop_front() {
            let inb = rx.on_wire(now, PEER, frame);
            prop_assert!(inb.first.is_none() && inb.rest.is_empty(), "late duplicate delivered twice");
        }
    }
}
