//! Wire messages exchanged between group members.

use crate::config::FrameCost;
use crate::view::{View, ViewId};
use jrs_sim::{ProcId, SimDuration};

/// Flush-protocol epoch: identifies one view-change attempt. Orders first by
/// the view being replaced, then by attempt counter, then by coordinator id
/// (so concurrent coordinators resolve deterministically).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch {
    /// The id of the view this flush is replacing.
    pub view_id: ViewId,
    /// Restart counter within that view change.
    pub attempt: u32,
    /// Which member is coordinating this attempt.
    pub coord: ProcId,
}

/// A message that has been assigned a global sequence number.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct OrderedMsg<P> {
    /// Global, gap-free sequence number (total order position).
    pub seq: u64,
    /// The member that originated the payload.
    pub origin: ProcId,
    /// Origin-local submission counter (for duplicate suppression across
    /// view changes).
    pub local_id: u64,
    /// Application payload.
    pub payload: P,
}

/// In-view ordering traffic; which variants appear depends on the engine.
#[derive(Clone, Debug, Hash)]
pub enum EngineMsg<P> {
    /// Sequencer engine: origin asks the sequencer to order a payload.
    Request {
        /// Origin-local submission counter.
        local_id: u64,
        /// Payload to order.
        payload: P,
    },
    /// Both engines: an ordered message multicast to the group.
    Ordered(OrderedMsg<P>),
    /// Both engines: cumulative stability ack — the sender holds every
    /// ordered message up to `up_to`. Delivery to the application waits
    /// until the whole view has acked (safe delivery / output commit).
    /// Sequencer engine: sent to the sequencer only; token engine: sent
    /// all-to-all.
    Ack {
        /// Highest contiguously received sequence number.
        up_to: u64,
    },
    /// Sequencer engine: the sequencer's stability announcement — every
    /// view member holds everything up to `up_to`; followers may deliver.
    Stable {
        /// Highest stable sequence number.
        up_to: u64,
    },
    /// Token engine: the rotating token.
    Token {
        /// Next sequence number to assign.
        next_seq: u64,
    },
}

/// Digest of a member's ordering state, reported during a flush.
#[derive(Clone, Debug, Hash)]
pub struct FlushDigest<P> {
    /// Highest sequence number up to which this member has everything.
    pub max_contig: u64,
    /// Ordered messages this member holds with `seq > coord_known` (the
    /// coordinator asked relative to its own knowledge).
    pub extra: Vec<OrderedMsg<P>>,
    /// Per-origin highest ordered `local_id` this member has observed
    /// (duplicate suppression state, merged by the coordinator).
    pub dedup: Vec<(ProcId, u64)>,
}

/// Group communication wire protocol.
#[derive(Clone, Debug, Hash)]
pub enum GcsMsg<P> {
    /// Periodic liveness beacon; carries the sender's installed view id and
    /// contiguously-delivered sequence number (for stability/GC).
    Heartbeat {
        /// Sender's installed view.
        view_id: ViewId,
        /// Size of the sender's installed view (used by the deterministic
        /// split-brain merge rule under the fail-stop policy).
        view_size: u32,
        /// Sender has delivered everything up to here.
        delivered_up_to: u64,
    },
    /// A process outside the group asks to be let in. The incarnation
    /// counter distinguishes a fresh (re)join episode from duplicate
    /// datagrams of an old one.
    JoinReq {
        /// Joiner's join-episode counter.
        incarnation: u64,
    },
    /// A member announces it is leaving voluntarily (treated like a
    /// failure, per the paper).
    Leave,
    /// Coordinator starts a flush for a proposed next view.
    FlushReq {
        /// This attempt's epoch.
        epoch: Epoch,
        /// Proposed member set of the next view.
        proposed: Vec<ProcId>,
        /// Coordinator's own `max_contig`, so members only ship messages
        /// the coordinator might miss.
        coord_known: u64,
    },
    /// A proposed member answers a `FlushReq`. The answer alone says what
    /// it is in the next view: an installed member of the flushed view
    /// sends its ordering digest, a joiner (a fresh process, or a member
    /// that ejected itself) sends `None` and is listed in `joined`.
    FlushInfo {
        /// Echoed epoch.
        epoch: Epoch,
        /// The member's digest; `None` from a joiner, which holds nothing.
        digest: Option<FlushDigest<P>>,
    },
    /// Coordinator concludes the flush: everyone delivers `msgs`, installs
    /// `view`, and the engine restarts at `next_seq`.
    FlushFinal {
        /// Echoed epoch.
        epoch: Epoch,
        /// The new view.
        view: View,
        /// Members of `view` that answered as joiners (no digest): new
        /// processes and ejected members rejoining. They need application
        /// state transfer.
        joined: Vec<ProcId>,
        /// Ordered messages filling every member up to `next_seq - 1`;
        /// starts right after the smallest `max_contig` among old members.
        msgs: Vec<OrderedMsg<P>>,
        /// First sequence number of the new view.
        next_seq: u64,
        /// Per-origin dedup floor for the new view.
        dedup: Vec<(ProcId, u64)>,
    },
    /// Coordinator abandons a flush whose trigger disappeared (e.g. a
    /// falsely suspected member came back); blocked members resume in the
    /// current view.
    FlushAbort {
        /// The abandoned epoch.
        epoch: Epoch,
    },
    /// A member confirms it installed the view of `epoch`'s flush. The
    /// coordinator installs once every proposed member has acked or been
    /// given up on (under `PrimaryComponent`, only while it and the members
    /// that acked are a quorum of the old view); such a member that
    /// installs later gets the same view, since nothing can change a
    /// finalized flush.
    InstallAck {
        /// The epoch of the flush being acknowledged.
        epoch: Epoch,
    },
    /// In-view ordering traffic. Tagged with the sender's installed view so
    /// stragglers from superseded views are discarded.
    Engine {
        /// View the sender had installed when it sent this.
        view_id: ViewId,
        /// The engine message.
        msg: EngineMsg<P>,
    },
}

/// Link-layer framing: raw datagrams for idempotent periodic traffic,
/// sequenced data + cumulative acks for everything that must not be lost.
#[derive(Clone, Debug, Hash)]
pub enum Wire<P> {
    /// Fire-and-forget (heartbeats, join requests — both periodic).
    Raw(GcsMsg<P>),
    /// Reliable FIFO stream data.
    Data {
        /// Per-link sequence number.
        seq: u64,
        /// The framed message.
        msg: GcsMsg<P>,
    },
    /// Cumulative acknowledgement of stream data.
    Ack {
        /// Everything `<= cum` has been received.
        cum: u64,
    },
}

/// Saturating `usize → u32` length conversion for wire-size estimates
/// (a lossy `as` cast here would wrap on pathological inputs: `clippy::cast_possible_truncation`).
fn len32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

impl<P> GcsMsg<P> {
    /// Approximate wire size in bytes, for the network model.
    pub(crate) fn wire_size(&self, payload_bytes: u32) -> u32 {
        match self {
            GcsMsg::Heartbeat { .. } => 64,
            GcsMsg::JoinReq { .. } => 48,
            GcsMsg::Leave => 48,
            GcsMsg::InstallAck { .. } => 56,
            GcsMsg::FlushAbort { .. } => 56,
            GcsMsg::FlushReq { proposed, .. } => 72 + 8 * len32(proposed.len()),
            // A joiner's `None` costs what an empty digest does.
            GcsMsg::FlushInfo { digest, .. } => {
                96 + digest.as_ref().map_or(0, |d| {
                    len32(d.extra.len()) * (40 + payload_bytes) + 16 * len32(d.dedup.len())
                })
            }
            GcsMsg::FlushFinal {
                msgs,
                view,
                joined,
                dedup,
                ..
            } => {
                96 + len32(msgs.len()) * (40 + payload_bytes)
                    + 8 * len32(view.members.len() + joined.len())
                    + 16 * len32(dedup.len())
            }
            GcsMsg::Engine { msg, .. } => match msg {
                EngineMsg::Request { .. } => 48 + payload_bytes,
                EngineMsg::Ordered(_) => 64 + payload_bytes,
                EngineMsg::Ack { .. } => 48,
                EngineMsg::Stable { .. } => 48,
                EngineMsg::Token { .. } => 56,
            },
        }
    }
}

impl<P> Wire<P> {
    /// Approximate wire size in bytes, for the network model.
    pub(crate) fn wire_size(&self, payload_bytes: u32) -> u32 {
        match self {
            Wire::Raw(m) => 16 + m.wire_size(payload_bytes),
            Wire::Data { msg, .. } => 24 + msg.wire_size(payload_bytes),
            Wire::Ack { .. } => 40,
        }
    }

    /// Sender-side CPU cost of this frame under `cost`, by class.
    pub(crate) fn cost(&self, cost: &FrameCost) -> SimDuration {
        // Exhaustive over the wire protocol: a new frame kind must be
        // assigned a CPU cost here, not silently inherit one (`clippy::wildcard_enum_match_arm`).
        match self {
            Wire::Ack { .. } | Wire::Raw(GcsMsg::Heartbeat { .. } | GcsMsg::JoinReq { .. }) => {
                cost.background
            }
            Wire::Data {
                msg:
                    GcsMsg::Engine {
                        msg: EngineMsg::Ack { .. },
                        ..
                    },
                ..
            } => cost.ack,
            Wire::Raw(msg) | Wire::Data { msg, .. } => match msg {
                GcsMsg::Heartbeat { .. }
                | GcsMsg::JoinReq { .. }
                | GcsMsg::Leave
                | GcsMsg::FlushReq { .. }
                | GcsMsg::FlushInfo { .. }
                | GcsMsg::FlushFinal { .. }
                | GcsMsg::FlushAbort { .. }
                | GcsMsg::InstallAck { .. }
                | GcsMsg::Engine {
                    msg:
                        EngineMsg::Request { .. }
                        | EngineMsg::Ordered(_)
                        | EngineMsg::Ack { .. }
                        | EngineMsg::Stable { .. }
                        | EngineMsg::Token { .. },
                    ..
                } => cost.frame,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_ordering() {
        let e = |v: u64, a, c| Epoch {
            view_id: ViewId {
                num: v,
                coord: ProcId(0),
            },
            attempt: a,
            coord: ProcId(c),
        };
        assert!(e(1, 0, 5) < e(2, 0, 1));
        assert!(e(2, 0, 9) < e(2, 1, 1));
        assert!(e(2, 1, 1) < e(2, 1, 2));
        assert_eq!(e(3, 2, 4), e(3, 2, 4));
        // Same counter, different coordinator: distinct view ids.
        let v1 = ViewId {
            num: 2,
            coord: ProcId(1),
        };
        let v2 = ViewId {
            num: 2,
            coord: ProcId(2),
        };
        assert!(v1 < v2);
        assert_ne!(v1, v2);
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = GcsMsg::Engine {
            view_id: ViewId {
                num: 1,
                coord: ProcId(0),
            },
            msg: EngineMsg::Ordered(OrderedMsg {
                seq: 1,
                origin: ProcId(0),
                local_id: 1,
                payload: (),
            }),
        };
        assert!(small.wire_size(64) < small.wire_size(4096));
        let hb: GcsMsg<()> = GcsMsg::Heartbeat {
            view_id: ViewId {
                num: 1,
                coord: ProcId(0),
            },
            view_size: 1,
            delivered_up_to: 0,
        };
        assert_eq!(hb.wire_size(64), hb.wire_size(4096));
    }

    #[test]
    fn flush_final_size_scales_with_msgs() {
        let mk = |n: usize| GcsMsg::FlushFinal {
            epoch: Epoch {
                view_id: ViewId {
                    num: 1,
                    coord: ProcId(0),
                },
                attempt: 0,
                coord: ProcId(0),
            },
            view: View::new(
                ViewId {
                    num: 2,
                    coord: ProcId(0),
                },
                vec![ProcId(0)],
            ),
            joined: vec![],
            msgs: (0..n)
                .map(|i| OrderedMsg {
                    seq: i as u64,
                    origin: ProcId(0),
                    local_id: i as u64,
                    payload: (),
                })
                .collect(),
            next_seq: n as u64,
            dedup: vec![],
        };
        assert!(mk(10).wire_size(100) > mk(1).wire_size(100));
    }

    /// A joiner's answer carries no digest and is charged what an empty
    /// one is (96 bytes), so it weighs what it did on the simulated wire.
    #[test]
    fn a_joiners_answer_costs_an_empty_digest() {
        let epoch = Epoch {
            view_id: ViewId::bootstrap(ProcId(0)),
            attempt: 0,
            coord: ProcId(0),
        };
        let info = |digest| GcsMsg::<u32>::FlushInfo { epoch, digest };
        let empty = FlushDigest {
            max_contig: 0,
            extra: Vec::new(),
            dedup: Vec::new(),
        };
        assert_eq!(info(None).wire_size(64), 96);
        assert_eq!(info(Some(empty)).wire_size(64), 96);
    }

    /// The calibrated frame classes (EXPERIMENTS.md): which wire frames
    /// are background, which ride the slow ack path, which pay the full
    /// daemon cost. Distinct sentinel costs so a swapped class shows.
    #[test]
    fn charge_classes_are_pinned() {
        let cost = FrameCost {
            background: SimDuration::from_millis(1),
            ack: SimDuration::from_millis(2),
            frame: SimDuration::from_millis(3),
        };
        let view_id = ViewId::bootstrap(ProcId(0));
        let epoch = Epoch {
            view_id,
            attempt: 1,
            coord: ProcId(0),
        };
        let payload = 7u32;
        let engine = |msg| GcsMsg::Engine { view_id, msg };
        let data = |msg| Wire::Data { seq: 1, msg };
        let heartbeat = || GcsMsg::Heartbeat {
            view_id,
            view_size: 3,
            delivered_up_to: 0,
        };
        let digest = Some(FlushDigest {
            max_contig: 0,
            extra: Vec::new(),
            dedup: Vec::new(),
        });
        let ordered = OrderedMsg {
            seq: 1,
            origin: ProcId(0),
            local_id: 1,
            payload,
        };

        // Nearly free: bare link acks and the unreliable datagrams.
        assert_eq!(Wire::<u32>::Ack { cum: 7 }.cost(&cost), cost.background);
        assert_eq!(Wire::Raw(heartbeat()).cost(&cost), cost.background);
        assert_eq!(
            Wire::<u32>::Raw(GcsMsg::JoinReq { incarnation: 2 }).cost(&cost),
            cost.background
        );

        // The slow, timer-batched stability acknowledgement.
        assert_eq!(
            data(engine(EngineMsg::Ack { up_to: 1 })).cost(&cost),
            cost.ack
        );

        // Everything else pays the full daemon cost.
        let full = [
            data(engine(EngineMsg::Request {
                local_id: 1,
                payload,
            })),
            data(engine(EngineMsg::Ordered(ordered))),
            data(engine(EngineMsg::Stable { up_to: 1 })),
            data(engine(EngineMsg::Token { next_seq: 2 })),
            data(GcsMsg::FlushReq {
                epoch,
                proposed: vec![ProcId(0)],
                coord_known: 0,
            }),
            data(GcsMsg::FlushInfo { epoch, digest }),
            data(GcsMsg::FlushFinal {
                epoch,
                view: View::new(view_id, vec![ProcId(0)]),
                joined: Vec::new(),
                msgs: Vec::new(),
                next_seq: 1,
                dedup: Vec::new(),
            }),
            data(GcsMsg::FlushAbort { epoch }),
            data(GcsMsg::InstallAck { epoch }),
            data(GcsMsg::Leave),
            Wire::Raw(GcsMsg::Leave),
            Wire::Raw(GcsMsg::FlushAbort { epoch }),
            Wire::Raw(engine(EngineMsg::Ack { up_to: 1 })),
            // Reliable-channel copies of the datagram kinds are protocol
            // frames like any other.
            data(heartbeat()),
            data(GcsMsg::JoinReq { incarnation: 2 }),
        ];
        for f in &full {
            assert_eq!(f.cost(&cost), cost.frame, "{f:?}");
        }
    }
}
