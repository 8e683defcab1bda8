//! Reliable FIFO point-to-point links over the lossy network.
//!
//! Every flush and ordering message rides on one of these: per-peer
//! sequence numbers, cumulative acks, timeout-driven retransmission and
//! in-order delivery with an out-of-order buffer. The FIFO property is
//! load-bearing for the ordering engines: it guarantees that the sequence
//! of `Ordered` messages a member receives from the sequencer has no gaps,
//! which makes the view-change flush a simple max-union.

use crate::msg::{GcsMsg, Wire};
use jrs_sim::{ProcId, SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

#[derive(Clone, Debug, Hash)]
struct OutLink<P> {
    next_seq: u64,
    /// (seq, message, last transmission time), oldest first: sends push at
    /// the back, a cumulative ack pops from the front.
    unacked: VecDeque<(u64, GcsMsg<P>, SimTime)>,
}

impl<P> Default for OutLink<P> {
    fn default() -> Self {
        OutLink {
            next_seq: 1,
            unacked: VecDeque::new(),
        }
    }
}

#[derive(Clone, Debug, Hash)]
struct InLink<P> {
    /// Everything up to here has been delivered up the stack.
    cum: u64,
    /// Out-of-order holding buffer.
    buffer: BTreeMap<u64, GcsMsg<P>>,
}

impl<P> Default for InLink<P> {
    fn default() -> Self {
        InLink {
            cum: 0,
            buffer: BTreeMap::new(),
        }
    }
}

/// Is a frame last sent at `last` due for retransmission at `now`?
fn overdue(last: SimTime, now: SimTime, rto: SimDuration) -> bool {
    now.since(last) >= rto
}

/// All reliable links of one member, keyed by peer. Ordered maps so
/// retransmission scans walk peers in a deterministic order
/// (`clippy::disallowed_types`).
#[derive(Clone, Debug, Hash)]
pub struct LinkManager<P> {
    rto: SimDuration,
    out: BTreeMap<ProcId, OutLink<P>>,
    inc: BTreeMap<ProcId, InLink<P>>,
    /// Retransmissions performed (diagnostic).
    pub retransmissions: u64,
}

/// Result of processing one incoming wire frame. What is now deliverable
/// in FIFO order is `first`, then `rest`.
pub struct Inbound<P> {
    /// The frame's own message, when it arrived in order (or unsequenced).
    pub first: Option<GcsMsg<P>>,
    /// Buffered successors an in-order frame released: empty, and
    /// unallocated, unless it closed a gap.
    pub rest: Vec<GcsMsg<P>>,
    /// Ack to send back, if any.
    pub reply: Option<Wire<P>>,
}

impl<P: Clone> LinkManager<P> {
    /// New manager with the given retransmission timeout.
    pub fn new(rto: SimDuration) -> Self {
        LinkManager {
            rto,
            out: BTreeMap::new(),
            inc: BTreeMap::new(),
            retransmissions: 0,
        }
    }

    /// Frame `msg` for reliable transmission to `peer`. The caller
    /// transmits the returned wire frame; the manager keeps a copy for
    /// retransmission until acked.
    pub fn send(&mut self, now: SimTime, peer: ProcId, msg: GcsMsg<P>) -> Wire<P> {
        let link = self.out.entry(peer).or_default();
        let seq = link.next_seq;
        link.next_seq += 1;
        link.unacked.push_back((seq, msg.clone(), now));
        Wire::Data { seq, msg }
    }

    /// Process an incoming frame from `peer`: `receive`, with the
    /// released successors in a `Vec` of their own and the ack framed.
    pub fn on_wire(&mut self, _now: SimTime, peer: ProcId, wire: Wire<P>) -> Inbound<P> {
        let mut rest = Vec::new();
        let (ack, first) = self.receive(peer, &mut Some(wire), &mut rest);
        Inbound {
            first,
            rest,
            reply: ack.map(|cum| Wire::Ack { cum }),
        }
    }

    /// Process the frame from `peer` where it lies, leaving `frame` empty.
    ///
    /// `Raw` frames pass straight through; `Data` frames are sequenced and
    /// delivered in order (duplicates dropped, gaps buffered; the in-order
    /// frame never visits the buffer); `Ack` frames clear the
    /// retransmission buffer. Only a message that is delivered or
    /// buffered is moved out of the frame.
    ///
    /// Returns the cumulative ack to send back (for every `Data` frame) and
    /// the frame's own message when it is deliverable now. The buffered
    /// successors it releases are appended to `released`, to be delivered
    /// after it.
    pub(crate) fn receive(
        &mut self,
        peer: ProcId,
        frame: &mut Option<Wire<P>>,
        released: &mut Vec<GcsMsg<P>>,
    ) -> (Option<u64>, Option<GcsMsg<P>>) {
        // What a delivered or buffered message leaves in the frame until
        // the frame is emptied below.
        let take = |msg: &mut GcsMsg<P>| std::mem::replace(msg, GcsMsg::Leave);
        let (mut ack, mut first) = (None, None);
        match frame {
            None => {}
            Some(Wire::Raw(msg)) => first = Some(take(msg)),
            Some(Wire::Data { seq, msg }) => {
                let link = self.inc.entry(peer).or_default();
                if *seq == link.cum + 1 {
                    link.cum += 1;
                    first = Some(take(msg));
                    while let Some(m) = link.buffer.remove(&(link.cum + 1)) {
                        link.cum += 1;
                        released.push(m);
                    }
                } else if *seq > link.cum {
                    if let Entry::Vacant(slot) = link.buffer.entry(*seq) {
                        slot.insert(take(msg));
                    }
                }
                ack = Some(link.cum);
            }
            Some(Wire::Ack { cum }) => {
                if let Some(link) = self.out.get_mut(&peer) {
                    while link.unacked.front().is_some_and(|&(s, ..)| s <= *cum) {
                        link.unacked.pop_front();
                    }
                }
            }
        }
        *frame = None;
        (ack, first)
    }

    /// Collect frames that need retransmission (unacked for longer than the
    /// RTO). Marks them as retransmitted at `now`.
    pub fn tick(&mut self, now: SimTime) -> Vec<(ProcId, Wire<P>)> {
        let mut resend = Vec::new();
        self.tick_into(now, |peer, frame| resend.push((peer, frame)));
        resend
    }

    /// [`Self::tick`], handing each frame to the caller's `resend`.
    pub(crate) fn tick_into(&mut self, now: SimTime, mut resend: impl FnMut(ProcId, Wire<P>)) {
        for (&peer, link) in self.out.iter_mut() {
            for (seq, msg, last) in link.unacked.iter_mut() {
                if overdue(*last, now, self.rto) {
                    *last = now;
                    self.retransmissions += 1;
                    resend(
                        peer,
                        Wire::Data {
                            seq: *seq,
                            msg: msg.clone(),
                        },
                    );
                }
            }
        }
    }

    /// Would [`Self::tick`] at `now` resend anything?
    pub(crate) fn resend_due(&self, now: SimTime) -> bool {
        self.out
            .values()
            .flat_map(|link| &link.unacked)
            .any(|(_, _, last)| overdue(*last, now, self.rto))
    }

    /// Forget all state for a peer (it left or was ejected); a future
    /// conversation starts from a clean stream.
    pub(crate) fn reset_peer(&mut self, peer: ProcId) {
        self.out.remove(&peer);
        self.inc.remove(&peer);
    }

    /// Number of frames awaiting ack towards `peer`.
    #[cfg(test)]
    pub(crate) fn unacked_to(&self, peer: ProcId) -> usize {
        self.out.get(&peer).map_or(0, |l| l.unacked.len())
    }

    /// Total frames awaiting ack across all peers.
    pub fn unacked_total(&self) -> usize {
        self.out.values().map(|l| l.unacked.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type M = GcsMsg<u32>;

    fn hb(v: u64) -> M {
        GcsMsg::Heartbeat {
            view_id: crate::view::ViewId {
                num: v,
                coord: ProcId(0),
            },
            view_size: 1,
            delivered_up_to: 0,
        }
    }

    fn hb_view(m: &M) -> u64 {
        match m {
            GcsMsg::Heartbeat { view_id, .. } => view_id.num,
            _ => panic!("not a heartbeat"),
        }
    }

    /// Heartbeat view numbers of everything `r` makes deliverable, in order.
    fn views(r: &Inbound<u32>) -> Vec<u64> {
        r.first.iter().chain(&r.rest).map(hb_view).collect()
    }

    const T0: SimTime = SimTime::ZERO;
    const A: ProcId = ProcId(1);

    #[test]
    fn in_order_delivery_and_ack() {
        let mut rx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let mut tx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let w1 = tx.send(T0, A, hb(1));
        let w2 = tx.send(T0, A, hb(2));
        let r1 = rx.on_wire(T0, A, w1);
        assert_eq!(views(&r1), vec![1]);
        assert!(matches!(r1.reply, Some(Wire::Ack { cum: 1 })));
        let r2 = rx.on_wire(T0, A, w2);
        assert_eq!(views(&r2), vec![2]);
        assert!(matches!(r2.reply, Some(Wire::Ack { cum: 2 })));
    }

    #[test]
    fn out_of_order_buffered_until_gap_fills() {
        let mut rx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let mut tx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let w1 = tx.send(T0, A, hb(1));
        let w2 = tx.send(T0, A, hb(2));
        let w3 = tx.send(T0, A, hb(3));
        let r3 = rx.on_wire(T0, A, w3);
        assert!(views(&r3).is_empty());
        assert!(matches!(r3.reply, Some(Wire::Ack { cum: 0 })));
        let r2 = rx.on_wire(T0, A, w2);
        assert!(views(&r2).is_empty());
        let r1 = rx.on_wire(T0, A, w1);
        assert_eq!(views(&r1), vec![1, 2, 3]);
        assert!(matches!(r1.reply, Some(Wire::Ack { cum: 3 })));
    }

    #[test]
    fn in_order_frame_releases_the_buffered_run_behind_it() {
        let mut rx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let mut tx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let w: Vec<Wire<u32>> = (1..=6).map(|v| tx.send(T0, A, hb(v))).collect();
        // 1 in order; 3, 4 and 6 wait behind the missing 2 and 5.
        for i in [0, 2, 3, 5] {
            let r = rx.on_wire(T0, A, w[i].clone());
            assert_eq!(views(&r), if i == 0 { vec![1] } else { vec![] });
            assert!(matches!(r.reply, Some(Wire::Ack { cum: 1 })));
        }
        // 2 arrives in order while later frames are buffered: it goes up
        // with the whole contiguous run, and only that run.
        let r = rx.on_wire(T0, A, w[1].clone());
        assert_eq!(
            r.first.as_ref().map(hb_view),
            Some(2),
            "the frame itself, not via the buffer"
        );
        assert_eq!(views(&r), vec![2, 3, 4]);
        assert!(matches!(r.reply, Some(Wire::Ack { cum: 4 })));
        // A duplicate of a buffered frame is not delivered early or twice.
        let r = rx.on_wire(T0, A, w[5].clone());
        assert!(views(&r).is_empty());
        let r = rx.on_wire(T0, A, w[4].clone());
        assert_eq!(views(&r), vec![5, 6]);
        assert!(matches!(r.reply, Some(Wire::Ack { cum: 6 })));
    }

    #[test]
    fn duplicates_dropped() {
        let mut rx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let mut tx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let w1 = tx.send(T0, A, hb(1));
        let r = rx.on_wire(T0, A, w1.clone());
        assert_eq!(views(&r), vec![1]);
        let r = rx.on_wire(T0, A, w1);
        assert!(views(&r).is_empty());
        // Still acks so the sender stops retransmitting.
        assert!(matches!(r.reply, Some(Wire::Ack { cum: 1 })));
    }

    #[test]
    fn retransmission_after_rto() {
        let mut tx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let _w = tx.send(T0, A, hb(1));
        assert_eq!(tx.unacked_to(A), 1);
        // Before RTO: nothing.
        assert!(tx.tick(T0 + SimDuration::from_millis(5)).is_empty());
        // After RTO: one retransmission.
        let r = tx.tick(T0 + SimDuration::from_millis(10));
        assert_eq!(r.len(), 1);
        assert_eq!(tx.retransmissions, 1);
        // Immediately after, the clock was refreshed: no double resend.
        assert!(tx.tick(T0 + SimDuration::from_millis(11)).is_empty());
    }

    #[test]
    fn ack_clears_retransmission_buffer() {
        let mut tx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let _ = tx.send(T0, A, hb(1));
        let _ = tx.send(T0, A, hb(2));
        let _ = tx.on_wire(T0, A, Wire::Ack { cum: 1 });
        assert_eq!(tx.unacked_to(A), 1);
        let _ = tx.on_wire(T0, A, Wire::Ack { cum: 2 });
        assert_eq!(tx.unacked_to(A), 0);
        assert!(tx.tick(T0 + SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn raw_frames_bypass_sequencing() {
        let mut rx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let r = rx.on_wire(T0, A, Wire::Raw(hb(9)));
        assert_eq!(views(&r), vec![9]);
        assert!(r.reply.is_none());
    }

    #[test]
    fn reset_peer_restarts_stream() {
        let mut rx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let mut tx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let w1 = tx.send(T0, A, hb(1));
        let _ = rx.on_wire(T0, A, w1);
        tx.reset_peer(A);
        rx.reset_peer(A);
        // New stream from seq 1 again.
        let w = tx.send(T0, A, hb(7));
        match &w {
            Wire::Data { seq, .. } => assert_eq!(*seq, 1),
            _ => panic!(),
        }
        let r = rx.on_wire(T0, A, w);
        assert_eq!(views(&r), vec![7]);
    }

    #[test]
    fn lost_then_retransmitted_end_to_end() {
        let mut tx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let mut rx: LinkManager<u32> = LinkManager::new(SimDuration::from_millis(10));
        let _lost = tx.send(T0, A, hb(1)); // frame never arrives
        let t1 = T0 + SimDuration::from_millis(10);
        let resend = tx.tick(t1);
        assert_eq!(resend.len(), 1);
        let r = rx.on_wire(t1, A, resend.into_iter().next().unwrap().1);
        assert_eq!(views(&r), vec![1]);
    }
}
