//! Heartbeat failure detector.
//!
//! Any traffic from a peer counts as life sign; a peer silent for longer
//! than `fail_after` is suspected. Under the paper's fail-stop model a
//! suspicion is treated as a fact and triggers a membership change.

use jrs_sim::{ProcId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Tracks last-heard times for a set of watched peers.
///
/// Ordered maps so iteration and the derived `Hash` are deterministic
/// across replicas (`clippy::disallowed_types`).
#[derive(Clone, Debug, Hash)]
pub struct FailureDetector {
    fail_after: SimDuration,
    last_heard: BTreeMap<ProcId, SimTime>,
    /// Peers declared failed out of band (voluntary leave, stalled flush
    /// coordinator). Cleared by any subsequent life sign.
    condemned: BTreeSet<ProcId>,
}

impl FailureDetector {
    /// New detector with the given silence threshold.
    pub(crate) fn new(fail_after: SimDuration) -> Self {
        FailureDetector {
            fail_after,
            last_heard: BTreeMap::new(),
            condemned: BTreeSet::new(),
        }
    }

    /// Start watching `peer`, counting from `now` (grace period of one full
    /// threshold before it can be suspected).
    pub(crate) fn watch(&mut self, peer: ProcId, now: SimTime) {
        self.last_heard.entry(peer).or_insert(now);
    }

    /// Stop watching `peer` (it left the view).
    pub(crate) fn unwatch(&mut self, peer: ProcId) {
        self.last_heard.remove(&peer);
        self.condemned.remove(&peer);
    }

    /// Record a life sign. A life sign also lifts a condemnation: a
    /// condemned-but-alive peer (e.g. a slow flush coordinator) is only
    /// excluded if it actually goes silent.
    pub(crate) fn heard(&mut self, peer: ProcId, now: SimTime) {
        if let Some(t) = self.last_heard.get_mut(&peer) {
            *t = (*t).max(now);
        }
        self.condemned.remove(&peer);
    }

    /// Forcibly mark a peer suspected (voluntary leave, which the paper
    /// treats as a forced failure, or a stalled flush coordinator).
    pub(crate) fn condemn(&mut self, peer: ProcId) {
        self.last_heard.entry(peer).or_insert(SimTime::ZERO);
        self.condemned.insert(peer);
    }

    /// Is `peer` currently suspected?
    pub(crate) fn suspected(&self, peer: ProcId, now: SimTime) -> bool {
        if self.condemned.contains(&peer) {
            return true;
        }
        match self.last_heard.get(&peer) {
            Some(&t) => now.since(t) >= self.fail_after,
            None => false,
        }
    }

    /// All watched peers currently suspected, in `ProcId` order (the
    /// map's iteration order — no explicit sort needed).
    #[cfg(test)]
    pub(crate) fn suspects(&self, now: SimTime) -> Vec<ProcId> {
        self.last_heard
            .iter()
            .filter(|(&p, &t)| self.condemned.contains(&p) || now.since(t) >= self.fail_after)
            .map(|(&p, _)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ProcId = ProcId(1);
    const B: ProcId = ProcId(2);

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn silent_peer_gets_suspected() {
        let mut d = FailureDetector::new(SimDuration::from_millis(100));
        d.watch(A, at(0));
        assert!(!d.suspected(A, at(99)));
        assert!(d.suspected(A, at(100)));
    }

    #[test]
    fn heartbeat_resets_clock() {
        let mut d = FailureDetector::new(SimDuration::from_millis(100));
        d.watch(A, at(0));
        d.heard(A, at(80));
        assert!(!d.suspected(A, at(150)));
        assert!(d.suspected(A, at(180)));
    }

    #[test]
    fn unwatched_never_suspected() {
        let mut d = FailureDetector::new(SimDuration::from_millis(100));
        assert!(!d.suspected(A, at(1000)));
        d.watch(A, at(0));
        d.unwatch(A);
        assert!(!d.suspected(A, at(1000)));
    }

    #[test]
    fn condemn_is_immediate() {
        let mut d = FailureDetector::new(SimDuration::from_millis(100));
        d.watch(A, at(0));
        d.condemn(A);
        assert!(d.suspected(A, at(1)));
    }

    #[test]
    fn suspects_sorted() {
        let mut d = FailureDetector::new(SimDuration::from_millis(10));
        d.watch(B, at(0));
        d.watch(A, at(0));
        d.heard(A, at(5));
        assert_eq!(d.suspects(at(12)), vec![B]);
        assert_eq!(d.suspects(at(20)), vec![A, B]);
    }

    #[test]
    fn stale_heard_does_not_rewind() {
        let mut d = FailureDetector::new(SimDuration::from_millis(100));
        d.watch(A, at(0));
        d.heard(A, at(90));
        d.heard(A, at(50)); // out-of-order life sign must not rewind
        assert!(!d.suspected(A, at(189)));
        assert!(d.suspected(A, at(190)));
    }
}
