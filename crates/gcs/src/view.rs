//! Membership views and the primary-component (quorum) rule.

use jrs_sim::ProcId;
use std::fmt;

/// Globally unique view identifier.
///
/// The counter alone is not unique: two concurrent flush coordinators could
/// both produce "view n+1" with different member sets. Including the
/// installing coordinator makes the identifier unique, so engine traffic
/// tagged with a view id can never be confused between two competing views.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId {
    /// Monotonically increasing installation counter.
    pub num: u64,
    /// The coordinator that installed this view.
    pub coord: ProcId,
}

impl ViewId {
    /// The pre-membership placeholder (a joiner that has never installed).
    pub const NONE: ViewId = ViewId {
        num: 0,
        coord: ProcId(0),
    };

    /// The bootstrap view id of a statically configured group.
    pub fn bootstrap(leader: ProcId) -> Self {
        ViewId {
            num: 1,
            coord: leader,
        }
    }

    /// The id a flush coordinated by `coord` would install after this view.
    pub(crate) fn next(self, coord: ProcId) -> Self {
        ViewId {
            num: self.num + 1,
            coord,
        }
    }
}

impl fmt::Debug for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}@{}", self.num, self.coord)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}@{}", self.num, self.coord)
    }
}

/// A membership view: an agreed snapshot of who is in the group.
///
/// Members are kept sorted; a member's *rank* is its position in the sorted
/// list. The view's *leader* is the coordinator whose flush installed it
/// (`id.coord`; the lowest member for a bootstrap view): it sequences
/// (sequencer engine) or seeds the token, and it breaks quorum ties. It
/// installs the view last, so nothing it orders can reach a member that
/// has not installed the view yet.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct View {
    /// Unique view identifier.
    pub id: ViewId,
    /// Members, sorted ascending by `ProcId`.
    pub members: Vec<ProcId>,
}

impl View {
    /// Build a view, sorting and deduplicating the member list.
    pub fn new(id: ViewId, mut members: Vec<ProcId>) -> Self {
        members.sort_unstable();
        members.dedup();
        View { id, members }
    }

    /// The initial (bootstrap) view of a statically configured group.
    #[expect(
        clippy::expect_used,
        reason = "an empty bootstrap list is a configuration error"
    )]
    pub(crate) fn initial(members: Vec<ProcId>) -> Self {
        let mut v = View::new(ViewId::NONE, members);
        v.id = ViewId::bootstrap(*v.members.first().expect("bootstrap view must be non-empty"));
        v
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Is `p` a member?
    pub fn contains(&self, p: ProcId) -> bool {
        self.members.binary_search(&p).is_ok()
    }

    /// The coordinator that installed this view: its sequencer (or token
    /// seeder) and quorum tie-breaker.
    pub(crate) fn leader(&self) -> ProcId {
        self.id.coord
    }

    /// Primary-component check: may a component with member set `survivors`
    /// succeed this view?
    ///
    /// Rule: the survivors must be a strict majority of this view, or
    /// exactly half of it *including this view's leader* (the deterministic
    /// tie-breaker). Under the paper's crash-stop assumption
    /// the survivor set is always the full live set, so availability
    /// degrades gracefully down to a single node: {a,b,c,d} → {a,b,c} →
    /// {a,b} → {a}. Under a true network partition at most one side can
    /// satisfy the rule, preventing split-brain job scheduling.
    pub(crate) fn quorum(&self, survivors: &[ProcId]) -> bool {
        let in_view = survivors.iter().filter(|p| self.contains(**p)).count();
        2 * in_view > self.members.len()
            || (2 * in_view == self.members.len() && survivors.contains(&self.leader()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    /// View `n`, installed by `coord`.
    fn vid(n: u64, coord: u32) -> ViewId {
        ViewId {
            num: n,
            coord: p(coord),
        }
    }

    #[test]
    fn members_sorted_and_deduped() {
        let v = View::new(vid(1, 1), vec![p(3), p(1), p(2), p(1)]);
        assert_eq!(v.members, vec![p(1), p(2), p(3)]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn leader_and_membership() {
        let v = View::new(vid(1, 5), vec![p(5), p(9), p(7)]);
        assert_eq!(v.leader(), p(5));
        assert!(v.contains(p(5)));
        assert!(!v.contains(p(6)));
        // A joiner below the coordinator does not take over the lead.
        let v = View::new(vid(2, 5), vec![p(5), p(9), p(7), p(1)]);
        assert_eq!(v.leader(), p(5));
    }

    #[test]
    fn quorum_majority() {
        let v = View::new(vid(1, 1), vec![p(1), p(2), p(3), p(4)]);
        assert!(v.quorum(&[p(1), p(2), p(3)]));
        assert!(v.quorum(&[p(2), p(3), p(4)]));
        assert!(!v.quorum(&[p(3), p(4)]));
    }

    #[test]
    fn quorum_even_split_needs_leader() {
        let v = View::new(vid(1, 1), vec![p(1), p(2), p(3), p(4)]);
        assert!(v.quorum(&[p(1), p(2)]));
        assert!(!v.quorum(&[p(2), p(3)]));
        // The tie goes to the installing coordinator, not to rank 0.
        let v = View::new(vid(2, 2), vec![p(1), p(2), p(3), p(4)]);
        assert!(v.quorum(&[p(2), p(3)]));
        assert!(!v.quorum(&[p(1), p(4)]));
    }

    #[test]
    fn quorum_degrades_to_single_node() {
        let v2 = View::new(vid(5, 1), vec![p(1), p(2)]);
        assert!(v2.quorum(&[p(1)]));
        assert!(!v2.quorum(&[p(2)]));
        let v1 = View::new(vid(6, 1), vec![p(1)]);
        assert!(v1.quorum(&[p(1)]));
    }

    #[test]
    fn quorum_ignores_non_members() {
        let v = View::new(vid(1, 1), vec![p(1), p(2), p(3)]);
        // Joiners don't count toward quorum of the *previous* view.
        assert!(!v.quorum(&[p(3), p(9), p(10)]));
        assert!(v.quorum(&[p(1), p(2), p(9)]));
    }
}
