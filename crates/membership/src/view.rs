//! Views: numbered snapshots of the group's membership.

use core::fmt;
use std::collections::BTreeSet;

use fdet::SuspectSet;
use neko::{DestSet, Pid};

/// Identifier of a view; views form a single totally ordered sequence
/// (primary-partition membership).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(pub u64);

impl ViewId {
    /// The next view's id.
    pub fn next(self) -> ViewId {
        ViewId(self.0 + 1)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A view: the agreed list of group members at some point in the
/// group's history.
///
/// The *sequencer* of a view is its first member (lowest pid), as in
/// the paper's fixed-sequencer algorithm.
///
/// ```
/// use membership::View;
/// use neko::Pid;
///
/// let v = View::initial(3);
/// assert_eq!(v.sequencer(), Pid::new(0));
/// assert_eq!(v.majority(), 2);
/// assert!(v.contains(Pid::new(2)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct View {
    id: ViewId,
    members: BTreeSet<Pid>,
}

impl View {
    /// The bootstrap view `v0` containing all `n` processes. (Group
    /// discovery is out of scope, as in the paper: the initial
    /// membership is agreed upon out of band.)
    pub fn initial(n: usize) -> Self {
        View {
            id: ViewId(0),
            members: Pid::all(n).collect(),
        }
    }

    /// A view with the given id and members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty — a primary-partition group never
    /// installs an empty view.
    pub fn new(id: ViewId, members: BTreeSet<Pid>) -> Self {
        assert!(!members.is_empty(), "a view must have at least one member");
        View { id, members }
    }

    /// This view's identifier.
    pub fn id(&self) -> ViewId {
        self.id
    }

    /// The members, ordered by pid.
    pub fn members(&self) -> &BTreeSet<Pid> {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// A view is never empty; provided for completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `p` belongs to this view.
    pub fn contains(&self, p: Pid) -> bool {
        self.members.contains(&p)
    }

    /// The view's sequencer: its first member.
    pub fn sequencer(&self) -> Pid {
        *self.members.iter().next().expect("views are never empty")
    }

    /// Majority quorum size for this view (`⌊len/2⌋ + 1`).
    pub fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// The members other than `me`, as a multicast destination set
    /// (which iterates in pid order).
    pub fn others(&self, me: Pid) -> DestSet {
        self.members.iter().copied().filter(|&p| p != me).collect()
    }

    /// The members other than `me` that `suspects` currently suspects:
    /// the ones a view change started by `me` excludes.
    pub fn suspected_others(&self, me: Pid, suspects: &SuspectSet) -> BTreeSet<Pid> {
        self.members
            .iter()
            .copied()
            .filter(|&p| p != me && suspects.contains(p))
            .collect()
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.id, self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_view_contains_everyone() {
        let v = View::initial(4);
        assert_eq!(v.id(), ViewId(0));
        assert_eq!(v.len(), 4);
        assert_eq!(v.sequencer(), Pid::new(0));
        assert_eq!(v.majority(), 3);
    }

    #[test]
    fn sequencer_is_first_member() {
        let members: BTreeSet<Pid> = [Pid::new(3), Pid::new(1), Pid::new(5)].into();
        let v = View::new(ViewId(2), members);
        assert_eq!(v.sequencer(), Pid::new(1));
        let others: Vec<Pid> = v.others(Pid::new(1)).iter().collect();
        assert_eq!(others, vec![Pid::new(3), Pid::new(5)]);
        assert_eq!(v.majority(), 2);
    }

    #[test]
    fn view_id_ordering_and_next() {
        assert!(ViewId(1) < ViewId(2));
        assert_eq!(ViewId(1).next(), ViewId(2));
        assert_eq!(ViewId(7).to_string(), "v7");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_view_rejected() {
        let _ = View::new(ViewId(1), BTreeSet::new());
    }
}
