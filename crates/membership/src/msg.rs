//! Wire messages of the membership protocol. `U` is the bundle of
//! unstable messages a process contributes to a view change; what is
//! inside is the atomic-broadcast layer's business.

use std::collections::BTreeSet;

use consensus::ConsensusMsg;
use neko::Pid;

use crate::view::ViewId;

/// The value decided by a view change's consensus: the pair `(P, U)`
/// of the paper's Section 4.3 — the next membership and the union of
/// unstable messages to deliver before installing it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ViewProposal<U> {
    /// `P`: the proposed next membership.
    pub members: BTreeSet<Pid>,
    /// `U`: union of the unstable bundles collected by the proposer.
    pub unstable: U,
}

/// Messages of the membership protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GmMsg<U> {
    /// A member's flush for a view change of `view`: announces (and
    /// merges) the exclusion/join sets and carries the sender's
    /// unstable messages. The first flush a process sees for its
    /// current view is what makes it join the view change.
    Flush {
        /// The view being changed.
        view: ViewId,
        /// Members being excluded (suspected).
        excluded: BTreeSet<Pid>,
        /// Processes being (re)admitted.
        joining: BTreeSet<Pid>,
        /// The sender's unstable messages.
        unstable: U,
    },
    /// Consensus traffic of the view change of `view`.
    Cons {
        /// The view being changed.
        view: ViewId,
        /// The embedded consensus message.
        inner: ConsensusMsg<ViewProposal<U>>,
    },
    /// An excluded process asking to be let back in.
    Join,
    /// Tells a joiner the view it has been admitted into.
    Welcome {
        /// Id of the view.
        view: ViewId,
        /// Its members.
        members: BTreeSet<Pid>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposal_ordering_is_total() {
        let a = ViewProposal {
            members: BTreeSet::from([Pid::new(0)]),
            unstable: BTreeSet::from([1u32]),
        };
        let b = ViewProposal {
            members: BTreeSet::from([Pid::new(0)]),
            unstable: BTreeSet::from([2u32]),
        };
        assert!(a < b);
    }
}
