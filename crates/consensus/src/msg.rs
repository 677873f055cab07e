//! Wire messages and actions of the consensus protocol.

use neko::Pid;
use rbcast::RbMsg;

/// A value that can be decided by consensus.
///
/// `Ord` is required only to make tie-breaking among timestamp-0
/// estimates deterministic; any total order works.
pub trait Value: Clone + Eq + Ord + std::fmt::Debug + 'static {}
impl<T: Clone + Eq + Ord + std::fmt::Debug + 'static> Value for T {}

/// The decision, as disseminated by reliable broadcast.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Decision<V> {
    /// The decided value.
    pub value: V,
}

/// Messages of the Chandra–Toueg ♦S consensus algorithm.
///
/// `round` is 1-based; the coordinator of round `r` is the
/// `((r − 1) mod n)`-th process of the instance's rotation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusMsg<V> {
    /// Phase 1 (rounds > 1): a participant's current estimate and the
    /// round in which it was adopted, sent to the round's coordinator.
    Estimate {
        /// Round this estimate is for.
        round: u32,
        /// The estimate value.
        est: V,
        /// Round in which `est` was adopted (0 = initial value).
        ts: u32,
    },
    /// Phase 2: the coordinator's proposal for the round.
    Propose {
        /// Round of the proposal.
        round: u32,
        /// The proposed value.
        value: V,
    },
    /// Phase 3: positive acknowledgement of the round's proposal.
    Ack {
        /// Acknowledged round.
        round: u32,
    },
    /// Phase 3: the sender gave up on this round's coordinator.
    Nack {
        /// Nacked round.
        round: u32,
    },
    /// The round's coordinator abandoned it after a nack; everybody
    /// should move to `round + 1`. (In the unoptimised algorithm all
    /// processes free-run through rounds and need no such signal; with
    /// suspicion-driven rounds it is what keeps processes that already
    /// acked from waiting for a decision that will never come.)
    Skip {
        /// The abandoned round.
        round: u32,
    },
    /// Phase 4: the decision, carried by reliable broadcast.
    Decide(RbMsg<Decision<V>>),
}

impl<V> ConsensusMsg<V> {
    /// The round a message belongs to; decisions are round-less.
    pub fn round(&self) -> Option<u32> {
        match self {
            ConsensusMsg::Estimate { round, .. }
            | ConsensusMsg::Propose { round, .. }
            | ConsensusMsg::Ack { round }
            | ConsensusMsg::Nack { round }
            | ConsensusMsg::Skip { round } => Some(*round),
            ConsensusMsg::Decide(_) => None,
        }
    }
}

/// Outputs of the consensus state machine, in execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusAction<V> {
    /// Send to one participant.
    Send(Pid, ConsensusMsg<V>),
    /// Send to every *other* participant of this instance.
    Multicast(ConsensusMsg<V>),
    /// The instance decided. Emitted exactly once.
    Decided(V),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_extraction() {
        let m: ConsensusMsg<u32> = ConsensusMsg::Ack { round: 4 };
        assert_eq!(m.round(), Some(4));
        let m: ConsensusMsg<u32> = ConsensusMsg::Estimate {
            round: 2,
            est: 9,
            ts: 1,
        };
        assert_eq!(m.round(), Some(2));
        let m: ConsensusMsg<u32> = ConsensusMsg::Decide(RbMsg::Data {
            id: rbcast::MsgId {
                origin: Pid::new(0),
                seq: 0,
            },
            payload: Decision { value: 1 },
        });
        assert_eq!(m.round(), None);
    }
}
