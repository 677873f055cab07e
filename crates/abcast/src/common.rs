//! Types shared by both atomic broadcast algorithms.

use core::fmt;

use neko::{DestSet, Pid};

/// Requirements on application payloads carried by atomic broadcast.
pub trait Payload: Clone + Eq + Ord + fmt::Debug + 'static {}
impl<T: Clone + Eq + Ord + fmt::Debug + 'static> Payload for T {}

/// Globally unique identity of one atomic broadcast:
/// `(origin, per-origin sequence number)`. The deterministic delivery
/// order inside a batch ("according to the order of their IDs", paper
/// Section 4.1) is the `Ord` of this type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The broadcasting process.
    pub origin: Pid,
    /// The origin-local sequence number.
    pub seq: u64,
}

impl rbcast::SeqId for MsgId {
    fn origin(self) -> Pid {
        self.origin
    }

    fn seq(self) -> u64 {
        self.seq
    }

    fn from_parts(origin: Pid, seq: u64) -> Self {
        MsgId { origin, seq }
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.origin, self.seq)
    }
}

/// Observable outputs of an atomic-broadcast node, consumed by the
/// experiment harness (this is the `Out` type of the [`neko::Process`]
/// shells).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbcastEvent<P> {
    /// `A-deliver(m)`: the message is delivered, in total order.
    Delivered {
        /// The broadcast's identity.
        id: MsgId,
        /// Its payload.
        payload: P,
    },
}

/// Outputs of an atomic broadcast state machine, in execution order.
/// The [`crate::Node`] shell carries them out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CastAction<M, P> {
    /// Send to one process.
    Send(Pid, M),
    /// Send to every process of the current group, as one multicast.
    Multicast(M),
    /// `A-deliver`.
    Deliver {
        /// The broadcast's identity.
        id: MsgId,
        /// Its payload.
        payload: P,
    },
    /// From here on, multicasts go to this set. A machine's group
    /// starts as every other process; GM announces each view it
    /// installs.
    Group(DestSet),
    /// Arm a [`crate::RETRY_INTERVAL`] timer with this tag; when it
    /// fires, the shell hands the tag back to [`crate::Machine::retry`].
    Retry(u64),
}

/// The stall rule of the periodic probes. Each probe compares the
/// progress signature of the work in flight with the one the previous
/// probe saw. Two consecutive frozen probes (≥ 2 intervals of zero
/// progress) separate real message loss from work that is merely slow
/// or queued behind a deep backlog near saturation, where a repair
/// would add load (and perturb the FD ≡ GM message pattern) for
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct StallRule<S> {
    last: Option<S>,
    frozen: u32,
}

impl<S: PartialEq> StallRule<S> {
    /// Records a probe that saw `sig` (`None`: nothing in flight) and
    /// returns whether the work has stalled.
    pub(crate) fn stalled(&mut self, sig: Option<S>) -> bool {
        let frozen = sig.is_some() && self.last == sig;
        self.last = sig;
        self.frozen = if frozen {
            self.frozen.saturating_add(1)
        } else {
            0
        };
        self.frozen >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_orders_by_origin_then_seq() {
        let a = MsgId {
            origin: Pid::new(0),
            seq: 9,
        };
        let b = MsgId {
            origin: Pid::new(1),
            seq: 0,
        };
        let c = MsgId {
            origin: Pid::new(1),
            seq: 1,
        };
        assert!(a < b && b < c);
        assert_eq!(b.to_string(), "p2:0");
    }
}
