//! Types shared by both atomic broadcast algorithms.

use core::fmt;

use neko::Pid;

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
