//! Types shared by both atomic broadcast algorithms. Their message
//! id is [`rbcast::MsgId`], the one id type of the stack: FD and Ring
//! name an A-broadcast by its reliable broadcast, and GM numbers its
//! own broadcasts the same way.

use core::fmt;

use neko::{DestSet, Pid};
pub use rbcast::MsgId;

/// Requirements on application payloads carried by atomic broadcast.
pub trait Payload: Clone + Eq + Ord + fmt::Debug + 'static {}
impl<T: Clone + Eq + Ord + fmt::Debug + 'static> Payload for T {}

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
