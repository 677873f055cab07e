//! # rbcast — lazy reliable broadcast
//!
//! The efficient reliable-broadcast algorithm the paper uses for
//! disseminating atomic broadcasts and consensus decisions (inspired
//! by Frolund & Pedone, *Revisiting reliable broadcast*, HPL-2001-192):
//! **one broadcast message in the common case**, with relaying only
//! when the origin is suspected.
//!
//! * R-broadcast: the origin multicasts the message once.
//! * On first receipt a process R-delivers the message and retains it.
//! * A process that suspects some origin relays every retained message
//!   of that origin once; duplicates are filtered at the receivers.
//!
//! With a quasi-reliable network this guarantees that if any correct
//! process delivers `m`, all correct processes eventually deliver `m`
//! (the relayers cover the case of an origin that crashed mid-send),
//! while costing a single multicast whenever no suspicion occurs.
//!
//! The implementation is a *pure state machine*: inputs come in
//! through method calls, outputs come out as [`RbAction`]s, so it can
//! be driven by the simulator, by the real runtime, or directly by
//! tests. Its delivered set and retention store are the dense
//! per-origin structures of [`dense`], which the layers above reuse for
//! their own id bookkeeping.
//!
//! A broadcast is named by a [`MsgId`], the one message id type of the
//! stack. The atomic broadcast layers R-broadcast bare payloads: the id
//! [`RbAction::Deliver`] hands up is their message id, so no payload
//! carries its id a second time.
//!
//! ```
//! use neko::Pid;
//! use rbcast::{RbAction, ReliableBcast};
//!
//! let mut rb = ReliableBcast::<&'static str>::new(Pid::new(0));
//! let mut out = Vec::new();
//! rb.broadcast("hello", &mut out);
//! assert!(matches!(out[0], RbAction::Multicast(_)));
//! assert!(matches!(out[1], RbAction::Deliver { payload: "hello", .. }));
//! ```

// Protocol state machines must be bit-deterministic and free of
// ambient effects; this attribute is determinism rule D5 (no
// `unsafe`), the rest are in the root clippy.toml.
#![forbid(unsafe_code)]

use core::fmt;
use std::collections::BTreeSet;

use fdet::SuspectSet;
use neko::Pid;

pub mod dense;

pub use dense::{SeqWindow, WatermarkSet, WindowMap};

/// Globally unique identity of one broadcast: `(origin, per-origin
/// sequence number)`. The stack has this one id type: an A-broadcast
/// is named by its reliable broadcast, and the deterministic delivery
/// order inside a decided batch ("according to the order of their
/// IDs", paper Section 4.1) is this type's `Ord`, origin first, then
/// sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The process that initiated the broadcast.
    pub origin: Pid,
    /// The origin-local sequence number.
    pub seq: u64,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.origin, self.seq)
    }
}

/// Wire message of the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbMsg<M> {
    /// The broadcast payload, identified by `id` (whose `origin` field
    /// names the original sender even when relayed).
    Data {
        /// Broadcast identity.
        id: MsgId,
        /// The application payload.
        payload: M,
    },
    /// Several relayed broadcasts bundled into one message (a relay
    /// triggered by a suspicion covers every retained message of the
    /// suspect at once — one message on the wire, like the membership
    /// service's flush bundles).
    Batch {
        /// The relayed `(identity, payload)` pairs.
        msgs: Vec<(MsgId, M)>,
    },
}

/// Outputs of the state machine, in the order they must be performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbAction<M> {
    /// Send to one process.
    Send(Pid, RbMsg<M>),
    /// Send to every other group member (the shell knows the group).
    Multicast(RbMsg<M>),
    /// Hand the payload to the layer above (R-deliver).
    Deliver {
        /// Broadcast identity.
        id: MsgId,
        /// The application payload.
        payload: M,
    },
}

/// Reliable-broadcast endpoint of one process.
///
/// Retained messages are kept until the layer above calls
/// [`forget`](ReliableBcast::forget) (it knows when a message has
/// become stable, e.g. once a consensus decision covering it is
/// delivered); in a long-lived deployment that call is what bounds
/// memory.
#[derive(Clone, Debug)]
pub struct ReliableBcast<M> {
    me: Pid,
    next_seq: u64,
    store: WindowMap<M>,
    delivered: WatermarkSet,
    relayed: BTreeSet<MsgId>,
}

impl<M: Clone + fmt::Debug> ReliableBcast<M> {
    /// Creates the endpoint for process `me`.
    pub fn new(me: Pid) -> Self {
        ReliableBcast {
            me,
            next_seq: 0,
            store: WindowMap::new(),
            delivered: WatermarkSet::new(),
            relayed: BTreeSet::new(),
        }
    }

    /// R-broadcasts `payload`: one multicast plus an immediate local
    /// delivery. Returns the broadcast's identity.
    pub fn broadcast(&mut self, payload: M, out: &mut Vec<RbAction<M>>) -> MsgId {
        let id = MsgId {
            origin: self.me,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.store.insert(id, payload.clone());
        self.delivered.insert(id);
        out.push(RbAction::Multicast(RbMsg::Data {
            id,
            payload: payload.clone(),
        }));
        out.push(RbAction::Deliver { id, payload });
        id
    }

    /// Handles a received protocol message. `suspects` is the local
    /// failure detector's current output, used for the lazy relay.
    pub fn on_message(
        &mut self,
        _from: Pid,
        msg: RbMsg<M>,
        suspects: &SuspectSet,
        out: &mut Vec<RbAction<M>>,
    ) {
        // Single-payload fast path: the common-case `Data` message
        // costs one retained clone and no intermediate vector.
        let msgs = match msg {
            RbMsg::Data { id, payload } => {
                if self.delivered.insert(id) {
                    self.store.insert(id, payload.clone());
                    let relay = id.origin != self.me
                        && suspects.contains(id.origin)
                        && self.relayed.insert(id);
                    if relay {
                        out.push(RbAction::Deliver {
                            id,
                            payload: payload.clone(),
                        });
                        out.push(RbAction::Multicast(RbMsg::Data { id, payload }));
                    } else {
                        out.push(RbAction::Deliver { id, payload });
                    }
                }
                return;
            }
            RbMsg::Batch { msgs } => msgs,
        };
        let mut to_relay = Vec::new();
        for (id, payload) in msgs {
            if !self.delivered.insert(id) {
                continue; // duplicate (e.g. a relay)
            }
            self.store.insert(id, payload.clone());
            out.push(RbAction::Deliver {
                id,
                payload: payload.clone(),
            });
            // Lazy relay: if the origin is already suspected when the
            // message arrives, pass it on immediately.
            if id.origin != self.me && suspects.contains(id.origin) && self.relayed.insert(id) {
                to_relay.push((id, payload));
            }
        }
        self.push_relay(to_relay, out);
    }

    /// Reacts to the failure detector starting to suspect `p`: relays
    /// every retained message that originated at `p` (once each).
    pub fn on_suspect(&mut self, p: Pid, out: &mut Vec<RbAction<M>>) {
        if p == self.me {
            return;
        }
        let to_relay: Vec<(MsgId, M)> = self
            .store
            .iter_origin(p)
            .filter(|(id, _)| !self.relayed.contains(id))
            .map(|(id, m)| (id, m.clone()))
            .collect();
        for (id, _) in &to_relay {
            self.relayed.insert(*id);
        }
        self.push_relay(to_relay, out);
    }

    /// Emits relayed messages as one wire message (a `Data` for a
    /// single payload, a `Batch` otherwise).
    fn push_relay(&self, mut to_relay: Vec<(MsgId, M)>, out: &mut Vec<RbAction<M>>) {
        match to_relay.len() {
            0 => {}
            1 => {
                let (id, payload) = to_relay.remove(0);
                out.push(RbAction::Multicast(RbMsg::Data { id, payload }));
            }
            _ => out.push(RbAction::Multicast(RbMsg::Batch { msgs: to_relay })),
        }
    }

    /// Drops the retained copy of `id` (the layer above knows it is
    /// stable). Delivery deduplication is unaffected.
    pub fn forget(&mut self, id: MsgId) {
        self.store.remove(id);
    }

    /// Returns a retransmittable copy of a retained message, if any
    /// (used to help processes that are behind).
    pub fn message_for(&self, id: MsgId) -> Option<RbMsg<M>> {
        self.store.get(id).map(|payload| RbMsg::Data {
            id,
            payload: payload.clone(),
        })
    }

    /// Whether `id` has been delivered locally.
    pub fn has_delivered(&self, id: MsgId) -> bool {
        self.delivered.contains(id)
    }

    /// Number of retained (not yet forgotten) messages.
    pub fn retained(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neko::FdEvent;

    fn no_suspects() -> SuspectSet {
        SuspectSet::new()
    }

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

    #[test]
    fn pack_payloads_ride_as_one_broadcast() {
        // The batching layer ships whole packs of (id, payload) pairs
        // through this crate as a single opaque payload: one multicast
        // on the wire however many A-broadcasts are inside, delivered
        // intact at the far end.
        type Pack = Vec<(u64, &'static str)>;
        let pack: Pack = vec![(0, "a"), (1, "b"), (2, "c")];
        let mut rb = ReliableBcast::<Pack>::new(Pid::new(0));
        let mut out = Vec::new();
        let id = rb.broadcast(pack.clone(), &mut out);
        assert_eq!(out.len(), 2, "one multicast + local delivery");
        let mut receiver = ReliableBcast::<Pack>::new(Pid::new(1));
        let RbAction::Multicast(wire) = out[0].clone() else {
            panic!("first action must be the multicast");
        };
        let mut rx_out = Vec::new();
        receiver.on_message(Pid::new(0), wire, &no_suspects(), &mut rx_out);
        assert_eq!(
            rx_out,
            vec![RbAction::Deliver { id, payload: pack }],
            "the pack arrives whole"
        );
    }

    fn data_of<M: Clone + fmt::Debug>(actions: &[RbAction<M>]) -> Vec<MsgId> {
        actions
            .iter()
            .filter_map(|a| match a {
                RbAction::Deliver { id, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn broadcast_is_one_multicast_plus_local_delivery() {
        let mut rb = ReliableBcast::new(Pid::new(0));
        let mut out = Vec::new();
        let id = rb.broadcast(7u64, &mut out);
        assert_eq!(out.len(), 2);
        assert!(
            matches!(&out[0], RbAction::Multicast(RbMsg::Data { id: i, payload: 7 }) if *i == id)
        );
        assert!(matches!(&out[1], RbAction::Deliver { id: i, payload: 7 } if *i == id));
        assert!(rb.has_delivered(id));
    }

    #[test]
    fn delivers_exactly_once() {
        let mut a = ReliableBcast::new(Pid::new(0));
        let mut b = ReliableBcast::new(Pid::new(1));
        let mut out = Vec::new();
        let id = a.broadcast(1u64, &mut out);
        let msg = RbMsg::Data { id, payload: 1u64 };
        let mut out_b = Vec::new();
        b.on_message(Pid::new(0), msg.clone(), &no_suspects(), &mut out_b);
        b.on_message(Pid::new(2), msg, &no_suspects(), &mut out_b); // relay copy
        assert_eq!(data_of(&out_b), vec![id]);
    }

    #[test]
    fn suspicion_triggers_relay_once() {
        let p0 = Pid::new(0);
        let mut b = ReliableBcast::new(Pid::new(1));
        let mut out = Vec::new();
        let id = MsgId { origin: p0, seq: 0 };
        b.on_message(
            p0,
            RbMsg::Data { id, payload: 5u64 },
            &no_suspects(),
            &mut out,
        );
        out.clear();
        b.on_suspect(p0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], RbAction::Multicast(RbMsg::Data { id: i, .. }) if *i == id));
        out.clear();
        b.on_suspect(p0, &mut out); // second suspicion: nothing new
        assert!(out.is_empty());
    }

    #[test]
    fn message_arriving_from_suspected_origin_is_relayed_immediately() {
        let p0 = Pid::new(0);
        let mut b = ReliableBcast::new(Pid::new(1));
        let mut suspects = SuspectSet::new();
        suspects.apply(FdEvent::Suspect(p0));
        let mut out = Vec::new();
        let id = MsgId { origin: p0, seq: 3 };
        b.on_message(p0, RbMsg::Data { id, payload: 9u64 }, &suspects, &mut out);
        assert!(matches!(&out[0], RbAction::Deliver { .. }));
        assert!(matches!(&out[1], RbAction::Multicast(_)));
        // And not again on the suspicion callback.
        out.clear();
        b.on_suspect(p0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn forget_stops_relaying_but_not_dedup() {
        let p0 = Pid::new(0);
        let mut b = ReliableBcast::new(Pid::new(1));
        let mut out = Vec::new();
        let id = MsgId { origin: p0, seq: 0 };
        b.on_message(
            p0,
            RbMsg::Data { id, payload: 5u64 },
            &no_suspects(),
            &mut out,
        );
        b.forget(id);
        assert_eq!(b.retained(), 0);
        out.clear();
        b.on_suspect(p0, &mut out);
        assert!(out.is_empty());
        b.on_message(
            p0,
            RbMsg::Data { id, payload: 5u64 },
            &no_suspects(),
            &mut out,
        );
        assert!(out.is_empty(), "forgotten message must not be redelivered");
    }

    #[test]
    fn relay_covers_only_the_suspected_origin() {
        let mut b = ReliableBcast::new(Pid::new(2));
        let mut out = Vec::new();
        for origin in [Pid::new(0), Pid::new(1)] {
            for seq in 0..3 {
                b.on_message(
                    origin,
                    RbMsg::Data {
                        id: MsgId { origin, seq },
                        payload: seq,
                    },
                    &no_suspects(),
                    &mut out,
                );
            }
        }
        out.clear();
        b.on_suspect(Pid::new(0), &mut out);
        // All three relays travel in one batched message.
        assert_eq!(out.len(), 1);
        match &out[0] {
            RbAction::Multicast(RbMsg::Batch { msgs }) => {
                assert_eq!(msgs.len(), 3);
                for (id, _) in msgs {
                    assert_eq!(id.origin, Pid::new(0));
                }
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn self_suspicion_is_ignored() {
        let mut a = ReliableBcast::new(Pid::new(0));
        let mut out = Vec::new();
        a.broadcast(1u64, &mut out);
        out.clear();
        a.on_suspect(Pid::new(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn message_for_retransmission() {
        let mut a = ReliableBcast::new(Pid::new(0));
        let mut out = Vec::new();
        let id = a.broadcast(11u64, &mut out);
        assert_eq!(a.message_for(id), Some(RbMsg::Data { id, payload: 11 }));
        a.forget(id);
        assert_eq!(a.message_for(id), None);
    }

    #[test]
    fn far_future_sequence_numbers_stay_out_of_the_dense_part() {
        // Sequence numbers come off the wire: `u64::MAX` and other
        // far-future values must be delivered once, like any other,
        // without growing the retention window or moving the delivered
        // watermark.
        let p0 = Pid::new(0);
        let mut b = ReliableBcast::new(Pid::new(1));
        let mut out = Vec::new();
        let id = |seq| MsgId { origin: p0, seq };
        for seq in 0..3 {
            let msg = RbMsg::Data {
                id: id(seq),
                payload: seq,
            };
            b.on_message(p0, msg, &no_suspects(), &mut out);
        }
        let span = b.store.span();
        out.clear();
        for seq in [u64::MAX, u64::MAX - 1, 1 << 40] {
            let msg = RbMsg::Data {
                id: id(seq),
                payload: seq,
            };
            b.on_message(p0, msg.clone(), &no_suspects(), &mut out);
            b.on_message(p0, msg, &no_suspects(), &mut out);
        }
        let batch = RbMsg::Batch {
            msgs: vec![(id(u64::MAX), 0), (id(u64::MAX - 2), 0), (id(3), 3)],
        };
        b.on_message(p0, batch, &no_suspects(), &mut out);
        assert_eq!(
            data_of(&out),
            vec![
                id(u64::MAX),
                id(u64::MAX - 1),
                id(1 << 40),
                id(u64::MAX - 2),
                id(3)
            ],
            "each delivered exactly once"
        );
        assert_eq!(b.store.span(), span + 1, "only seq 3 joined the window");
        assert_eq!(b.delivered.watermark(p0), 4);
        assert!(b.has_delivered(id(u64::MAX)) && !b.has_delivered(id(4)));
        // The far entries are retained and relayed like any other.
        assert_eq!(b.retained(), 8);
        out.clear();
        b.on_suspect(p0, &mut out);
        let relayed = out.iter().map(|a| match a {
            RbAction::Multicast(RbMsg::Batch { msgs }) => msgs.len(),
            _ => 0,
        });
        assert_eq!(relayed.sum::<usize>(), 8);
    }

    /// Abstract-network agreement test: random delivery order, origin
    /// crashes mid-multicast; once survivors suspect the origin, all
    /// correct processes must end with identical delivered sets.
    #[test]
    fn agreement_under_partial_multicast_and_relay() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn route(
            from: usize,
            out: Vec<RbAction<u64>>,
            n: usize,
            in_flight: &mut Vec<(usize, RbMsg<u64>)>,
            delivered: &mut [Vec<MsgId>],
        ) {
            for a in out {
                match a {
                    RbAction::Deliver { id, .. } => delivered[from].push(id),
                    RbAction::Multicast(msg) => {
                        for to in 0..n {
                            // The crashed origin (p0) receives nothing.
                            if to != from && to != 0 {
                                in_flight.push((to, msg.clone()));
                            }
                        }
                    }
                    RbAction::Send(to, msg) => {
                        if to.index() != 0 {
                            in_flight.push((to.index(), msg));
                        }
                    }
                }
            }
        }

        for seed in 0..50u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 4;
            let origin = Pid::new(0);
            let mut procs: Vec<ReliableBcast<u64>> =
                (0..n).map(|i| ReliableBcast::new(Pid::new(i))).collect();
            let mut delivered: Vec<Vec<MsgId>> = vec![Vec::new(); n];
            let mut suspects: Vec<SuspectSet> = vec![SuspectSet::new(); n];

            // Origin broadcasts but the multicast reaches only one
            // random process (it crashes mid-send).
            let mut out = Vec::new();
            let id = procs[0].broadcast(99, &mut out);
            delivered[0].push(id);
            let mut in_flight: Vec<(usize, RbMsg<u64>)> = Vec::new();
            let lucky = 1 + rng.gen_range(0..(n - 1));
            in_flight.push((lucky, RbMsg::Data { id, payload: 99 }));

            // Everyone eventually suspects the crashed origin.
            let mut pending_suspicions: Vec<usize> = (1..n).collect();

            while !in_flight.is_empty() || !pending_suspicions.is_empty() {
                let act_suspicion =
                    in_flight.is_empty() || (!pending_suspicions.is_empty() && rng.gen_bool(0.3));
                let mut out = Vec::new();
                if act_suspicion {
                    let i =
                        pending_suspicions.swap_remove(rng.gen_range(0..pending_suspicions.len()));
                    suspects[i].apply(FdEvent::Suspect(origin));
                    procs[i].on_suspect(origin, &mut out);
                    route(i, out, n, &mut in_flight, &mut delivered);
                } else {
                    let (to, msg) = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
                    procs[to].on_message(origin, msg, &suspects[to], &mut out);
                    route(to, out, n, &mut in_flight, &mut delivered);
                }
            }

            for i in 1..n {
                assert_eq!(
                    delivered[i], delivered[lucky],
                    "seed {seed}: process {i} diverged"
                );
            }
        }
    }
}
