//! The ring strategy of the FD algorithm's reduction: consensus on
//! ids only, and repair of the bodies a decision outran by fetching
//! them around the ring (see the crate documentation).

use std::collections::{BTreeMap, BTreeSet};

use abcast::{
    Actions, CastAction, CastMsg, FdAbcast, FdNode, Local, MsgId, Payload, Pending, Repair,
    Strategy,
};
use consensus::ConsensusMsg;
use neko::{Message, Pid};
use rbcast::{RbMsg, WatermarkSet};

use crate::ring::{ring_members, ring_successor};

/// A consensus proposal/decision: the *ids* of a batch of messages,
/// tagged with the proposer for the renumbering optimisation. This is
/// the Ring Paxos signature — the ordering tier agrees on compact
/// identifiers, never on payload bodies.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct IdBatch {
    /// The process whose proposal this is.
    pub proposer: Pid,
    /// The batched message ids, in id order.
    pub ids: Vec<MsgId>,
}

/// Wire messages of the ring algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingMsg<P> {
    /// Reliable broadcast of a payload; its rb id is the message id.
    Data(RbMsg<P>),
    /// Consensus traffic of instance `k` (ids only).
    Cons {
        /// The instance number.
        k: u64,
        /// The embedded consensus message.
        inner: ConsensusMsg<IdBatch>,
    },
    /// Channel repair: "my oldest undecided instance is `k` and it
    /// has made no progress — resend what I may have lost" (identical
    /// to the FD algorithm's nudge).
    Nudge {
        /// The sender's current instance.
        k: u64,
    },
    /// Payload repair: `requester` holds a decision for `ids` but not
    /// their bodies. Hops unicast around the ring — each acceptor
    /// serves what it holds and forwards the remainder to its ring
    /// successor while `ttl` lasts.
    Fetch {
        /// The process missing the payloads (the `Fwd` target).
        requester: Pid,
        /// The ids still unresolved at this hop.
        ids: Vec<MsgId>,
        /// Remaining hops before the fetch is dropped (the
        /// requester's stall probe re-issues).
        ttl: u8,
    },
    /// Payload repair answer: bodies sent unicast straight back to
    /// the fetch's requester.
    Fwd {
        /// The resolved `(id, payload)` pairs.
        msgs: Vec<(MsgId, P)>,
    },
}

impl<P: Payload> Message for RingMsg<P> {
    // Consensus aggregates whole id-batches per instance, and fetches
    // are one-shot repairs; no wire-level coalescing.
}

/// Outputs of the ring state machine, in execution order.
pub type RingAction<P> = CastAction<RingMsg<P>, P>;

/// Per-process endpoint of the ring atomic broadcast algorithm: the
/// FD reduction, ordering ids only.
pub type RingAbcast<P> = FdAbcast<P, Ring<P>>;

/// A process running the **ring algorithm** (Ring Paxos-style atomic
/// broadcast). Commands are payloads to A-broadcast; outputs are
/// A-deliveries.
pub type RingNode<P> = FdNode<P, Ring<P>>;

/// The ring strategy: consensus orders [`IdBatch`]es, and bodies a
/// decision outran are fetched around the ring.
#[derive(Debug)]
pub struct Ring<P> {
    /// Delivered bodies, retained to serve laggards' fetches. Bounded
    /// by the run length, like the reduction's decided-instance map —
    /// the study's runs are seconds of simulated time.
    archive: BTreeMap<MsgId, P>,
    /// Undelivered ids a fetch was issued for (cleared each probe
    /// tick, so lost fetches are retried at probe cadence without
    /// flooding). An id whose body arrived is never missing again, so
    /// its entry only has to go by the time it is delivered.
    fetching: BTreeSet<MsgId>,
    /// Rotates the fetch entry point across re-issues: origin first,
    /// then around the ring, then everyone else.
    fetch_cursor: usize,
}

impl<P> Default for Ring<P> {
    fn default() -> Self {
        Ring {
            archive: BTreeMap::new(),
            fetching: BTreeSet::new(),
            fetch_cursor: 0,
        }
    }
}

impl<P: Payload> Strategy<P> for Ring<P> {
    type Value = IdBatch;
    type Msg = RingMsg<P>;

    fn wrap(msg: CastMsg<P, IdBatch>) -> RingMsg<P> {
        match msg {
            CastMsg::Data(m) => RingMsg::Data(m),
            CastMsg::Cons { k, inner } => RingMsg::Cons { k, inner },
            CastMsg::Nudge { k } => RingMsg::Nudge { k },
        }
    }

    fn split(msg: RingMsg<P>) -> Result<CastMsg<P, IdBatch>, RingMsg<P>> {
        match msg {
            RingMsg::Data(m) => Ok(CastMsg::Data(m)),
            RingMsg::Cons { k, inner } => Ok(CastMsg::Cons { k, inner }),
            RingMsg::Nudge { k } => Ok(CastMsg::Nudge { k }),
            repair => Err(repair),
        }
    }

    fn propose(me: Pid, pending: &Pending<P>) -> IdBatch {
        // The compact proposal: ids only (pending iterates in id
        // order, the paper's in-batch delivery tie-break).
        let mut ids = Vec::with_capacity(pending.len());
        ids.extend(pending.keys());
        IdBatch { proposer: me, ids }
    }

    fn proposer(value: &IdBatch) -> Pid {
        value.proposer
    }

    fn missing(value: &IdBatch, pending: &Pending<P>, delivered: &WatermarkSet) -> Vec<MsgId> {
        value
            .ids
            .iter()
            .copied()
            .filter(|&id| !delivered.contains(id) && !pending.contains_key(id))
            .collect()
    }

    fn deliveries(&mut self, value: IdBatch, pending: &mut Pending<P>) -> Vec<(MsgId, P)> {
        // Nothing is missing, so every undelivered id is pending.
        value
            .ids
            .into_iter()
            .filter_map(|id| {
                let p = pending.remove(id)?;
                self.fetching.remove(&id);
                // Retain the body: a laggard applying this decision
                // later fetches it from us.
                self.archive.insert(id, p.clone());
                Some((id, p))
            })
            .collect()
    }

    fn on_message(
        &mut self,
        at: &Local<'_, P>,
        msg: RingMsg<P>,
        out: &mut Actions<Self, P>,
    ) -> Vec<(MsgId, P)> {
        match msg {
            RingMsg::Fetch {
                requester,
                ids,
                ttl,
            } => {
                self.on_fetch(at, requester, ids, ttl, out);
                Vec::new()
            }
            RingMsg::Fwd { msgs } => msgs,
            // The reduction's own traffic never reaches the strategy.
            RingMsg::Data(_) | RingMsg::Cons { .. } | RingMsg::Nudge { .. } => Vec::new(),
        }
    }

    fn repair(
        &mut self,
        at: &Local<'_, P>,
        missing: Vec<MsgId>,
        why: Repair,
        out: &mut Actions<Self, P>,
    ) {
        match why {
            Repair::Blocked => {}
            // A fetch in flight may have been addressed to (or routed
            // through) the suspect; re-issue on the rotated ring.
            Repair::Suspicion => self.fetching.clear(),
            // Lost fetches or forwards: retry with a rotated entry
            // point.
            Repair::Probe => {
                self.fetching.clear();
                self.fetch_cursor += 1;
            }
        }
        self.issue_fetch(at, missing, out);
    }
}

impl<P: Payload> Ring<P> {
    /// Serves a fetch hop: answer the requester with every body held
    /// locally, forward the rest to the ring successor.
    fn on_fetch(
        &self,
        at: &Local<'_, P>,
        requester: Pid,
        ids: Vec<MsgId>,
        ttl: u8,
        out: &mut Actions<Self, P>,
    ) {
        if requester == at.me {
            // Our own fetch walked the whole ring unanswered; the
            // stall probe re-issues with a rotated entry point.
            return;
        }
        let mut found = Vec::new();
        let mut rest = Vec::new();
        for id in ids {
            if let Some(p) = at.pending.get(id).or_else(|| self.archive.get(&id)) {
                found.push((id, p.clone()));
            } else {
                rest.push(id);
            }
        }
        if !found.is_empty() {
            out.push(CastAction::Send(requester, RingMsg::Fwd { msgs: found }));
        }
        if !rest.is_empty() && ttl > 1 {
            if let Some(succ) = ring_successor(at.me, at.n, at.coord_first, at.suspects) {
                if succ != requester {
                    out.push(CastAction::Send(
                        succ,
                        RingMsg::Fetch {
                            requester,
                            ids: rest,
                            ttl: ttl - 1,
                        },
                    ));
                }
            }
        }
    }

    /// Sends a fetch for every missing id that has none in flight.
    /// The entry point rotates with `fetch_cursor`: the id's origin
    /// first (it certainly held the body), then around the ring from
    /// our successor, then any remaining process — so a repeatedly
    /// re-issued fetch eventually tries every live holder.
    fn issue_fetch(&mut self, at: &Local<'_, P>, missing: Vec<MsgId>, out: &mut Actions<Self, P>) {
        // Around the ring from our successor (from its head if we are
        // not a member), then everyone else.
        let members = ring_members(at.n, at.coord_first, at.suspects);
        let next = members
            .iter()
            .position(|&p| p == at.me)
            .map_or(0, |i| i + 1);
        let (after, before) = members.split_at(next);
        let mut pool: Vec<Pid> = after
            .iter()
            .chain(before)
            .copied()
            .filter(|&p| p != at.me)
            .collect();
        pool.extend(Pid::all(at.n).filter(|p| *p != at.me && !members.contains(p)));
        if pool.is_empty() {
            return;
        }
        let ttl = at.n.min(u8::MAX as usize) as u8;
        let mut by_target: BTreeMap<Pid, Vec<MsgId>> = BTreeMap::new();
        for id in missing {
            if !self.fetching.insert(id) {
                continue; // already in flight
            }
            let origin =
                (id.origin != at.me && !at.suspects.contains(id.origin)).then_some(id.origin);
            let candidates: Vec<Pid> = origin
                .into_iter()
                .chain(pool.iter().copied().filter(|&p| Some(p) != origin))
                .collect();
            let target = candidates[self.fetch_cursor % candidates.len()];
            by_target.entry(target).or_default().push(id);
        }
        for (target, ids) in by_target {
            out.push(CastAction::Send(
                target,
                RingMsg::Fetch {
                    requester: at.me,
                    ids,
                    ttl,
                },
            ));
        }
    }
}
