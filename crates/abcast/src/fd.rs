//! The **FD algorithm**: Chandra–Toueg uniform atomic broadcast,
//! using unreliable failure detectors directly (paper Section 4.1).
//!
//! `A-broadcast(m)` reliable-broadcasts `m`; the delivery order is
//! decided by a sequence of consensus instances `#1, #2, …`, each
//! deciding a *batch* of message ids (with payloads, so a process can
//! deliver a message it has not yet received directly). Batch `k` is
//! A-delivered — in id order — before batch `k+1`. One consensus can
//! decide many messages, which is the algorithm's natural aggregation
//! under load.
//!
//! The coordinator-renumbering optimisation of Section 7 is
//! implemented (and toggleable, for the ablation study): proposals are
//! tagged with their proposer, and after deciding batch `k` every
//! process rotates the coordinator order of instance `k+1` to start at
//! the decided proposer — so crashed processes eventually stop being
//! round-1 coordinators and the crash-steady latency does not depend
//! on *which* process crashed.
//!
//! What the consensus instances order is a [`Strategy`] of the
//! reduction. The paper's algorithm is [`Bodies`]: batches carry the
//! payloads. The `ringpaxos` crate instantiates the same reduction
//! with a strategy that orders ids only and repairs missing bodies.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use consensus::{Consensus, ConsensusAction, ConsensusConfig, ConsensusMsg, Value};
use fdet::SuspectSet;
use neko::{FdEvent, Message, Pid};
use rbcast::{RbAction, RbMsg, ReliableBcast, WatermarkSet, WindowMap};

use crate::common::{CastAction, MsgId, Payload, StallRule};
use crate::node::Machine;

/// A consensus proposal/decision: a batch of messages, tagged with its
/// proposer for the renumbering optimisation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Batch<P> {
    /// The process whose proposal this is.
    pub proposer: Pid,
    /// The batched messages, in id order.
    pub msgs: Vec<(MsgId, P)>,
}

/// The reduction's own wire messages, over consensus values `V`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CastMsg<P, V> {
    /// Reliable broadcast of a payload; its rb id is the message id.
    Data(RbMsg<P>),
    /// Consensus traffic of instance `k`.
    Cons {
        /// The instance number.
        k: u64,
        /// The embedded consensus message.
        inner: ConsensusMsg<V>,
    },
    /// Channel repair: "my oldest undecided instance is `k` and it
    /// has made no progress — resend what I may have lost". Sent by
    /// the stall probe after a crash-recovery or healed partition
    /// dropped in-flight messages; receivers answer with the
    /// decisions the sender is missing, or re-emit their directed
    /// state for the instance.
    Nudge {
        /// The sender's current instance.
        k: u64,
    },
}

/// Wire messages of the FD algorithm.
pub type FdCastMsg<P> = CastMsg<P, Batch<P>>;

impl<P: Payload, V: Value> Message for CastMsg<P, V> {
    // Consensus aggregates whole batches per instance; no wire-level
    // coalescing is needed (or used by the paper) for the FD side.
}

/// Outputs of the FD state machine.
pub type FdCastAction<P> = CastAction<FdCastMsg<P>, P>;

/// Why the reduction hands a strategy ids whose bodies are missing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repair {
    /// The decision at the head of the delivery order was just found
    /// blocked on them.
    Blocked,
    /// A suspicion may have cut off a repair in flight.
    Suspicion,
    /// A stall probe found the head decision still blocked.
    Probe,
}

/// The reduction's local state, as a strategy's hooks read it.
#[derive(Debug)]
pub struct Local<'a, P> {
    /// This process.
    pub me: Pid,
    /// Group size.
    pub n: usize,
    /// Round-1 coordinator of the current instance.
    pub coord_first: Pid,
    /// The failure detector's current output.
    pub suspects: &'a SuspectSet,
    /// Received, not yet delivered payloads.
    pub pending: &'a Pending<P>,
}

/// What the reduction's consensus instances order, and what follows
/// from it. The default hooks suit a value that carries its bodies.
pub trait Strategy<P: Payload>: Default + fmt::Debug + 'static {
    /// The consensus value.
    type Value: Value;
    /// The wire message: [`CastMsg`] traffic plus the strategy's own.
    type Msg: Message;

    /// Wraps the reduction's traffic into the wire message.
    fn wrap(msg: CastMsg<P, Self::Value>) -> Self::Msg;
    /// Unwraps the reduction's traffic; the strategy's own is `Err`.
    fn split(msg: Self::Msg) -> Result<CastMsg<P, Self::Value>, Self::Msg>;
    /// `me`'s proposal, built from the pending messages.
    fn propose(me: Pid, pending: &Pending<P>) -> Self::Value;
    /// The process that proposed `value` (coordinator renumbering).
    fn proposer(value: &Self::Value) -> Pid;
    /// The messages of a decided `value` with nothing missing, in
    /// delivery order (ids already delivered may be skipped).
    fn deliveries(&mut self, value: Self::Value, pending: &mut Pending<P>) -> Vec<(MsgId, P)>;
    /// Ids of `value` whose bodies are neither pending nor delivered:
    /// its delivery waits until they arrive.
    fn missing(_value: &Self::Value, _: &Pending<P>, _: &WatermarkSet) -> Vec<MsgId> {
        Vec::new()
    }
    /// A payload body arrived by reliable broadcast (the FD self-check
    /// mutation records arrival order here).
    fn on_body(&mut self, _id: MsgId) {}
    /// Handles one of the strategy's own messages; returns the bodies
    /// it recovered.
    fn on_message(
        &mut self,
        _at: &Local<'_, P>,
        _msg: Self::Msg,
        _out: &mut Actions<Self, P>,
    ) -> Vec<(MsgId, P)> {
        Vec::new()
    }
    /// Repairs the `missing` bodies the head decision is blocked on.
    fn repair(
        &mut self,
        _at: &Local<'_, P>,
        _missing: Vec<MsgId>,
        _why: Repair,
        _out: &mut Actions<Self, P>,
    ) {
    }
}

/// Received, not yet delivered payloads, in id order.
pub type Pending<P> = WindowMap<P>;

/// The action buffer a strategy `S` writes to.
pub type Actions<S, P> = Vec<CastAction<<S as Strategy<P>>::Msg, P>>;

/// The FD algorithm's strategy: consensus orders whole [`Batch`]es,
/// bodies included, so a decision never waits for a payload.
#[derive(Debug, Default)]
pub struct Bodies {
    /// Local arrival order of pending messages — only consulted by
    /// the `mutation-skip-tiebreak` self-check build (see
    /// `deliveries`).
    #[cfg(feature = "mutation-skip-tiebreak")]
    arrival: Vec<MsgId>,
}

impl<P: Payload> Strategy<P> for Bodies {
    type Value = Batch<P>;
    type Msg = FdCastMsg<P>;

    fn wrap(msg: FdCastMsg<P>) -> FdCastMsg<P> {
        msg
    }

    fn split(msg: FdCastMsg<P>) -> Result<FdCastMsg<P>, FdCastMsg<P>> {
        Ok(msg)
    }

    fn propose(me: Pid, pending: &Pending<P>) -> Batch<P> {
        let mut msgs = Vec::with_capacity(pending.len());
        msgs.extend(pending.iter().map(|(id, p)| (id, p.clone())));
        Batch { proposer: me, msgs }
    }

    fn proposer(value: &Batch<P>) -> Pid {
        value.proposer
    }

    fn deliveries(&mut self, value: Batch<P>, _: &mut Pending<P>) -> Vec<(MsgId, P)> {
        // SELF-CHECK MUTATION ("the oracle has teeth"): with the
        // `mutation-skip-tiebreak` feature the paper's tie-break —
        // deliver a decided batch "according to the order of their
        // IDs" (Section 4.1) — is deliberately skipped in favour of
        // *local arrival order*, which differs between processes
        // whenever broadcasts race. The decided value is still
        // agreed; only the delivery order inside the batch diverges,
        // exactly the class of bug the schedule explorer must catch
        // and shrink (tests/explore.rs pins that it does). Never
        // enable this feature outside that self-check.
        #[cfg(feature = "mutation-skip-tiebreak")]
        let value = {
            let mut value = value;
            let pos = |id: &MsgId| {
                self.arrival
                    .iter()
                    .position(|a| a == id)
                    .unwrap_or(usize::MAX)
            };
            value.msgs.sort_by_key(|(id, _)| (pos(id), *id));
            value
        };
        value.msgs
    }

    #[cfg(feature = "mutation-skip-tiebreak")]
    fn on_body(&mut self, id: MsgId) {
        if !self.arrival.contains(&id) {
            self.arrival.push(id);
        }
    }
}

/// Consensus messages buffered for an instance not yet started.
type FutureMsgs<V> = Vec<(Pid, ConsensusMsg<V>)>;

/// Observable progress of the oldest undecided instance, compared
/// across stall probes: `(instance, consensus diagnostic snapshot)`.
type ProgressSig = (u64, Option<(u32, &'static str, usize, usize)>);

/// Per-process endpoint of the FD atomic broadcast algorithm — the
/// reduction to reliable broadcast plus a sequence of consensus
/// instances, ordering what the strategy `S` chooses.
///
/// Pure state machine; the [`crate::FdNode`] shell adapts it to
/// [`neko::Process`].
#[derive(Debug)]
pub struct FdAbcast<P: Payload, S: Strategy<P> = Bodies> {
    me: Pid,
    n: usize,
    renumbering: bool,
    strategy: S,
    rb: ReliableBcast<P>,
    pending: Pending<P>,
    delivered: WatermarkSet,
    delivered_log: Vec<MsgId>,
    /// Next instance to decide (all below are decided).
    k: u64,
    instances: BTreeMap<u64, Consensus<S::Value>>,
    decisions_ahead: BTreeMap<u64, S::Value>,
    future: BTreeMap<u64, FutureMsgs<S::Value>>,
    coord_first: Pid,
    suspects: SuspectSet,
    /// The oldest undecided instance's progress, across stall probes.
    stall: StallRule<ProgressSig>,
    /// Reused action buffers for the inner rbcast/consensus machines.
    /// Always empty between calls; kept only for their capacity (the
    /// handlers otherwise allocate a fresh vector per wire message).
    rb_scratch: Vec<RbAction<P>>,
    cons_scratch: Vec<ConsensusAction<S::Value>>,
}

impl<P: Payload> FdAbcast<P> {
    /// Disables the coordinator-renumbering optimisation (ablation).
    pub fn without_renumbering(mut self) -> Self {
        self.renumbering = false;
        self
    }
}

impl<P: Payload, S: Strategy<P>> FdAbcast<P, S> {
    /// Creates the endpoint for `me` in a system of `n` processes.
    /// `suspects` is the failure detector's current output.
    pub fn new(me: Pid, n: usize, suspects: &SuspectSet) -> Self {
        FdAbcast {
            me,
            n,
            renumbering: true,
            strategy: S::default(),
            rb: ReliableBcast::new(me),
            pending: WindowMap::new(),
            delivered: WatermarkSet::new(),
            delivered_log: Vec::new(),
            k: 1,
            instances: BTreeMap::new(),
            decisions_ahead: BTreeMap::new(),
            future: BTreeMap::new(),
            coord_first: Pid::new(0),
            suspects: suspects.clone(),
            stall: StallRule::default(),
            rb_scratch: Vec::new(),
            cons_scratch: Vec::new(),
        }
    }

    /// The A-delivery order so far (ids).
    pub fn delivered_log(&self) -> &[MsgId] {
        &self.delivered_log
    }

    /// Number of messages received but not yet ordered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Current consensus instance number.
    pub fn instance(&self) -> u64 {
        self.k
    }

    /// Ids decided at the current instance whose payloads are still
    /// missing locally (the delivery loop is blocked on them). Always
    /// empty for [`Bodies`], whose decisions carry the payloads.
    pub fn missing_payloads(&self) -> Vec<MsgId> {
        self.decisions_ahead
            .get(&self.k)
            .map(|v| S::missing(v, &self.pending, &self.delivered))
            .unwrap_or_default()
    }
}

impl<P: Payload, S: Strategy<P>> Machine for FdAbcast<P, S> {
    type Payload = P;
    type Msg = S::Msg;
    const PROBE_TAG: u64 = 3;

    /// `A-broadcast(payload)`; returns the new message's id.
    fn broadcast(&mut self, payload: P, out: &mut Actions<S, P>) -> MsgId {
        // One reliable broadcast per A-broadcast; the rb id is the
        // message id.
        let mut rb_out = std::mem::take(&mut self.rb_scratch);
        let id = self.rb.broadcast(payload, &mut rb_out);
        self.map_rb(&mut rb_out, out);
        self.rb_scratch = rb_out;
        id
    }

    /// Handles a wire message.
    fn on_message(&mut self, from: Pid, msg: S::Msg, out: &mut Actions<S, P>) {
        match S::split(msg) {
            Ok(CastMsg::Data(rbmsg)) => {
                let mut rb_out = std::mem::take(&mut self.rb_scratch);
                self.rb.on_message(from, rbmsg, &self.suspects, &mut rb_out);
                self.map_rb(&mut rb_out, out);
                self.rb_scratch = rb_out;
                // A data arrival may be the body a decided value was
                // blocked on.
                self.apply_ready_decisions(out);
            }
            Ok(CastMsg::Cons { k, inner }) => {
                if k > self.k {
                    // Instances run strictly in order locally; keep
                    // early traffic for later.
                    self.future.entry(k).or_default().push((from, inner));
                    return;
                }
                if k == self.k {
                    self.open_instance(out);
                }
                self.step_cons(k, out, |c, o| c.on_message(from, inner, o));
            }
            Ok(CastMsg::Nudge { k }) => {
                if k < self.k {
                    // The sender is behind: serve it every decision it
                    // is missing (it applies them in order and catches
                    // up in one hop).
                    for kk in k..self.k {
                        if let Some(reply) =
                            self.instances.get(&kk).and_then(Consensus::decision_reply)
                        {
                            out.push(CastAction::Send(
                                from,
                                S::wrap(CastMsg::Cons {
                                    k: kk,
                                    inner: reply,
                                }),
                            ));
                        }
                    }
                } else if k == self.k {
                    // Same instance: re-emit our directed state — the
                    // proposal (coordinator) or estimate/ack
                    // (participant) the sender may have lost.
                    self.step_cons(k, out, |c, o| c.resend_to(from, o));
                }
                // k > self.k: the nudger is ahead; our own stall probe
                // covers our side.
            }
            Err(own) => {
                // The strategy's own traffic: bodies it recovers may
                // unblock the head decision.
                let (strategy, at) = self.parts();
                let bodies = strategy.on_message(&at, own, out);
                if !bodies.is_empty() {
                    for (id, p) in bodies {
                        if !self.delivered.contains(id) && !self.pending.contains_key(id) {
                            self.pending.insert(id, p);
                        }
                    }
                    self.apply_ready_decisions(out);
                    self.ensure_instance(out);
                }
            }
        }
    }

    /// Periodic channel-repair probe (the shell's probe timer): when
    /// the oldest undecided instance has made *no* observable progress
    /// for two probes, ask the group to resend what was lost. Quiet in
    /// loss-free runs — consensus always progresses between probes —
    /// so steady-state behaviour is untouched. A head decision still
    /// blocked on missing bodies goes back to the strategy's repair
    /// first, without the two-probe hysteresis: a decided value with
    /// missing payloads is never slow consensus, it is a lost message
    /// by construction.
    fn probe(&mut self, out: &mut Actions<S, P>) {
        self.repair(Repair::Probe, out);
        let sig = (self.k, self.instances.get(&self.k).map(Consensus::progress));
        if !self.stall.stalled(Some(sig)) {
            return;
        }
        let undecided = self
            .instances
            .get(&self.k)
            .is_some_and(|c| !c.has_decided());
        if undecided {
            out.push(CastAction::Multicast(S::wrap(CastMsg::Nudge { k: self.k })));
        }
    }

    /// Handles a failure-detector edge.
    fn on_fd(&mut self, ev: FdEvent, out: &mut Actions<S, P>) {
        self.suspects.apply(ev);
        if let FdEvent::Suspect(p) = ev {
            // Lazy relay of undecided payloads from the suspect.
            let mut rb_out = std::mem::take(&mut self.rb_scratch);
            self.rb.on_suspect(p, &mut rb_out);
            self.map_rb(&mut rb_out, out);
            self.rb_scratch = rb_out;
            self.repair(Repair::Suspicion, out);
        }
        // Only the in-flight instance reacts to suspicions (the paper's
        // "the FD algorithm reacts only to the crash of the [current]
        // coordinator"). Decided instances serve laggards by replying
        // to their messages with the decision instead.
        self.step_cons(self.k, out, |c, o| c.on_fd(ev, o));
    }
}

impl<P: Payload, S: Strategy<P>> FdAbcast<P, S> {
    /// The strategy, beside the local state its hooks read.
    fn parts(&mut self) -> (&mut S, Local<'_, P>) {
        let at = Local {
            me: self.me,
            n: self.n,
            coord_first: self.coord_first,
            suspects: &self.suspects,
            pending: &self.pending,
        };
        (&mut self.strategy, at)
    }

    /// Hands the head decision's missing bodies, if any, to the
    /// strategy's repair; returns whether delivery is blocked on them.
    fn repair(&mut self, why: Repair, out: &mut Actions<S, P>) -> bool {
        let missing = self.missing_payloads();
        if missing.is_empty() {
            return false;
        }
        let (strategy, at) = self.parts();
        strategy.repair(&at, missing, why, out);
        true
    }

    fn map_rb(&mut self, rb_out: &mut Vec<RbAction<P>>, out: &mut Actions<S, P>) {
        for a in rb_out.drain(..) {
            match a {
                RbAction::Deliver { id, payload: p } => {
                    if !self.delivered.contains(id) {
                        self.strategy.on_body(id);
                        self.pending.insert(id, p);
                        self.ensure_instance(out);
                    }
                }
                RbAction::Multicast(m) => {
                    out.push(CastAction::Multicast(S::wrap(CastMsg::Data(m))));
                }
                RbAction::Send(to, m) => out.push(CastAction::Send(to, S::wrap(CastMsg::Data(m)))),
            }
        }
    }

    /// Creates (and proposes in) the current instance if we hold
    /// pending messages. Incoming traffic for the instance opens it
    /// regardless, through [`open_instance`](Self::open_instance).
    fn ensure_instance(&mut self, out: &mut Actions<S, P>) {
        if !self.pending.is_empty() {
            self.open_instance(out);
        }
    }

    /// Creates the current instance if it does not exist yet and
    /// proposes our pending batch in it. Every instance proposes when
    /// it is created, so an existing one is left as it is.
    fn open_instance(&mut self, out: &mut Actions<S, P>) {
        let k = self.k;
        let inst = match self.instances.entry(k) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let cfg = if self.renumbering {
                    ConsensusConfig::ring_from(self.me, self.n, self.coord_first)
                } else {
                    ConsensusConfig::ring(self.me, self.n)
                };
                e.insert(Consensus::new(cfg, &self.suspects))
            }
        };
        // Propose our current pending batch (empty batches are valid
        // when we were dragged in). An instance proposes once, so skip
        // building the proposal when it would be a no-op.
        if inst.has_proposed() || inst.has_decided() {
            return;
        }
        let value = S::propose(self.me, &self.pending);
        self.step_cons(k, out, |c, o| c.propose(value, o));
    }

    /// Runs `step` on instance `k`, if it exists here, and pumps what
    /// it emits: consensus traffic onto the wire, a decision into the
    /// in-order application.
    fn step_cons(
        &mut self,
        k: u64,
        out: &mut Actions<S, P>,
        step: impl FnOnce(&mut Consensus<S::Value>, &mut Vec<ConsensusAction<S::Value>>),
    ) {
        let Some(inst) = self.instances.get_mut(&k) else {
            return;
        };
        let mut cons_out = std::mem::take(&mut self.cons_scratch);
        step(inst, &mut cons_out);
        let mut decided = None;
        for a in cons_out.drain(..) {
            let wire = |inner| S::wrap(CastMsg::Cons { k, inner });
            match a {
                ConsensusAction::Send(p, m) => out.push(CastAction::Send(p, wire(m))),
                ConsensusAction::Multicast(m) => out.push(CastAction::Multicast(wire(m))),
                ConsensusAction::Decided(v) => decided = Some(v),
            }
        }
        self.cons_scratch = cons_out;
        if let Some(value) = decided {
            self.decisions_ahead.insert(k, value);
            self.apply_ready_decisions(out);
        }
    }

    fn apply_ready_decisions(&mut self, out: &mut Actions<S, P>) {
        loop {
            if self.repair(Repair::Blocked, out) {
                // The decision outran its payloads: in-order delivery
                // waits for the strategy's repair.
                return;
            }
            let Some(value) = self.decisions_ahead.remove(&self.k) else {
                return;
            };
            let proposer = S::proposer(&value);
            for (id, p) in self.strategy.deliveries(value, &mut self.pending) {
                if self.delivered.insert(id) {
                    self.pending.remove(id);
                    self.delivered_log.push(id);
                    self.rb.forget(id);
                    out.push(CastAction::Deliver { id, payload: p });
                }
            }
            if self.renumbering {
                self.coord_first = proposer;
            }
            self.k += 1;
            // Drain consensus traffic that arrived early for the new
            // instance. The instance number is pinned *outside* the
            // loop: processing one buffered message can decide this
            // instance and advance `self.k` (decisions already queued
            // in `decisions_ahead` chain-apply), and feeding the
            // remaining buffered messages — e.g. a second copy of the
            // decision, from the relay — into the *new* current
            // instance would decide it with the old instance's value
            // and silently diverge from the group. (Found by the
            // schedule explorer; pinned by
            // `buffered_duplicate_decision_stays_in_its_instance`.)
            let drained_k = self.k;
            if let Some(msgs) = self.future.remove(&drained_k) {
                self.open_instance(out);
                for (from, inner) in msgs {
                    self.step_cons(drained_k, out, |c, o| c.on_message(from, inner, o));
                }
            }
            self.ensure_instance(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    type Queue = VecDeque<(Pid, Pid, FdCastMsg<u32>)>;

    fn route(from: Pid, out: Vec<FdCastAction<u32>>, n: usize, queue: &mut Queue) {
        for a in out {
            match a {
                CastAction::Send(to, m) => queue.push_back((from, to, m)),
                CastAction::Multicast(m) => {
                    for to in Pid::all(n).filter(|&to| to != from) {
                        queue.push_back((from, to, m.clone()));
                    }
                }
                CastAction::Deliver { .. } | CastAction::Group(_) | CastAction::Retry(_) => {}
            }
        }
    }

    /// FIFO delivery until the queue drains.
    fn drive(nodes: &mut [FdAbcast<u32>], queue: &mut Queue) {
        while let Some((from, to, m)) = queue.pop_front() {
            let mut out = Vec::new();
            if let Some(node) = nodes.get_mut(to.index()) {
                node.on_message(from, m, &mut out);
            }
            route(to, out, nodes.len(), queue);
        }
    }

    #[test]
    fn far_future_ids_off_the_wire_are_ordered_without_growing_dense_state() {
        let n = 3;
        let s = SuspectSet::new();
        let mut nodes: Vec<FdAbcast<u32>> = Pid::all(n).map(|p| FdAbcast::new(p, n, &s)).collect();
        let mut queue = Queue::new();
        let p1 = Pid::new(1);
        for (p, node) in Pid::all(n).zip(nodes.iter_mut()) {
            let mut out = Vec::new();
            node.broadcast(10 + p.index() as u32, &mut out);
            route(p, out, n, &mut queue);
        }
        drive(&mut nodes, &mut queue);
        // Far-future sequence numbers of p2 reach every process: one
        // `Data`, then a relay-style `Batch` that repeats it.
        let data = |seq| (MsgId { origin: p1, seq }, seq as u32);
        let (id, payload) = data(u64::MAX);
        let msgs = vec![data(u64::MAX - 1), data(1 << 40), data(u64::MAX)];
        for to in Pid::all(n) {
            let single = RbMsg::Data { id, payload };
            queue.push_back((p1, to, CastMsg::Data(single)));
            let batch = RbMsg::Batch { msgs: msgs.clone() };
            queue.push_back((p1, to, CastMsg::Data(batch)));
        }
        drive(&mut nodes, &mut queue);
        for (p, node) in Pid::all(n).zip(nodes.iter_mut()) {
            let mut out = Vec::new();
            node.broadcast(20 + p.index() as u32, &mut out);
            route(p, out, n, &mut queue);
        }
        drive(&mut nodes, &mut queue);

        let id = |seq| MsgId { origin: p1, seq };
        let reference = nodes.first().map(|n| n.delivered_log().to_vec());
        for node in &nodes {
            assert_eq!(Some(node.delivered_log().to_vec()), reference);
            assert_eq!(
                node.delivered_log().len(),
                9,
                "every broadcast delivered once"
            );
            let p1_log: Vec<MsgId> = node
                .delivered_log()
                .iter()
                .copied()
                .filter(|m| m.origin == p1)
                .collect();
            // p2's own broadcasts keep their order around the far ids.
            let first = p1_log.iter().position(|&m| m == id(0));
            let second = p1_log.iter().position(|&m| m == id(1));
            assert!(
                matches!((first, second), (Some(a), Some(b)) if a < b),
                "{p1_log:?}"
            );
            assert_eq!(node.pending(), 0);
            assert_eq!(node.pending.span(), 0, "nothing left in the window");
            assert_eq!(node.delivered.watermark(p1), 2, "far ids overflow");
            assert!(node.delivered.contains(id(u64::MAX)));
        }
    }

    #[test]
    fn without_renumbering_keeps_ring_order() {
        let s = SuspectSet::new();
        let a = FdAbcast::<u32>::new(Pid::new(0), 3, &s).without_renumbering();
        assert!(!a.renumbering);
    }
}
