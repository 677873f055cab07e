//! The Chandra–Toueg ♦S consensus state machine.
//!
//! One [`Consensus`] value is one *instance* (the layers above run
//! many: one per batch of atomic broadcasts, one per view change). The
//! machine is pure: feed it proposals, messages and failure-detector
//! edges; collect [`ConsensusAction`]s.
//!
//! The implementation includes the "easy optimizations" the paper
//! mentions:
//!
//! * **round-1 fast path** — the first coordinator proposes its own
//!   initial value immediately, skipping the estimate phase, so a
//!   suspicion-free instance costs proposal + acks + decision (the
//!   pattern of the paper's Fig. 1);
//! * **suspicion-driven rounds** — participants stay in a round until
//!   they receive the decision, suspect the coordinator, or see a
//!   higher-round message (then they jump); there is no free-running
//!   round cycling;
//! * **instant nack** — a process entering a round whose coordinator
//!   it already suspects nacks and moves on immediately (this is what
//!   makes a crashed first coordinator cheap once detectors have
//!   converged);
//! * **decision by reliable broadcast** — decisions ride on
//!   [`rbcast`], so a coordinator crash between decision sends is
//!   healed by the lazy relay, and laggards asking about old rounds
//!   are answered with the decision.

use std::collections::BTreeMap;

use fdet::SuspectSet;
use neko::{DestSet, FdEvent, Pid};
use rbcast::{RbAction, RbMsg, ReliableBcast};

use crate::msg::{ConsensusAction, ConsensusMsg, Decision, Value};

/// Static configuration of one consensus instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusConfig {
    /// This process.
    pub me: Pid,
    /// Coordinator rotation: round `r` is coordinated by
    /// `order[(r − 1) mod order.len()]`. Must contain `me`.
    pub order: Vec<Pid>,
}

impl ConsensusConfig {
    /// Rotation `p1, p2, …, pn` over all `n` processes.
    pub fn ring(me: Pid, n: usize) -> Self {
        ConsensusConfig {
            me,
            order: Pid::all(n).collect(),
        }
    }

    /// Rotation starting at `first`, then continuing in pid order
    /// around the ring (the coordinator-renumbering optimisation of
    /// the paper's Section 7).
    pub fn ring_from(me: Pid, n: usize, first: Pid) -> Self {
        let order = Pid::all(n)
            .map(|p| Pid::new((p.index() + first.index()) % n))
            .collect();
        ConsensusConfig { me, order }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not yet activated (no round entered).
    Idle,
    /// Coordinator: waiting for an estimate quorum (or, in round 1,
    /// for our own proposal).
    CollectEstimates,
    /// Coordinator: proposal sent, waiting for an ack quorum.
    AwaitAcks,
    /// Participant: waiting for the coordinator's proposal.
    AwaitPropose,
    /// Participant: acked, waiting for the decision.
    AwaitDecision,
    /// Decided.
    Done,
}

/// One instance of Chandra–Toueg ♦S consensus.
///
/// ```
/// use consensus::{Consensus, ConsensusAction, ConsensusConfig};
/// use fdet::SuspectSet;
/// use neko::Pid;
///
/// // The round-1 coordinator decides alone in a 1-process "group".
/// let cfg = ConsensusConfig::ring(Pid::new(0), 1);
/// let mut c = Consensus::new(cfg, &SuspectSet::new());
/// let mut out = Vec::new();
/// c.propose(42u32, &mut out);
/// assert!(out.iter().any(|a| matches!(a, ConsensusAction::Decided(42))));
/// ```
#[derive(Clone, Debug)]
pub struct Consensus<V: Value> {
    me: Pid,
    order: Vec<Pid>,
    quorum: usize,
    round: u32,
    phase: Phase,
    estimate: Option<V>,
    ts: u32,
    proposed: bool,
    decided: bool,
    decision_msg: Option<RbMsg<Decision<V>>>,
    suspects: SuspectSet,
    estimates: BTreeMap<Pid, (V, u32)>,
    /// The coordinator's acks of the current round: only membership
    /// and a count are read, so a [`DestSet`] replaces a tree of pids.
    acks: DestSet,
    estimate_sent_for: u32,
    rb: ReliableBcast<Decision<V>>,
}

impl<V: Value> Consensus<V> {
    /// Creates an instance. `suspects` is the local failure
    /// detector's *current* output (an instance created long after a
    /// crash must not wait for the dead coordinator).
    ///
    /// # Panics
    ///
    /// Panics if the rotation order is empty or does not contain `me`.
    pub fn new(config: ConsensusConfig, suspects: &SuspectSet) -> Self {
        assert!(!config.order.is_empty(), "rotation order must not be empty");
        assert!(
            config.order.contains(&config.me),
            "rotation order must contain `me`"
        );
        let quorum = config.order.len() / 2 + 1;
        Consensus {
            me: config.me,
            quorum,
            round: 0,
            phase: Phase::Idle,
            estimate: None,
            ts: 0,
            proposed: false,
            decided: false,
            decision_msg: None,
            suspects: suspects.clone(),
            estimates: BTreeMap::new(),
            acks: DestSet::new(),
            estimate_sent_for: 0,
            rb: ReliableBcast::new(config.me),
            order: config.order,
        }
    }

    /// The coordinator of round `r`.
    pub fn coordinator(&self, r: u32) -> Pid {
        self.order[((r - 1) as usize) % self.order.len()]
    }

    /// The current round (0 before activation).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Whether this instance has decided.
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    /// Whether this process has already proposed its initial value
    /// (further [`propose`](Self::propose) calls are no-ops, so a
    /// caller can skip building the value altogether).
    pub fn has_proposed(&self) -> bool {
        self.proposed
    }

    /// Progress signature: `(round, phase, estimates, acks)`.
    ///
    /// `FdAbcast::stall_probe` compares two successive signatures to
    /// tell a stalled instance from a slow one, and nudges the group
    /// only when they are equal. The contract is therefore: any
    /// progress this machine makes (a new round, phase, estimate or
    /// ack, or a decision) must change the signature.
    pub fn progress(&self) -> (u32, &'static str, usize, usize) {
        let phase = match self.phase {
            Phase::Idle => "idle",
            Phase::CollectEstimates => "collect-estimates",
            Phase::AwaitAcks => "await-acks",
            Phase::AwaitPropose => "await-propose",
            Phase::AwaitDecision => "await-decision",
            Phase::Done => "done",
        };
        (self.round, phase, self.estimates.len(), self.acks.len())
    }

    /// The decision wrapped for a late peer, if this instance has
    /// decided.
    pub fn decision_reply(&self) -> Option<ConsensusMsg<V>> {
        self.decision_msg
            .as_ref()
            .map(|d| ConsensusMsg::Decide(d.clone()))
    }

    /// Re-emits this instance's directed state toward `p` — the
    /// channel-repair hook for crash-recovery and healed partitions,
    /// where a message to `p` may have been lost while `p` was
    /// unreachable. Safe to call at any time: every re-sent message
    /// is idempotent at the receiver.
    pub fn resend_to(&self, p: Pid, out: &mut Vec<ConsensusAction<V>>) {
        if self.decided {
            if let Some(reply) = self.decision_reply() {
                out.push(ConsensusAction::Send(p, reply));
            }
            return;
        }
        match self.phase {
            // Coordinator: `p` may have missed our proposal.
            Phase::AwaitAcks if self.coordinator(self.round) == self.me => {
                let value = self.estimate.clone().expect("await-acks has an estimate");
                out.push(ConsensusAction::Send(
                    p,
                    ConsensusMsg::Propose {
                        round: self.round,
                        value,
                    },
                ));
            }
            // Coordinator still collecting estimates in a later round:
            // a peer wedged in an *older* round (its stale messages to
            // us are dropped, our round change never reached it) will
            // never send the estimate we wait for — drag it forward.
            // `Skip(round − 1)` makes it enter our round and send its
            // estimate; abandoning an old round is always safe (the
            // locking is carried by the estimate timestamps).
            Phase::CollectEstimates
                if self.coordinator(self.round) == self.me && self.round > 1 =>
            {
                out.push(ConsensusAction::Send(
                    p,
                    ConsensusMsg::Skip {
                        round: self.round - 1,
                    },
                ));
            }
            // Participant toward its coordinator: it may have missed
            // our estimate (rounds > 1) or our ack.
            Phase::AwaitPropose | Phase::AwaitDecision if self.coordinator(self.round) == p => {
                if self.round > 1 {
                    if let Some(est) = self.estimate.clone() {
                        out.push(ConsensusAction::Send(
                            p,
                            ConsensusMsg::Estimate {
                                round: self.round,
                                est,
                                ts: self.ts,
                            },
                        ));
                    }
                }
                if self.phase == Phase::AwaitDecision {
                    out.push(ConsensusAction::Send(
                        p,
                        ConsensusMsg::Ack { round: self.round },
                    ));
                }
            }
            _ => {}
        }
    }

    /// The other participants, in rotation order (the destination set
    /// of [`ConsensusAction::Multicast`]).
    pub fn peers(&self) -> Vec<Pid> {
        self.order
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect()
    }

    /// Proposes this process's initial value. Later calls are ignored
    /// (consensus decides once).
    pub fn propose(&mut self, v: V, out: &mut Vec<ConsensusAction<V>>) {
        self.ensure_active(out);
        if self.proposed || self.decided {
            return;
        }
        self.proposed = true;
        if self.estimate.is_none() {
            self.estimate = Some(v);
            self.ts = 0;
        }
        match self.phase {
            Phase::CollectEstimates if self.round == 1 => self.try_propose_round1(out),
            Phase::CollectEstimates => {
                let est = self.estimate.clone().expect("estimate set above");
                self.estimates.insert(self.me, (est, self.ts));
                self.maybe_propose(out);
            }
            Phase::AwaitPropose if self.round > 1 => self.send_estimate(out),
            _ => {}
        }
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(
        &mut self,
        from: Pid,
        msg: ConsensusMsg<V>,
        out: &mut Vec<ConsensusAction<V>>,
    ) {
        self.ensure_active(out);
        if let ConsensusMsg::Decide(rbmsg) = msg {
            self.on_decide_msg(from, rbmsg, out);
            return;
        }
        if self.decided {
            // Help processes that are behind: estimates, proposals,
            // skips and nacks all mean the sender is still working on
            // a round — answer with the decision. (Acks are the normal
            // tail of the decided round and need no reply.)
            if matches!(
                msg,
                ConsensusMsg::Estimate { .. }
                    | ConsensusMsg::Propose { .. }
                    | ConsensusMsg::Skip { .. }
                    | ConsensusMsg::Nack { .. }
            ) {
                if let Some(d) = &self.decision_msg {
                    out.push(ConsensusAction::Send(from, ConsensusMsg::Decide(d.clone())));
                }
            }
            return;
        }
        let round = msg.round().expect("round-less messages handled above");
        if round < self.round {
            return; // stale
        }
        if round > self.round {
            self.enter_round(round, out);
            if self.decided || round < self.round {
                // The jump overshot (instant nacks) or decided.
                return;
            }
        }
        self.process_current_round(from, msg, out);
    }

    /// Handles a failure-detector edge.
    pub fn on_fd(&mut self, ev: FdEvent, out: &mut Vec<ConsensusAction<V>>) {
        self.ensure_active(out);
        self.suspects.apply(ev);
        let FdEvent::Suspect(p) = ev else { return };
        // Relay a known decision originated by the suspected process.
        let mut rb_out = Vec::new();
        self.rb.on_suspect(p, &mut rb_out);
        self.map_rb(rb_out, out);
        if self.decided || p == self.me {
            return;
        }
        if p == self.coordinator(self.round) {
            match self.phase {
                Phase::AwaitPropose => {
                    out.push(ConsensusAction::Send(
                        p,
                        ConsensusMsg::Nack { round: self.round },
                    ));
                    let next = self.round + 1;
                    self.enter_round(next, out);
                }
                Phase::AwaitDecision => {
                    let next = self.round + 1;
                    self.enter_round(next, out);
                }
                // We are the coordinator ourselves in the remaining
                // active phases; self-suspicion cannot happen.
                _ => {}
            }
        }
    }

    fn ensure_active(&mut self, out: &mut Vec<ConsensusAction<V>>) {
        if self.phase == Phase::Idle {
            self.enter_round(1, out);
        }
    }

    fn enter_round(&mut self, r: u32, out: &mut Vec<ConsensusAction<V>>) {
        let mut r = r;
        loop {
            self.round = r;
            self.estimates.clear();
            self.acks = DestSet::new();
            let c = self.coordinator(r);
            if c == self.me {
                self.phase = Phase::CollectEstimates;
                if r == 1 {
                    self.try_propose_round1(out);
                } else {
                    if let Some(est) = self.estimate.clone() {
                        self.estimates.insert(self.me, (est, self.ts));
                    }
                    self.maybe_propose(out);
                }
                return;
            }
            self.phase = Phase::AwaitPropose;
            if !self.suspects.is_suspected(c) {
                if r > 1 {
                    self.send_estimate(out);
                }
                return;
            }
            // Instant nack: the coordinator of this round is already
            // suspected, move on right away.
            out.push(ConsensusAction::Send(c, ConsensusMsg::Nack { round: r }));
            r += 1;
        }
    }

    fn try_propose_round1(&mut self, out: &mut Vec<ConsensusAction<V>>) {
        if self.proposed && self.phase == Phase::CollectEstimates && self.round == 1 {
            let v = self.estimate.clone().expect("proposed implies estimate");
            self.do_propose(v, out);
        }
    }

    fn maybe_propose(&mut self, out: &mut Vec<ConsensusAction<V>>) {
        if self.phase != Phase::CollectEstimates || self.round == 1 {
            return;
        }
        if self.estimates.len() < self.quorum {
            return;
        }
        // Highest timestamp wins; prefer our own entry among ties,
        // then the smallest pid, for determinism.
        let max_ts = self
            .estimates
            .values()
            .map(|(_, ts)| *ts)
            .max()
            .expect("quorum > 0");
        let pick = if self
            .estimates
            .get(&self.me)
            .is_some_and(|(_, ts)| *ts == max_ts)
        {
            self.estimates[&self.me].0.clone()
        } else {
            self.estimates
                .iter()
                .find(|(_, (_, ts))| *ts == max_ts)
                .map(|(_, (v, _))| v.clone())
                .expect("max exists")
        };
        self.do_propose(pick, out);
    }

    fn do_propose(&mut self, v: V, out: &mut Vec<ConsensusAction<V>>) {
        self.estimate = Some(v.clone());
        self.ts = self.round;
        out.push(ConsensusAction::Multicast(ConsensusMsg::Propose {
            round: self.round,
            value: v,
        }));
        self.acks = DestSet::single(self.me);
        self.phase = Phase::AwaitAcks;
        self.maybe_decide(out);
    }

    fn maybe_decide(&mut self, out: &mut Vec<ConsensusAction<V>>) {
        if self.phase == Phase::AwaitAcks && self.acks.len() >= self.quorum {
            let v = self.estimate.clone().expect("coordinator has an estimate");
            let mut rb_out = Vec::new();
            self.rb.broadcast(Decision { value: v }, &mut rb_out);
            self.map_rb(rb_out, out);
        }
    }

    fn send_estimate(&mut self, out: &mut Vec<ConsensusAction<V>>) {
        if self.estimate_sent_for >= self.round {
            return;
        }
        let Some(est) = self.estimate.clone() else {
            return;
        };
        self.estimate_sent_for = self.round;
        let c = self.coordinator(self.round);
        out.push(ConsensusAction::Send(
            c,
            ConsensusMsg::Estimate {
                round: self.round,
                est,
                ts: self.ts,
            },
        ));
    }

    fn process_current_round(
        &mut self,
        from: Pid,
        msg: ConsensusMsg<V>,
        out: &mut Vec<ConsensusAction<V>>,
    ) {
        let r = self.round;
        match msg {
            ConsensusMsg::Estimate { est, ts, .. } => {
                if self.coordinator(r) == self.me && self.phase == Phase::CollectEstimates {
                    self.estimates.insert(from, (est, ts));
                    self.maybe_propose(out);
                }
            }
            ConsensusMsg::Propose { value, .. } => {
                if from == self.coordinator(r) && self.phase == Phase::AwaitPropose {
                    self.estimate = Some(value);
                    self.ts = r;
                    out.push(ConsensusAction::Send(from, ConsensusMsg::Ack { round: r }));
                    self.phase = Phase::AwaitDecision;
                }
            }
            ConsensusMsg::Ack { .. } => {
                if self.coordinator(r) == self.me && self.phase == Phase::AwaitAcks {
                    self.acks.insert(from);
                    self.maybe_decide(out);
                }
            }
            ConsensusMsg::Nack { .. } => {
                if self.coordinator(r) == self.me
                    && matches!(self.phase, Phase::AwaitAcks | Phase::CollectEstimates)
                {
                    // Someone moved on; abandon this round and tell
                    // everybody (processes that already acked would
                    // otherwise wait for a decision forever).
                    out.push(ConsensusAction::Multicast(ConsensusMsg::Skip { round: r }));
                    self.enter_round(r + 1, out);
                }
            }
            ConsensusMsg::Skip { .. } => {
                // Round r was abandoned by its coordinator.
                self.enter_round(r + 1, out);
            }
            ConsensusMsg::Decide(_) => unreachable!("handled by caller"),
        }
    }

    fn on_decide_msg(
        &mut self,
        from: Pid,
        rbmsg: RbMsg<Decision<V>>,
        out: &mut Vec<ConsensusAction<V>>,
    ) {
        let mut rb_out = Vec::new();
        self.rb.on_message(from, rbmsg, &self.suspects, &mut rb_out);
        self.map_rb(rb_out, out);
    }

    fn map_rb(&mut self, rb_out: Vec<RbAction<Decision<V>>>, out: &mut Vec<ConsensusAction<V>>) {
        for a in rb_out {
            match a {
                RbAction::Deliver { id, payload } => {
                    if !self.decided {
                        self.decided = true;
                        self.phase = Phase::Done;
                        self.decision_msg = self.rb.message_for(id);
                        out.push(ConsensusAction::Decided(payload.value));
                    }
                }
                RbAction::Multicast(m) => {
                    out.push(ConsensusAction::Multicast(ConsensusMsg::Decide(m)));
                }
                RbAction::Send(p, m) => {
                    out.push(ConsensusAction::Send(p, ConsensusMsg::Decide(m)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Act = ConsensusAction<u32>;

    fn cfg(i: usize, n: usize) -> ConsensusConfig {
        ConsensusConfig::ring(Pid::new(i), n)
    }

    fn none() -> SuspectSet {
        SuspectSet::new()
    }

    fn find_propose(out: &[Act]) -> Option<(u32, u32)> {
        out.iter().find_map(|a| match a {
            ConsensusAction::Multicast(ConsensusMsg::Propose { round, value }) => {
                Some((*round, *value))
            }
            _ => None,
        })
    }

    fn decided_value(out: &[Act]) -> Option<u32> {
        out.iter().find_map(|a| match a {
            ConsensusAction::Decided(v) => Some(*v),
            _ => None,
        })
    }

    #[test]
    fn pack_values_decide_whole() {
        // The batching layer proposes packs of (id, payload) pairs;
        // consensus is value-generic, so a whole pack is decided (and
        // learned by the acking participant) intact, in one instance.
        type Pack = Vec<(u64, u64)>;
        let pack: Pack = vec![(0, 40), (1, 41), (2, 42)];
        let mut c0: Consensus<Pack> =
            Consensus::new(ConsensusConfig::ring(Pid::new(0), 3), &none());
        let mut c1: Consensus<Pack> =
            Consensus::new(ConsensusConfig::ring(Pid::new(1), 3), &none());
        let mut out0 = Vec::new();
        c0.propose(pack.clone(), &mut out0);
        let propose = out0
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Multicast(m @ ConsensusMsg::Propose { .. }) => Some(m.clone()),
                _ => None,
            })
            .expect("round-1 proposal");
        let mut out1 = Vec::new();
        c1.on_message(Pid::new(0), propose, &mut out1);
        let ack = ConsensusMsg::Ack { round: 1 };
        let mut out0 = Vec::new();
        c0.on_message(Pid::new(1), ack, &mut out0);
        let decided = out0.iter().find_map(|a| match a {
            ConsensusAction::Decided(v) => Some(v.clone()),
            _ => None,
        });
        assert_eq!(decided, Some(pack), "the pack decides as one value");
    }

    #[test]
    fn failure_free_run_matches_figure_1() {
        // n = 3: coordinator proposes, two acks, decision.
        let mut c0 = Consensus::new(cfg(0, 3), &none());
        let mut c1 = Consensus::new(cfg(1, 3), &none());
        let mut c2 = Consensus::new(cfg(2, 3), &none());
        let p0 = Pid::new(0);

        let mut out0 = Vec::new();
        c0.propose(7, &mut out0);
        let (round, v) = find_propose(&out0).expect("round-1 fast path proposes");
        assert_eq!((round, v), (1, 7));
        assert!(decided_value(&out0).is_none(), "needs a quorum of acks");

        // Others only ack — no estimates in round 1.
        let propose = ConsensusMsg::Propose { round: 1, value: 7 };
        let mut out1 = Vec::new();
        c1.on_message(p0, propose.clone(), &mut out1);
        assert_eq!(
            out1,
            vec![ConsensusAction::Send(p0, ConsensusMsg::Ack { round: 1 })]
        );
        let mut out2 = Vec::new();
        c2.on_message(p0, propose, &mut out2);

        // One ack suffices (2 of 3 with the coordinator's own).
        let mut out0 = Vec::new();
        c0.on_message(Pid::new(1), ConsensusMsg::Ack { round: 1 }, &mut out0);
        assert_eq!(decided_value(&out0), Some(7));
        let decide = out0
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Multicast(m @ ConsensusMsg::Decide(_)) => Some(m.clone()),
                _ => None,
            })
            .expect("decision is multicast");

        // Participants decide on receipt.
        let mut out1 = Vec::new();
        c1.on_message(p0, decide.clone(), &mut out1);
        assert_eq!(decided_value(&out1), Some(7));
        let mut out2 = Vec::new();
        c2.on_message(p0, decide, &mut out2);
        assert_eq!(decided_value(&out2), Some(7));
        assert!(c0.has_decided() && c1.has_decided() && c2.has_decided());
    }

    #[test]
    fn late_ack_does_not_double_decide() {
        let mut c0 = Consensus::new(cfg(0, 3), &none());
        let mut out = Vec::new();
        c0.propose(7, &mut out);
        out.clear();
        c0.on_message(Pid::new(1), ConsensusMsg::Ack { round: 1 }, &mut out);
        assert_eq!(decided_value(&out), Some(7));
        out.clear();
        c0.on_message(Pid::new(2), ConsensusMsg::Ack { round: 1 }, &mut out);
        assert!(decided_value(&out).is_none());
    }

    #[test]
    fn suspected_round1_coordinator_is_nacked_and_round2_runs() {
        // p2's view: it suspects p1 from the start (instant nack), so
        // entering the instance goes straight to round 2 with p2 as
        // coordinator (it needs an estimate quorum there).
        let mut suspects = SuspectSet::new();
        suspects.apply(FdEvent::Suspect(Pid::new(0)));
        let mut c1 = Consensus::new(cfg(1, 3), &suspects);
        let mut out = Vec::new();
        c1.propose(42, &mut out);
        // Nack for round 1 went to p1.
        assert!(out.contains(&ConsensusAction::Send(
            Pid::new(0),
            ConsensusMsg::Nack { round: 1 }
        )));
        assert_eq!(c1.round(), 2);
        // p3 (same suspicion) sends its estimate for round 2 to p2.
        let mut c2 = Consensus::new(cfg(2, 3), &suspects);
        let mut out2 = Vec::new();
        c2.propose(43, &mut out2);
        let est = out2
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Send(to, m @ ConsensusMsg::Estimate { .. }) => {
                    Some((*to, m.clone()))
                }
                _ => None,
            })
            .expect("participant sends estimate in round 2");
        assert_eq!(est.0, Pid::new(1));
        // Feed it to the round-2 coordinator: quorum (own + p3) reached.
        let mut out1 = Vec::new();
        c1.on_message(Pid::new(2), est.1, &mut out1);
        let (round, v) = find_propose(&out1).expect("round-2 proposal");
        assert_eq!(round, 2);
        assert_eq!(v, 42, "coordinator prefers its own ts-0 estimate");
    }

    #[test]
    fn suspicion_mid_round_sends_nack_and_advances() {
        let mut c1 = Consensus::new(cfg(1, 3), &none());
        let mut out = Vec::new();
        c1.propose(9, &mut out);
        assert_eq!(c1.round(), 1);
        out.clear();
        c1.on_fd(FdEvent::Suspect(Pid::new(0)), &mut out);
        assert!(out.contains(&ConsensusAction::Send(
            Pid::new(0),
            ConsensusMsg::Nack { round: 1 }
        )));
        assert_eq!(c1.round(), 2);
    }

    #[test]
    fn nack_makes_coordinator_abandon_round() {
        let mut c0 = Consensus::new(cfg(0, 3), &none());
        let mut out = Vec::new();
        c0.propose(7, &mut out);
        out.clear();
        c0.on_message(Pid::new(1), ConsensusMsg::Nack { round: 1 }, &mut out);
        assert_eq!(c0.round(), 2);
        // As a round-2 participant it sends its estimate to p2.
        assert!(out.iter().any(|a| matches!(
            a,
            ConsensusAction::Send(p, ConsensusMsg::Estimate { round: 2, est: 7, ts: 1 })
                if *p == Pid::new(1)
        )));
    }

    #[test]
    fn abandoning_coordinator_multicasts_skip_and_skip_advances_acked_participants() {
        // Coordinator side: a nack triggers Skip{1}.
        let mut c0 = Consensus::new(cfg(0, 3), &none());
        let mut out = Vec::new();
        c0.propose(7, &mut out);
        out.clear();
        c0.on_message(Pid::new(2), ConsensusMsg::Nack { round: 1 }, &mut out);
        assert!(out.contains(&ConsensusAction::Multicast(ConsensusMsg::Skip { round: 1 })));

        // Participant side: p2 acked round 1 and is waiting for the
        // decision; Skip{1} moves it to round 2 where it sends its
        // (locked, ts = 1) estimate.
        let mut c1 = Consensus::new(cfg(1, 3), &none());
        let mut out1 = Vec::new();
        c1.propose(5, &mut out1);
        c1.on_message(
            Pid::new(0),
            ConsensusMsg::Propose { round: 1, value: 7 },
            &mut out1,
        );
        out1.clear();
        c1.on_message(Pid::new(0), ConsensusMsg::Skip { round: 1 }, &mut out1);
        assert_eq!(c1.round(), 2);
        // p2 is the round-2 coordinator; with its own locked estimate
        // it waits for an estimate quorum.
        let mut out1b = Vec::new();
        c1.on_message(
            Pid::new(0),
            ConsensusMsg::Estimate {
                round: 2,
                est: 7,
                ts: 1,
            },
            &mut out1b,
        );
        assert_eq!(find_propose(&out1b), Some((2, 7)));
    }

    #[test]
    fn higher_round_message_makes_participant_jump() {
        let mut c2 = Consensus::new(cfg(2, 3), &none());
        let mut out = Vec::new();
        c2.propose(5, &mut out);
        assert_eq!(c2.round(), 1);
        out.clear();
        // A proposal for round 2 arrives (others advanced).
        c2.on_message(
            Pid::new(1),
            ConsensusMsg::Propose { round: 2, value: 8 },
            &mut out,
        );
        assert_eq!(c2.round(), 2);
        assert!(out.contains(&ConsensusAction::Send(
            Pid::new(1),
            ConsensusMsg::Ack { round: 2 }
        )));
    }

    #[test]
    fn locked_value_wins_later_rounds() {
        // p3 acked value 7 in round 1 (ts = 1). In round 3 (it
        // coordinates), a ts-0 estimate from p1 must lose against its
        // own locked estimate.
        let mut c2 = Consensus::new(cfg(2, 3), &none());
        let mut out = Vec::new();
        c2.propose(5, &mut out);
        c2.on_message(
            Pid::new(0),
            ConsensusMsg::Propose { round: 1, value: 7 },
            &mut out,
        );
        out.clear();
        // Jump to round 3 via an estimate addressed to us.
        c2.on_message(
            Pid::new(0),
            ConsensusMsg::Estimate {
                round: 3,
                est: 5,
                ts: 0,
            },
            &mut out,
        );
        let (round, v) = find_propose(&out).expect("quorum reached: own + p1");
        assert_eq!(round, 3);
        assert_eq!(v, 7, "ts-1 estimate beats ts-0");
    }

    #[test]
    fn decision_replayed_to_laggards() {
        let mut c0 = Consensus::new(cfg(0, 3), &none());
        let mut out = Vec::new();
        c0.propose(7, &mut out);
        c0.on_message(Pid::new(1), ConsensusMsg::Ack { round: 1 }, &mut out);
        assert!(c0.has_decided());
        out.clear();
        // A laggard still in round 1 asks with an estimate for round 2.
        c0.on_message(
            Pid::new(2),
            ConsensusMsg::Estimate {
                round: 2,
                est: 9,
                ts: 0,
            },
            &mut out,
        );
        assert!(
            matches!(&out[0], ConsensusAction::Send(p, ConsensusMsg::Decide(_)) if *p == Pid::new(2)),
            "laggard gets the decision, got {out:?}"
        );
    }

    #[test]
    fn duplicate_proposals_acked_once() {
        let mut c1 = Consensus::new(cfg(1, 3), &none());
        let mut out = Vec::new();
        let prop = ConsensusMsg::Propose { round: 1, value: 3 };
        c1.on_message(Pid::new(0), prop.clone(), &mut out);
        let acks = out
            .iter()
            .filter(|a| matches!(a, ConsensusAction::Send(_, ConsensusMsg::Ack { .. })))
            .count();
        assert_eq!(acks, 1);
        out.clear();
        c1.on_message(Pid::new(0), prop, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stale_round_messages_ignored() {
        let mut suspects = SuspectSet::new();
        suspects.apply(FdEvent::Suspect(Pid::new(0)));
        let mut c1 = Consensus::new(cfg(1, 3), &suspects);
        let mut out = Vec::new();
        c1.propose(1, &mut out);
        assert_eq!(c1.round(), 2);
        out.clear();
        c1.on_message(
            Pid::new(0),
            ConsensusMsg::Propose { round: 1, value: 9 },
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn trust_does_not_roll_back_rounds() {
        let mut c1 = Consensus::new(cfg(1, 3), &none());
        let mut out = Vec::new();
        c1.propose(1, &mut out);
        c1.on_fd(FdEvent::Suspect(Pid::new(0)), &mut out);
        assert_eq!(c1.round(), 2);
        out.clear();
        c1.on_fd(FdEvent::Trust(Pid::new(0)), &mut out);
        assert_eq!(c1.round(), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn ring_from_renumbers_coordinators() {
        let cfg = ConsensusConfig::ring_from(Pid::new(0), 4, Pid::new(2));
        assert_eq!(
            cfg.order,
            vec![Pid::new(2), Pid::new(3), Pid::new(0), Pid::new(1)]
        );
        let c: Consensus<u32> = Consensus::new(cfg, &none());
        assert_eq!(c.coordinator(1), Pid::new(2));
        assert_eq!(c.coordinator(4), Pid::new(1));
        assert_eq!(c.coordinator(5), Pid::new(2));
    }

    #[test]
    #[should_panic(expected = "must contain")]
    fn config_must_contain_me() {
        let cfg = ConsensusConfig {
            me: Pid::new(5),
            order: vec![Pid::new(0), Pid::new(1)],
        };
        let _: Consensus<u32> = Consensus::new(cfg, &none());
    }
}
