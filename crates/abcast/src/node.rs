//! [`neko::Process`] shells for the two algorithms, so the same state
//! machines run on the simulator and on the real-time runtime
//! ([`neko::RealRuntime`], where `on_fd` edges come from a live
//! heartbeat detector and timers ride the OS clock — see the
//! cross-backend conformance tests in `tests/conformance.rs`).

use neko::{Ctx, Dur, FdEvent, Message, Pid, Process, TimerId};

use crate::common::{AbcastEvent, Payload};
use crate::fd::{Actions, Bodies, CastAction, FdAbcast, Strategy};
use crate::gm::{GmAbcast, GmCastAction, GmCastMsg, Uniformity};

/// How often an excluded process re-sends its join request, and a
/// catching-up process its state request. Ten network time units —
/// long enough not to flood, short enough to keep the paper's rejoin
/// latency small against `T_MR`.
pub const RETRY_INTERVAL: Dur = Dur::from_millis(10);

const TAG_JOIN_RETRY: u64 = 1;
const TAG_CATCHUP_RETRY: u64 = 2;
const TAG_STALL_PROBE: u64 = 3;
const TAG_VC_PROBE: u64 = 4;

/// How often an [`FdNode`] checks its oldest undecided consensus
/// instance for a stall (lost messages after a crash-recovery or a
/// healed partition). Coarse on purpose: in loss-free runs an
/// instance always progresses between probes, so the probe stays
/// silent and steady-state message patterns are untouched.
pub const STALL_PROBE_INTERVAL: Dur = Dur::from_millis(50);

/// Probe period for a group of `n`: the historical 50 ms through
/// n = 64 (pinning every recorded execution in that range bit for
/// bit), growing linearly past it. A healthy consensus phase
/// serializes O(n) one-millisecond receptions at the coordinator, so
/// from n ≈ 100 a waiting process sees more than two 50 ms probe
/// windows of pure silence and misreads routine coordination as a
/// stall — every such process then multicasts a repair nudge, the
/// O(n) resend replies slow the round further, and the "repair"
/// sustains itself as a message storm. Scaling the window with the
/// phase length keeps the probe what it is meant to be: a detector of
/// *lost* messages, quiet while slow-but-healthy rounds complete.
fn probe_interval(n: usize) -> Dur {
    if n <= 64 {
        STALL_PROBE_INTERVAL
    } else {
        Dur::from_millis(2 * n as u64)
    }
}

impl<P: Payload> Message for GmCastMsg<P> {
    /// `Seq`, `AckSn` and `Deliver` carry several sequence numbers when
    /// queued behind each other (paper Section 4.2).
    fn try_merge(&mut self, other: &Self) -> bool {
        match (self, other) {
            (GmCastMsg::Seq { view: v1, sns: a }, GmCastMsg::Seq { view: v2, sns: b })
                if v1 == v2 =>
            {
                a.extend(b.iter().copied());
                true
            }
            (GmCastMsg::AckSn { view: v1, sns: a }, GmCastMsg::AckSn { view: v2, sns: b })
                if v1 == v2 =>
            {
                a.extend(b.iter().copied());
                true
            }
            (
                GmCastMsg::Deliver {
                    view: v1,
                    sns: a,
                    stable_up_to: s1,
                },
                GmCastMsg::Deliver {
                    view: v2,
                    sns: b,
                    stable_up_to: s2,
                },
            ) if v1 == v2 => {
                a.extend(b.iter().copied());
                *s1 = (*s1).max(*s2);
                true
            }
            (
                GmCastMsg::AckUpTo { view: v1, up_to: a },
                GmCastMsg::AckUpTo { view: v2, up_to: b },
            ) if v1 == v2 => {
                *a = (*a).max(*b);
                true
            }
            _ => false,
        }
    }
}

/// A process running the **FD algorithm** (Chandra–Toueg atomic
/// broadcast), or any other instance of its reduction: the strategy
/// `S` picks what consensus orders. Commands are payloads to
/// A-broadcast; outputs are A-deliveries.
#[derive(Debug)]
pub struct FdNode<P: Payload, S: Strategy<P> = Bodies> {
    inner: FdAbcast<P, S>,
    probe_timer: Option<TimerId>,
    /// Stall-probe period, scaled to the group size (see
    /// [`probe_interval`]).
    probe_after: Dur,
    /// Every other process — the fixed multicast destination set,
    /// computed once instead of per handler call.
    others: Vec<Pid>,
    /// Reused action buffer (cleared between handler calls).
    actions: Actions<S, P>,
}

impl<P: Payload> FdNode<P> {
    /// Disables the coordinator-renumbering optimisation (ablation).
    pub fn without_renumbering(mut self) -> Self {
        self.inner = self.inner.without_renumbering();
        self
    }
}

impl<P: Payload, S: Strategy<P>> FdNode<P, S> {
    /// Creates the node; `suspects_at_start` seeds the failure
    /// detector output for crash-steady scenarios.
    pub fn new(me: Pid, n: usize, suspects_at_start: &fdet::SuspectSet) -> Self {
        FdNode {
            inner: FdAbcast::new(me, n, suspects_at_start),
            probe_timer: None,
            probe_after: probe_interval(n),
            others: Pid::all(n).filter(|&p| p != me).collect(),
            actions: Vec::new(),
        }
    }

    fn arm_probe(&mut self, ctx: &mut dyn Ctx<S::Msg, AbcastEvent<P>>) {
        if let Some(id) = self.probe_timer.take() {
            ctx.cancel_timer(id);
        }
        self.probe_timer = Some(ctx.set_timer(self.probe_after, TAG_STALL_PROBE));
    }

    /// Runs one step of the state machine and carries out the actions
    /// it queued, reusing the action buffer across calls.
    fn handle(
        &mut self,
        ctx: &mut dyn Ctx<S::Msg, AbcastEvent<P>>,
        step: impl FnOnce(&mut FdAbcast<P, S>, &mut Actions<S, P>),
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        step(&mut self.inner, &mut actions);
        for a in actions.drain(..) {
            match a {
                CastAction::Send(to, m) => ctx.send(to, m),
                CastAction::Multicast(m) => ctx.multicast(&self.others, m),
                CastAction::Deliver { id, payload } => {
                    ctx.emit(AbcastEvent::Delivered { id, payload })
                }
            }
        }
        // Park the (now empty) buffer for the next handler call.
        self.actions = actions;
    }
}

impl<P: Payload, S: Strategy<P>> Process for FdNode<P, S> {
    type Msg = S::Msg;
    type Cmd = P;
    type Out = AbcastEvent<P>;

    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.arm_probe(ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        // Probe ticks due while we were down never fired; restart the
        // chain (cancelling a stale pre-crash timer, if any).
        self.arm_probe(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        if tag == TAG_STALL_PROBE && self.probe_timer == Some(id) {
            // The probe only queues actions, so re-arming first keeps
            // the timer ahead of the probe's sends.
            self.arm_probe(ctx);
            self.handle(ctx, FdAbcast::stall_probe);
        }
    }

    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: P) {
        self.handle(ctx, |a, out| {
            a.broadcast(cmd, out);
        });
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg) {
        self.handle(ctx, |a, out| a.on_message(from, msg, out));
    }

    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        self.handle(ctx, |a, out| a.on_fd(ev, out));
    }
}

/// A process running the **GM algorithm** (fixed-sequencer atomic
/// broadcast over group membership).
#[derive(Debug)]
pub struct GmNode<P: Payload> {
    inner: GmAbcast<P>,
    /// Periodic check of an in-progress view change for a stall (a
    /// flush or consensus message lost toward a member that had not
    /// yet adopted the view, or a cross-round consensus wedge). A
    /// progressing view change resets the probe, so healthy runs see
    /// no repair traffic at all.
    vc_probe_timer: Option<TimerId>,
    /// View-change-probe period, scaled to the group size (see
    /// [`probe_interval`]).
    probe_after: Dur,
    /// Reused action buffer (cleared between handler calls).
    actions: Vec<GmCastAction<P>>,
}

impl<P: Payload> GmNode<P> {
    /// Creates the node (uniform variant).
    pub fn new(me: Pid, n: usize, suspects_at_start: &fdet::SuspectSet) -> Self {
        Self::with_uniformity(me, n, suspects_at_start, Uniformity::Uniform)
    }

    /// Creates the node with an explicit uniformity choice.
    pub fn with_uniformity(
        me: Pid,
        n: usize,
        suspects_at_start: &fdet::SuspectSet,
        uniformity: Uniformity,
    ) -> Self {
        GmNode {
            inner: GmAbcast::new(me, n, suspects_at_start, uniformity),
            vc_probe_timer: None,
            probe_after: probe_interval(n),
            actions: Vec::new(),
        }
    }

    fn arm_vc_probe(&mut self, ctx: &mut dyn Ctx<GmCastMsg<P>, AbcastEvent<P>>) {
        if let Some(id) = self.vc_probe_timer.take() {
            ctx.cancel_timer(id);
        }
        self.vc_probe_timer = Some(ctx.set_timer(self.probe_after, TAG_VC_PROBE));
    }

    /// The wrapped state machine (inspection in tests/examples).
    pub fn algorithm(&self) -> &GmAbcast<P> {
        &self.inner
    }

    fn run(
        &mut self,
        mut actions: Vec<GmCastAction<P>>,
        ctx: &mut dyn Ctx<GmCastMsg<P>, AbcastEvent<P>>,
    ) {
        for a in actions.drain(..) {
            match a {
                GmCastAction::Send(to, m) => ctx.send(to, m),
                GmCastAction::Multicast(dests, m) => ctx.multicast(&dests, m),
                GmCastAction::Deliver { id, payload } => {
                    ctx.emit(AbcastEvent::Delivered { id, payload })
                }
                GmCastAction::JoinNeeded => {
                    let mut out = Vec::new();
                    self.inner.request_join(&mut out);
                    ctx.set_timer(RETRY_INTERVAL, TAG_JOIN_RETRY);
                    self.run(out, ctx);
                }
                GmCastAction::CatchupNeeded => {
                    ctx.set_timer(RETRY_INTERVAL, TAG_CATCHUP_RETRY);
                }
            }
        }
        // Park the (now empty) buffer for the next handler call. The
        // recursive JoinNeeded arm above allocates its own vector, so
        // only the outermost call's buffer is kept.
        self.actions = actions;
    }
}

impl<P: Payload> Process for GmNode<P> {
    type Msg = GmCastMsg<P>;
    type Cmd = P;
    type Out = AbcastEvent<P>;

    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.arm_vc_probe(ctx);
    }

    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: P) {
        let mut out = std::mem::take(&mut self.actions);
        self.inner.broadcast(cmd, &mut out);
        self.run(out, ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg) {
        let mut out = std::mem::take(&mut self.actions);
        self.inner.on_message(from, msg, &mut out);
        self.run(out, ctx);
    }

    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        let mut out = std::mem::take(&mut self.actions);
        self.inner.on_fd(ev, &mut out);
        self.run(out, ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        // Retry timers armed before the crash are gone; restart
        // whatever loop our pre-crash state still needs.
        self.arm_vc_probe(ctx);
        let mut out = std::mem::take(&mut self.actions);
        if self.inner.is_excluded() {
            self.inner.request_join(&mut out);
            ctx.set_timer(RETRY_INTERVAL, TAG_JOIN_RETRY);
        } else if self.inner.is_catching_up() {
            ctx.set_timer(RETRY_INTERVAL, TAG_CATCHUP_RETRY);
        }
        self.run(out, ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        let mut out = std::mem::take(&mut self.actions);
        match tag {
            TAG_JOIN_RETRY if self.inner.is_excluded() => {
                self.inner.request_join(&mut out);
                ctx.set_timer(RETRY_INTERVAL, TAG_JOIN_RETRY);
            }
            TAG_CATCHUP_RETRY if self.inner.is_catching_up() => {
                self.inner.request_state(&mut out);
                ctx.set_timer(RETRY_INTERVAL, TAG_CATCHUP_RETRY);
            }
            TAG_VC_PROBE if self.vc_probe_timer == Some(id) => {
                self.inner.vc_probe(&mut out);
                self.arm_vc_probe(ctx);
            }
            _ => {}
        }
        self.run(out, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::MsgId;
    use crate::fd::FdCastMsg;

    #[test]
    fn probe_interval_scales_past_the_historical_range() {
        assert_eq!(probe_interval(3), Dur::from_millis(50));
        assert_eq!(probe_interval(64), Dur::from_millis(50));
        assert_eq!(probe_interval(128), Dur::from_millis(256));
    }

    #[test]
    fn gm_messages_merge_per_kind_and_view() {
        use membership::ViewId;
        let v = ViewId(1);
        let w = ViewId(2);
        let mut seq: GmCastMsg<u32> = GmCastMsg::Seq {
            view: v,
            sns: vec![(
                MsgId {
                    origin: Pid::new(0),
                    seq: 0,
                },
                0,
            )],
        };
        let seq2 = GmCastMsg::Seq {
            view: v,
            sns: vec![(
                MsgId {
                    origin: Pid::new(1),
                    seq: 0,
                },
                1,
            )],
        };
        assert!(seq.try_merge(&seq2));
        let GmCastMsg::Seq { sns, .. } = &seq else {
            panic!()
        };
        assert_eq!(sns.len(), 2);

        let seq_other_view = GmCastMsg::Seq {
            view: w,
            sns: vec![(
                MsgId {
                    origin: Pid::new(1),
                    seq: 1,
                },
                0,
            )],
        };
        assert!(!seq.try_merge(&seq_other_view));

        let mut del: GmCastMsg<u32> = GmCastMsg::Deliver {
            view: v,
            sns: vec![0],
            stable_up_to: 1,
        };
        let del2 = GmCastMsg::Deliver {
            view: v,
            sns: vec![1, 2],
            stable_up_to: 3,
        };
        assert!(del.try_merge(&del2));
        let GmCastMsg::Deliver {
            sns, stable_up_to, ..
        } = &del
        else {
            panic!()
        };
        assert_eq!(sns, &vec![0, 1, 2]);
        assert_eq!(*stable_up_to, 3);

        let mut ack: GmCastMsg<u32> = GmCastMsg::AckSn {
            view: v,
            sns: vec![5],
        };
        let data = GmCastMsg::Data {
            view: v,
            id: MsgId {
                origin: Pid::new(0),
                seq: 0,
            },
            payload: 1,
        };
        assert!(!ack.try_merge(&data), "different kinds never merge");
    }

    #[test]
    fn fd_messages_never_merge() {
        use rbcast::{BcastId, RbMsg};
        let mk = || {
            FdCastMsg::Data(RbMsg::Data {
                id: BcastId {
                    origin: Pid::new(0),
                    seq: 0,
                },
                payload: (
                    MsgId {
                        origin: Pid::new(0),
                        seq: 0,
                    },
                    7u32,
                ),
            })
        };
        let mut a = mk();
        assert!(!Message::try_merge(&mut a, &mk()));
    }
}
