//! The one [`neko::Process`] shell of every stack: a [`Node`] runs any
//! [`Machine`] — the FD reduction with either strategy (FD and Ring)
//! and GM — so the same state machines run on the simulator and on the
//! real-time runtime ([`neko::RealRuntime`], where the `on_fd` edges
//! are the replayed fault script's, as on the simulator, and timers
//! ride the OS clock — see the cross-backend conformance tests in
//! `tests/conformance.rs`). The shell owns the probe timer, the retry
//! timers a machine asks for and the group its multicasts go to; it
//! never looks at which algorithm it runs.

use std::fmt;

use neko::{Ctx, Dur, FdEvent, Message, Pid, Process, TimerId};

use crate::common::{AbcastEvent, CastAction, MsgId, Payload};
use crate::fd::{Bodies, FdAbcast, Strategy};
use crate::gm::{GmAbcast, Uniformity};

/// How often an excluded process re-sends its join request, and a
/// catching-up process its state request. Ten network time units —
/// long enough not to flood, short enough to keep the paper's rejoin
/// latency small against `T_MR`.
pub const RETRY_INTERVAL: Dur = Dur::from_millis(10);

/// How often a [`Node`] probes its machine for a stall: FD's oldest
/// undecided consensus instance, or GM's view change in progress
/// (lost messages after a crash-recovery or a healed partition).
/// Coarse on purpose: in loss-free runs the work always progresses
/// between probes, so the probe stays silent and steady-state message
/// patterns are untouched.
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

/// An atomic broadcast state machine that the [`Node`] shell runs:
/// the FD reduction with any [`Strategy`], and GM. Each entry point
/// queues what it decided as [`CastAction`]s, which the shell carries
/// out in order once the call returns.
pub trait Machine: fmt::Debug + 'static {
    /// What processes A-broadcast.
    type Payload: Payload;
    /// The wire message.
    type Msg: Message;
    /// The tag of the probe timer. Every other tag that fires goes to
    /// [`retry`](Machine::retry), so no retry tag may equal it.
    const PROBE_TAG: u64;

    /// `A-broadcast(payload)`; returns the new message's id.
    fn broadcast(&mut self, payload: Self::Payload, out: &mut ActionsOf<Self>) -> MsgId;
    /// Handles a wire message.
    fn on_message(&mut self, from: Pid, msg: Self::Msg, out: &mut ActionsOf<Self>);
    /// Handles a failure-detector edge.
    fn on_fd(&mut self, ev: FdEvent, out: &mut ActionsOf<Self>);
    /// The periodic probe (every [`STALL_PROBE_INTERVAL`] up to
    /// n = 64): repairs work in flight that has stopped progressing.
    fn probe(&mut self, out: &mut ActionsOf<Self>);
    /// The retry timer tagged `tag`, armed on a [`CastAction::Retry`],
    /// fired.
    fn retry(&mut self, tag: u64, out: &mut ActionsOf<Self>) {
        let _ = (tag, out);
    }
    /// The process recovered from a crash with its pre-crash state;
    /// the timers due while it was down never fired.
    fn recover(&mut self, out: &mut ActionsOf<Self>) {
        let _ = out;
    }
}

/// The action buffer of a [`Machine`].
type ActionsOf<M> = Vec<CastAction<<M as Machine>::Msg, <M as Machine>::Payload>>;

/// A process running an atomic broadcast [`Machine`]. Commands are
/// payloads to A-broadcast; outputs are A-deliveries.
#[derive(Debug)]
pub struct Node<M: Machine> {
    inner: M,
    probe_timer: Option<TimerId>,
    /// Probe period, scaled to the group size (see
    /// [`probe_interval`]).
    probe_after: Dur,
    /// The machine's group: where its multicasts go.
    group: Vec<Pid>,
    /// Reused action buffer (cleared between handler calls).
    actions: ActionsOf<M>,
}

/// A process running the **FD algorithm** (Chandra–Toueg atomic
/// broadcast), or any other instance of its reduction: the strategy
/// `S` picks what consensus orders.
pub type FdNode<P, S = Bodies> = Node<FdAbcast<P, S>>;

/// A process running the **GM algorithm** (fixed-sequencer atomic
/// broadcast over group membership).
pub type GmNode<P> = Node<GmAbcast<P>>;

impl<M: Machine> Node<M> {
    fn wrap(inner: M, me: Pid, n: usize) -> Self {
        Node {
            inner,
            probe_timer: None,
            probe_after: probe_interval(n),
            group: Pid::all(n).filter(|&p| p != me).collect(),
            actions: Vec::new(),
        }
    }

    /// The wrapped state machine (inspection in tests/examples).
    pub fn algorithm(&self) -> &M {
        &self.inner
    }

    /// Arms the next probe tick. A previously armed tick that is still
    /// pending is not cancelled: `on_timer` ignores every probe id but
    /// the latest.
    fn arm_probe(&mut self, ctx: &mut dyn Ctx<M::Msg, AbcastEvent<M::Payload>>) {
        self.probe_timer = Some(ctx.set_timer(self.probe_after, M::PROBE_TAG));
    }

    /// Runs one step of the state machine and carries out the actions
    /// it queued, reusing the action buffer across calls.
    fn handle(
        &mut self,
        ctx: &mut dyn Ctx<M::Msg, AbcastEvent<M::Payload>>,
        step: impl FnOnce(&mut M, &mut ActionsOf<M>),
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        step(&mut self.inner, &mut actions);
        for a in actions.drain(..) {
            match a {
                CastAction::Send(to, m) => ctx.send(to, m),
                CastAction::Multicast(m) => ctx.multicast(&self.group, m),
                CastAction::Deliver { id, payload } => {
                    ctx.emit(AbcastEvent::Delivered { id, payload })
                }
                CastAction::Group(group) => {
                    self.group.clear();
                    self.group.extend(group.iter());
                }
                CastAction::Retry(tag) => {
                    ctx.set_timer(RETRY_INTERVAL, tag);
                }
            }
        }
        // Park the (now empty) buffer for the next handler call.
        self.actions = actions;
    }
}

impl<P: Payload, S: Strategy<P>> FdNode<P, S> {
    /// Creates the node; `suspects_at_start` seeds the failure
    /// detector output for crash-steady scenarios.
    pub fn new(me: Pid, n: usize, suspects_at_start: &fdet::SuspectSet) -> Self {
        Node::wrap(FdAbcast::new(me, n, suspects_at_start), me, n)
    }
}

impl<P: Payload> FdNode<P> {
    /// Disables the coordinator-renumbering optimisation (ablation).
    pub fn without_renumbering(mut self) -> Self {
        self.inner = self.inner.without_renumbering();
        self
    }
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
        Node::wrap(GmAbcast::new(me, n, suspects_at_start, uniformity), me, n)
    }
}

impl<M: Machine> Process for Node<M> {
    type Msg = M::Msg;
    type Cmd = M::Payload;
    type Out = AbcastEvent<M::Payload>;

    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.arm_probe(ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        // Probe ticks due while we were down never fired; restart the
        // chain. A pre-crash tick still pending is ignored when it
        // fires, so it needs no cancel.
        self.arm_probe(ctx);
        self.handle(ctx, M::recover);
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        if tag != M::PROBE_TAG {
            self.handle(ctx, |m, out| m.retry(tag, out));
        } else if self.probe_timer == Some(id) {
            // The probe only queues actions, so re-arming first keeps
            // the timer ahead of the probe's sends.
            self.arm_probe(ctx);
            self.handle(ctx, M::probe);
        }
    }

    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: M::Payload) {
        self.handle(ctx, |m, out| {
            m.broadcast(cmd, out);
        });
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg) {
        self.handle(ctx, |m, out| m.on_message(from, msg, out));
    }

    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        self.handle(ctx, |m, out| m.on_fd(ev, out));
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

    /// A node whose timer cancellations and probe ticks are counted.
    struct Counted<M: Machine> {
        node: Node<M>,
        cancels: usize,
        ticks: usize,
    }

    /// Forwards every call to the real context, counting cancels.
    struct Counting<'a, 'c, M: Message, O> {
        ctx: &'a mut (dyn Ctx<M, O> + 'c),
        cancels: &'a mut usize,
    }

    impl<M: Message, O> Ctx<M, O> for Counting<'_, '_, M, O> {
        fn now(&self) -> neko::Time {
            self.ctx.now()
        }
        fn pid(&self) -> Pid {
            self.ctx.pid()
        }
        fn n(&self) -> usize {
            self.ctx.n()
        }
        fn send(&mut self, to: Pid, msg: M) {
            self.ctx.send(to, msg);
        }
        fn multicast(&mut self, dests: &[Pid], msg: M) {
            self.ctx.multicast(dests, msg);
        }
        fn broadcast(&mut self, msg: M) {
            self.ctx.broadcast(msg);
        }
        fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
            self.ctx.set_timer(after, tag)
        }
        fn cancel_timer(&mut self, id: TimerId) {
            *self.cancels += 1;
            self.ctx.cancel_timer(id);
        }
        fn emit(&mut self, out: O) {
            self.ctx.emit(out);
        }
        fn is_suspected(&self, p: Pid) -> bool {
            self.ctx.is_suspected(p)
        }
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            self.ctx.rng()
        }
    }

    impl<M: Machine> Counted<M> {
        fn call(
            &mut self,
            ctx: &mut dyn Ctx<M::Msg, AbcastEvent<M::Payload>>,
            f: impl FnOnce(&mut Node<M>, &mut dyn Ctx<M::Msg, AbcastEvent<M::Payload>>),
        ) {
            let mut counting = Counting {
                ctx,
                cancels: &mut self.cancels,
            };
            f(&mut self.node, &mut counting);
        }
    }

    impl<M: Machine> Process for Counted<M> {
        type Msg = M::Msg;
        type Cmd = M::Payload;
        type Out = AbcastEvent<M::Payload>;

        fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
            self.call(ctx, |node, ctx| node.on_start(ctx));
        }
        fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: M::Payload) {
            self.call(ctx, |node, ctx| node.on_command(ctx, cmd));
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: M::Msg) {
            self.call(ctx, |node, ctx| node.on_message(ctx, from, msg));
        }
        fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
            self.ticks += usize::from(tag == M::PROBE_TAG);
            self.call(ctx, |node, ctx| node.on_timer(ctx, id, tag));
        }
        fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
            self.call(ctx, |node, ctx| node.on_recover(ctx));
        }
    }

    /// Runs `node`'s stack at n = 3 for one second under `faults`, with
    /// a broadcast every 10 ms, and returns each process's probe ticks
    /// and timer cancellations.
    fn ticks_and_cancels<M: Machine<Payload = u64>>(
        node: impl Fn(Pid) -> Node<M>,
        faults: &[(u64, neko::Injection)],
    ) -> Vec<(usize, usize)> {
        let mut sim = neko::SimBuilder::new(3).seed(1).build_with(|me| Counted {
            node: node(me),
            cancels: 0,
            ticks: 0,
        });
        for i in 0..30u64 {
            sim.schedule_command(neko::Time::from_millis(10 * i), Pid::new(i as usize % 3), i);
        }
        for (t, inj) in faults {
            sim.schedule_injection(neko::Time::from_millis(*t), inj.clone());
        }
        sim.run_until(neko::Time::from_secs(1));
        Pid::all(3)
            .map(|me| (sim.process(me).ticks, sim.process(me).cancels))
            .collect()
    }

    /// A probe tick re-arms without cancelling the timer that is
    /// firing: a cancel of an already-fired id is a no-op for the
    /// process, but the runtime keeps it as a tombstone.
    fn probe_ticks_cancel_nothing<M: Machine<Payload = u64>>(node: impl Fn(Pid) -> Node<M>) {
        for (i, (ticks, cancels)) in ticks_and_cancels(node, &[]).into_iter().enumerate() {
            assert!(ticks >= 19, "p{}: {ticks} probe ticks", i + 1);
            assert_eq!(cancels, 0, "p{}", i + 1);
        }
    }

    #[test]
    fn fd_probe_ticks_cancel_nothing() {
        let none = fdet::SuspectSet::new();
        probe_ticks_cancel_nothing(|me| FdNode::<u64>::new(me, 3, &none));
    }

    #[test]
    fn gm_probe_ticks_cancel_nothing() {
        let none = fdet::SuspectSet::new();
        probe_ticks_cancel_nothing(|me| GmNode::<u64>::new(me, 3, &none));
    }

    /// A recovery restarts the probe chain without cancelling the
    /// pre-crash tick, which has usually fired while the process was
    /// down (a cancel would then be a tombstone nobody removes).
    #[test]
    fn crash_and_recovery_cancel_nothing() {
        use neko::Injection;
        let none = fdet::SuspectSet::new();
        // p3 is down from 250 ms to 330 ms, across its 250 ms tick.
        let faults = [
            (250, Injection::Crash(Pid::new(2))),
            (330, Injection::Recover(Pid::new(2))),
        ];
        let fd = ticks_and_cancels(|me| FdNode::<u64>::new(me, 3, &none), &faults);
        let gm = ticks_and_cancels(|me| GmNode::<u64>::new(me, 3, &none), &faults);
        for (ticks, cancels) in fd.into_iter().chain(gm) {
            assert!(ticks >= 17, "{ticks} probe ticks");
            assert_eq!(cancels, 0);
        }
    }

    #[test]
    fn fd_messages_never_merge() {
        use rbcast::RbMsg;
        let mk = || {
            FdCastMsg::Data(RbMsg::Data {
                id: MsgId {
                    origin: Pid::new(0),
                    seq: 0,
                },
                payload: 7u32,
            })
        };
        let mut a = mk();
        assert!(!Message::try_merge(&mut a, &mk()));
    }
}
