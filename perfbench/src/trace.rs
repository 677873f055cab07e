//! Tracing from outside the program: a pass-through [`neko::Process`]
//! wrapper that times every handler call and classifies it by message
//! variant, and a counting allocator switched on only in the traced
//! run.
//!
//! Handler timings are added up per message class in a [`Tally`]
//! shared by the wrappers of one simulation; there is no span per
//! call. Kernel self time is `Sim::run_until` wall time minus the time
//! spent in the outermost wrapped handlers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use abcast::{FdCastMsg, GmCastMsg};
use neko::{Ctx, Dur, FdEvent, Message, Pid, Process, Time, TimerId};
use rand::RngCore;
use ringpaxos::RingMsg;

/// Counts heap allocations while [`count_allocations`] is on; passes
/// every call to the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only bumps a statistics counter, which publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator and
        // the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on (traced run) or off (untraced run,
/// where the allocator adds one relaxed load per call).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Handler classes, by message variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Reliable-broadcast dissemination (`Data` of FD and Ring).
    Rbcast,
    /// Consensus traffic (`Cons` of FD and Ring).
    Consensus,
    /// Stall-probe nudges (`Nudge` of FD and Ring).
    Nudge,
    /// GM sequencer traffic: `Seq`, `AckSn`, `AckUpTo`, `Deliver`.
    Sequencer,
    /// GM membership traffic (`Gm`).
    Membership,
    /// Ring payload repair: `Fetch` and `Fwd`.
    Repair,
    /// Everything else (GM `Data` and state transfer).
    Other,
}

/// Number of [`Class`] variants.
pub const CLASSES: usize = 7;

impl Class {
    fn index(self) -> usize {
        self as usize
    }
}

/// Classifies a protocol message; `Some(k)` for consensus traffic of
/// instance `k`.
pub trait Classify {
    /// The message's class and, for consensus traffic, its instance.
    fn classify(&self) -> (Class, Option<u64>);
}

impl<P> Classify for FdCastMsg<P> {
    fn classify(&self) -> (Class, Option<u64>) {
        match self {
            FdCastMsg::Data(_) => (Class::Rbcast, None),
            FdCastMsg::Cons { k, .. } => (Class::Consensus, Some(*k)),
            FdCastMsg::Nudge { .. } => (Class::Nudge, None),
        }
    }
}

impl<P> Classify for RingMsg<P> {
    fn classify(&self) -> (Class, Option<u64>) {
        match self {
            RingMsg::Data(_) => (Class::Rbcast, None),
            RingMsg::Cons { k, .. } => (Class::Consensus, Some(*k)),
            RingMsg::Nudge { .. } => (Class::Nudge, None),
            RingMsg::Fetch { .. } | RingMsg::Fwd { .. } => (Class::Repair, None),
        }
    }
}

impl<P> Classify for GmCastMsg<P> {
    fn classify(&self) -> (Class, Option<u64>) {
        match self {
            GmCastMsg::Seq { .. }
            | GmCastMsg::AckSn { .. }
            | GmCastMsg::AckUpTo { .. }
            | GmCastMsg::Deliver { .. } => (Class::Sequencer, None),
            GmCastMsg::Gm(_) => (Class::Membership, None),
            _ => (Class::Other, None),
        }
    }
}

/// Counts and handler times of one simulation, shared by the wrappers
/// of all its processes.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Wall time inside the outermost wrapped handlers.
    pub handler_ns: u64,
    /// Messages handled by the algorithm, per [`Class`].
    pub msgs: [u64; CLASSES],
    /// Wall time in the algorithm's message handlers, per [`Class`].
    pub msg_ns: [u64; CLASSES],
    /// Distinct consensus instances seen.
    pub instances: BTreeSet<u64>,
    /// Commands (A-broadcast payloads) the outermost layer saw.
    pub outer_cmds: u64,
    /// Commands the algorithm saw: payloads, or packs when batched.
    pub alg_cmds: u64,
    /// Wall time in the algorithm's command handlers.
    pub cmd_ns: u64,
    /// Timer calls the algorithm handled.
    pub timer_calls: u64,
    /// Sends the algorithm issued from timer handlers: stall-probe
    /// nudges, view-change probes and retries.
    pub timer_sends: u64,
    /// All sends (`send`, `multicast`, `broadcast`) the algorithm issued.
    pub sends: u64,
    /// Packs shipped by the batching layer's deadline timer.
    pub deadline_flushes: u64,
    in_outer_timer: bool,
}

/// Which layer a [`Traced`] wrapper sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// An unbatched stack: the wrapper is both outermost and the
    /// algorithm.
    Whole,
    /// Around `abcast::Batched`: times handlers, counts payloads and
    /// deadline timers.
    Outer,
    /// The algorithm inside `abcast::Batched`: classifies and counts.
    Alg,
}

/// A pass-through wrapper that times and classifies handler calls.
pub struct Traced<P> {
    inner: P,
    layer: Layer,
    tally: Rc<RefCell<Tally>>,
}

impl<P> Traced<P> {
    /// Wraps `inner` on `layer`, recording into `tally`.
    pub fn new(inner: P, layer: Layer, tally: Rc<RefCell<Tally>>) -> Self {
        Traced {
            inner,
            layer,
            tally,
        }
    }
}

/// Passes every [`Ctx`] call through, counting sends.
struct CountingCtx<'a, M: Message, O> {
    ctx: &'a mut dyn Ctx<M, O>,
    sends: u64,
}

impl<M: Message, O> Ctx<M, O> for CountingCtx<'_, M, O> {
    fn now(&self) -> Time {
        self.ctx.now()
    }
    fn pid(&self) -> Pid {
        self.ctx.pid()
    }
    fn n(&self) -> usize {
        self.ctx.n()
    }
    fn send(&mut self, to: Pid, msg: M) {
        self.sends += 1;
        self.ctx.send(to, msg);
    }
    fn multicast(&mut self, dests: &[Pid], msg: M) {
        self.sends += 1;
        self.ctx.multicast(dests, msg);
    }
    fn broadcast(&mut self, msg: M) {
        self.sends += 1;
        self.ctx.broadcast(msg);
    }
    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
        self.ctx.set_timer(after, tag)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.ctx.cancel_timer(id);
    }
    fn emit(&mut self, out: O) {
        self.ctx.emit(out);
    }
    fn is_suspected(&self, p: Pid) -> bool {
        self.ctx.is_suspected(p)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.ctx.rng()
    }
}

/// What a handler call was, for the tally.
enum Call {
    Start,
    Command,
    Message(Class, Option<u64>),
    Fd,
    Timer,
    Recover,
}

impl<P: Process> Traced<P>
where
    P::Msg: Classify,
{
    /// Runs one handler of the wrapped process, timing it and counting
    /// the sends it issues.
    fn call(
        &mut self,
        ctx: &mut dyn Ctx<P::Msg, P::Out>,
        call: Call,
        f: impl FnOnce(&mut P, &mut dyn Ctx<P::Msg, P::Out>),
    ) {
        if self.layer == Layer::Outer {
            match call {
                Call::Command => self.tally.borrow_mut().outer_cmds += 1,
                Call::Timer => self.tally.borrow_mut().in_outer_timer = true,
                _ => {}
            }
            let t0 = Instant::now();
            f(&mut self.inner, ctx);
            let ns = t0.elapsed().as_nanos() as u64;
            let mut t = self.tally.borrow_mut();
            t.handler_ns += ns;
            t.in_outer_timer = false;
            return;
        }
        let mut counting = CountingCtx { ctx, sends: 0 };
        let t0 = Instant::now();
        f(&mut self.inner, &mut counting);
        let ns = t0.elapsed().as_nanos() as u64;
        let sends = counting.sends;
        let mut t = self.tally.borrow_mut();
        let whole = self.layer == Layer::Whole;
        if whole {
            t.handler_ns += ns;
        }
        t.sends += sends;
        match call {
            Call::Command => {
                t.alg_cmds += 1;
                t.cmd_ns += ns;
                if whole {
                    t.outer_cmds += 1;
                } else if t.in_outer_timer {
                    t.deadline_flushes += 1;
                }
            }
            Call::Message(class, k) => {
                t.msgs[class.index()] += 1;
                t.msg_ns[class.index()] += ns;
                if let Some(k) = k {
                    t.instances.insert(k);
                }
            }
            Call::Timer => {
                t.timer_calls += 1;
                t.timer_sends += sends;
            }
            Call::Start | Call::Fd | Call::Recover => {}
        }
    }
}

impl<P: Process> Process for Traced<P>
where
    P::Msg: Classify,
{
    type Msg = P::Msg;
    type Cmd = P::Cmd;
    type Out = P::Out;

    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.call(ctx, Call::Start, |p, c| p.on_start(c));
    }

    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: Self::Cmd) {
        self.call(ctx, Call::Command, |p, c| p.on_command(c, cmd));
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg) {
        let (class, k) = msg.classify();
        self.call(ctx, Call::Message(class, k), |p, c| {
            p.on_message(c, from, msg)
        });
    }

    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        self.call(ctx, Call::Fd, |p, c| p.on_fd(c, ev));
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        self.call(ctx, Call::Timer, |p, c| p.on_timer(c, id, tag));
    }

    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.call(ctx, Call::Recover, |p, c| p.on_recover(c));
    }
}
