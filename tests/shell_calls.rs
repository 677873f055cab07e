//! Pins the calls the `neko::Process` shells of the three stacks make
//! on their `Ctx`: every timer armed (tag, delay and id) or cancelled,
//! every send, multicast (with its destinations) and emitted output,
//! per process and in order, next to the handler calls that caused
//! them. The scripted runs reach each shell's timer paths: probe ticks,
//! suspicions, crash-recovery, and GM's exclusion, join retries,
//! readmission and catch-up retries, with a recovery while excluded
//! and one while catching up.
//!
//! Each run is pinned by the number of log lines and an FNV-1a digest
//! of the whole log, so any change to what a shell asks of its context
//! — or in which order — fails here. Executions are pure functions of
//! the seed, so the pins hold on every machine.

use std::fmt;

use abcast::{AbcastEvent, FdNode, GmNode};
use fdet::SuspectSet;
use neko::{
    Ctx, Dur, FdEvent, Injection, Message, Partition, Pid, Process, SimBuilder, Time, TimerId,
};
use rand::RngCore;
use ringpaxos::RingNode;

/// A process whose shell calls are logged.
struct Recorded<N> {
    node: N,
    log: Vec<String>,
    /// Shell state worth noting when the process recovers.
    state: fn(&N) -> String,
}

/// Passes every call through to the real context, logging it.
struct Recorder<'a, M: Message, O> {
    ctx: &'a mut dyn Ctx<M, O>,
    log: &'a mut Vec<String>,
}

impl<M: Message, O> Recorder<'_, M, O> {
    fn note(&mut self, what: fmt::Arguments<'_>) {
        self.log.push(format!("{:?} {what}", self.ctx.now()));
    }
}

impl<M: Message, O: fmt::Debug> Ctx<M, O> for Recorder<'_, M, O> {
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
        self.note(format_args!("send {to} {msg:?}"));
        self.ctx.send(to, msg);
    }
    fn multicast(&mut self, dests: &[Pid], msg: M) {
        self.note(format_args!("multicast {dests:?} {msg:?}"));
        self.ctx.multicast(dests, msg);
    }
    fn broadcast(&mut self, msg: M) {
        self.note(format_args!("broadcast {msg:?}"));
        self.ctx.broadcast(msg);
    }
    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
        let id = self.ctx.set_timer(after, tag);
        self.note(format_args!("set_timer tag {tag} after {after:?} = {id:?}"));
        id
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.note(format_args!("cancel_timer {id:?}"));
        self.ctx.cancel_timer(id);
    }
    fn emit(&mut self, out: O) {
        self.note(format_args!("emit {out:?}"));
        self.ctx.emit(out);
    }
    fn is_suspected(&self, p: Pid) -> bool {
        self.ctx.is_suspected(p)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.ctx.rng()
    }
}

impl<N: Process> Recorded<N>
where
    N::Out: fmt::Debug,
{
    fn call(
        &mut self,
        ctx: &mut dyn Ctx<N::Msg, N::Out>,
        what: String,
        f: impl FnOnce(&mut N, &mut dyn Ctx<N::Msg, N::Out>),
    ) {
        self.log.push(format!("{:?} on_{what}", ctx.now()));
        let mut rec = Recorder {
            ctx,
            log: &mut self.log,
        };
        f(&mut self.node, &mut rec);
    }
}

impl<N: Process> Process for Recorded<N>
where
    N::Out: fmt::Debug,
{
    type Msg = N::Msg;
    type Cmd = N::Cmd;
    type Out = N::Out;

    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.call(ctx, "start".to_string(), |n, c| n.on_start(c));
    }
    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: Self::Cmd) {
        self.call(ctx, format!("command {cmd:?}"), |n, c| n.on_command(c, cmd));
    }
    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg) {
        self.call(ctx, format!("message from {from}"), |n, c| {
            n.on_message(c, from, msg)
        });
    }
    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        self.call(ctx, format!("fd {ev:?}"), |n, c| n.on_fd(c, ev));
    }
    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        self.call(ctx, format!("timer {id:?} tag {tag}"), |n, c| {
            n.on_timer(c, id, tag)
        });
    }
    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        let state = (self.state)(&self.node);
        self.call(ctx, format!("recover {state}"), |n, c| n.on_recover(c));
    }
}

const N: usize = 3;
const SEED: u64 = 0x5E11;

fn ms(t: u64) -> Time {
    Time::from_millis(t)
}

fn p(i: usize) -> Pid {
    Pid::new(i)
}

/// Runs `make`'s stack at n = 3 under `script`, with broadcasts from
/// every process before, during and after it, and returns each
/// process's log.
fn run<S>(
    make: impl Fn(Pid, &SuspectSet) -> S,
    state: fn(&S) -> String,
    script: &[(u64, Injection)],
    until: u64,
) -> Vec<Vec<String>>
where
    S: Process<Cmd = u64, Out = AbcastEvent<u64>>,
{
    let suspects = SuspectSet::new();
    let mut sim = SimBuilder::new(N).seed(SEED).build_with(|me| Recorded {
        node: make(me, &suspects),
        log: Vec::new(),
        state,
    });
    let mut v = 0;
    for t in (5..until).step_by(45) {
        for i in 0..N {
            v += 1;
            sim.schedule_command(ms(t + i as u64), p(i), v);
        }
    }
    sim.schedule_plan(script.iter().map(|(t, inj)| (ms(*t), inj.clone())));
    sim.run_until(ms(until));
    Pid::all(N).map(|me| sim.process(me).log.clone()).collect()
}

/// FNV-1a over every line of every process's log.
fn digest(logs: &[Vec<String>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in logs.iter().flatten() {
        for b in line.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn lines(logs: &[Vec<String>]) -> usize {
    logs.iter().map(Vec::len).sum()
}

/// The lines of one process's log that contain `needle`.
fn count(log: &[String], needle: &str) -> usize {
    log.iter().filter(|l| l.contains(needle)).count()
}

fn no_state<S>(_: &S) -> String {
    String::new()
}

/// FD and Ring: the coordinator p1 is suspected for a while, then p3
/// crashes and recovers; it misses traffic while down, so its stall
/// probe finds its instance frozen and nudges.
fn fd_script() -> Vec<(u64, Injection)> {
    vec![
        (120, Injection::Fd(p(1), FdEvent::Suspect(p(0)))),
        (120, Injection::Fd(p(2), FdEvent::Suspect(p(0)))),
        (180, Injection::Fd(p(1), FdEvent::Trust(p(0)))),
        (180, Injection::Fd(p(2), FdEvent::Trust(p(0)))),
        (250, Injection::Crash(p(2))),
        (330, Injection::Recover(p(2))),
    ]
}

#[test]
fn fd_shell_calls_are_pinned() {
    let logs = run(
        |me, s| FdNode::<u64>::new(me, N, s),
        no_state,
        &fd_script(),
        600,
    );
    let p3 = &logs[2];
    assert!(count(p3, "on_recover") == 1, "{p3:#?}");
    assert!(count(p3, "set_timer tag 3") > 10, "probe ticks");
    assert!(count(p3, "Nudge") > 0, "a frozen instance is nudged");
    assert_eq!((lines(&logs), digest(&logs)), (670, 0x797b9ae27fe8119f));
}

#[test]
fn ring_shell_calls_are_pinned() {
    let logs = run(
        |me, s| RingNode::<u64>::new(me, N, s),
        no_state,
        &fd_script(),
        600,
    );
    let p3 = &logs[2];
    assert!(count(p3, "on_recover") == 1, "{p3:#?}");
    assert!(count(p3, "set_timer tag 3") > 10, "probe ticks");
    assert_eq!((lines(&logs), digest(&logs)), (690, 0x623d4ba89e43d854));
}

/// GM: p1 and p2 suspect p3, which is excluded and retries its join
/// while both still suspect it; it crashes and recovers while
/// excluded. Once trusted it is readmitted, crashes while catching up
/// (losing the state transfer), recovers and retries its state
/// request.
#[test]
fn gm_shell_calls_are_pinned() {
    let script = vec![
        (100, Injection::Fd(p(0), FdEvent::Suspect(p(2)))),
        (100, Injection::Fd(p(1), FdEvent::Suspect(p(2)))),
        (140, Injection::Crash(p(2))),
        (160, Injection::Recover(p(2))),
        (200, Injection::Fd(p(0), FdEvent::Trust(p(2)))),
        (200, Injection::Fd(p(1), FdEvent::Trust(p(2)))),
        (219, Injection::Crash(p(2))),
        (240, Injection::Recover(p(2))),
        (
            400,
            Injection::Partition(Partition::split(&[vec![p(0)], vec![p(1), p(2)]])),
        ),
        (400, Injection::Fd(p(0), FdEvent::Suspect(p(2)))),
        (520, Injection::Heal),
        (650, Injection::Fd(p(0), FdEvent::Trust(p(2)))),
    ];
    let logs = run(
        |me, s| GmNode::<u64>::new(me, N, s),
        |n| {
            let a = n.algorithm();
            format!(
                "excluded {} catching_up {}",
                a.is_excluded(),
                a.is_catching_up()
            )
        },
        &script,
        800,
    );
    let (p1, p3) = (&logs[0], &logs[2]);
    assert!(count(p3, "set_timer tag 1") > 5, "join retries");
    assert_eq!(count(p3, "on_recover excluded true catching_up false"), 1);
    assert_eq!(count(p3, "on_recover excluded false catching_up true"), 1);
    assert!(count(p3, "StateReq") > 2, "catch-up retries");
    assert!(
        count(p1, "Flush { view: ViewId(2)") > 2,
        "the frozen view change is repaired"
    );
    assert_eq!((lines(&logs), digest(&logs)), (982, 0xf906697b0d8f3b90));
}
