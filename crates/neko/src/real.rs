//! The thread-based *real-time* backend of the [`Runtime`] driver
//! layer.
//!
//! Like the paper's Neko framework, the point is that algorithm code
//! is written once and can be exercised both in simulation (fast,
//! deterministic, contention-modelled) and for real (threads and
//! channels, wall-clock time). [`RealRuntime`] implements the same
//! [`Runtime`] interface as [`crate::Sim`], so fault scripts,
//! workloads and the measurement pipeline drive either backend
//! unchanged; the [`Time`] axis is interpreted as wall-clock offsets
//! from the start of the run.
//!
//! ## How injections map onto threads
//!
//! Each process runs in a *shell* thread, and the driver replays the
//! `(Time, Injection)` stream on the wall clock, reading each
//! injection as the simulator does:
//!
//! * [`Injection::Crash`] **pauses the shell** between two handler
//!   invocations: it stops handling commands, messages and timers,
//!   and drops (and counts) what reaches it, but its state is
//!   retained.
//! * [`Injection::Recover`] resumes the paused shell with its
//!   pre-crash state and calls [`Process::on_recover`]; timers that
//!   came due while the process was down did *not* fire.
//! * [`Injection::Partition`] / [`Injection::Heal`] go to every shell,
//!   and each gates its own sends: a crossing message is dropped when
//!   it is sent, as the simulator drops it when it leaves the
//!   sender's CPU.
//! * [`Injection::Fd`] is the failure detector: the edge is applied to
//!   the shell's suspect [`DestSet`] with [`DestSet::apply`], the
//!   kernel's rule, and reaches [`Process::on_fd`] unless redundant.
//!   A crash or partition is therefore noticed exactly when the
//!   compiled fault script says, `T_D` later, and never otherwise.
//!
//! Differences from the simulator, by necessity: message latency is
//! whatever the OS gives us (no contention model — the wire counters
//! in [`NetStats`] count per-destination unicasts, like a switched
//! network), and a logical multicast is atomic because it is a loop
//! of channel sends.

#![expect(
    clippy::disallowed_methods,
    reason = "the real-time backend runs each process on an OS thread against the wall clock; \
              no simulated run reaches this module"
)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;

use crate::inject::{Injection, Partition};
use crate::net::NetStats;
use crate::process::{Ctx, DestSet, Message, Pid, Process, TimerId, MAX_PROCESSES};
use crate::rng::stream_rng;
use crate::runtime::Runtime;
use crate::time::{Dur, Time};

/// A scheduled driver action.
#[derive(Debug)]
enum Action<C> {
    Cmd(Pid, C),
    Inject(Injection),
}

/// The thread-based real-time backend: one OS thread per process and
/// a driver that replays the scheduled commands and injections on the
/// wall clock.
///
/// Build it with [`RealRuntime::new`], schedule work through the
/// [`Runtime`] interface, then call
/// [`run_until`](Runtime::run_until) **once** — it blocks for the
/// run's wall-clock duration, after which
/// [`take_outputs`](Runtime::take_outputs) and
/// [`net_stats`](Runtime::net_stats) report what happened.
///
/// ```no_run
/// use neko::{Ctx, Pid, Process, RealRuntime, Runtime, Time};
///
/// struct Echo;
/// impl Process for Echo {
///     type Msg = u64;
///     type Cmd = u64;
///     type Out = u64;
///     fn on_command(&mut self, ctx: &mut dyn Ctx<u64, u64>, cmd: u64) {
///         ctx.broadcast(cmd);
///     }
///     fn on_message(&mut self, ctx: &mut dyn Ctx<u64, u64>, _from: Pid, msg: u64) {
///         ctx.emit(msg);
///     }
/// }
///
/// let mut rt = RealRuntime::new(3, 0, |_| Echo);
/// rt.schedule_command(Time::from_millis(20), Pid::new(1), 42);
/// rt.run_until(Time::from_millis(200)); // blocks ~200 ms
/// assert_eq!(rt.take_outputs().len(), 3);
/// ```
pub struct RealRuntime<P: Process> {
    n: usize,
    seed: u64,
    procs: Vec<P>,
    schedule: Vec<(Time, Action<P::Cmd>)>,
    outputs: Vec<(Time, Pid, P::Out)>,
    stats: NetStats,
    now: Time,
    ran: bool,
}

impl<P> RealRuntime<P>
where
    P: Process + Send,
    P::Msg: Send,
    P::Cmd: Send,
    P::Out: Send,
{
    /// Creates the runtime for `n` processes, constructing each with
    /// `factory`; `seed` is the master seed of the per-process RNGs.
    /// Nothing is spawned until [`run_until`](Runtime::run_until).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= MAX_PROCESSES`, as the simulator
    /// does.
    pub fn new(n: usize, seed: u64, factory: impl FnMut(Pid) -> P) -> Self {
        assert!(
            (1..=MAX_PROCESSES).contains(&n),
            "n must be in 1..={MAX_PROCESSES}"
        );
        RealRuntime {
            n,
            seed,
            procs: Pid::all(n).map(factory).collect(),
            schedule: Vec::new(),
            outputs: Vec::new(),
            stats: NetStats::default(),
            now: Time::ZERO,
            ran: false,
        }
    }

    fn execute(&mut self, until: Time) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..self.n).map(|_| channel()).unzip();
        // Give every thread time to come up before time zero.
        let start = Instant::now() + Duration::from_millis(20);
        let shells: Vec<_> = std::mem::take(&mut self.procs)
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(i, (proc, rx))| {
                let shell = Shell::new(Pid::new(i), self.seed, start, txs.clone());
                thread::spawn(move || shell.run(proc, rx))
            })
            .collect();
        let send = |to: Pid, env| {
            if let Some(tx) = txs.get(to.index()) {
                let _ = tx.send(env);
            }
        };

        // Replay the schedule on the wall clock. The sort is stable,
        // so same-instant actions keep their scheduling order (the
        // compiled-script tie-break).
        let mut schedule = std::mem::take(&mut self.schedule);
        schedule.sort_by_key(|(at, _)| *at);
        for (at, action) in schedule {
            if at > until {
                continue;
            }
            sleep_until(start + Duration::from_micros(at.as_micros()));
            match action {
                Action::Cmd(to, cmd) => send(to, Env::Cmd(cmd)),
                Action::Inject(
                    inj @ (Injection::Crash(p) | Injection::Recover(p) | Injection::Fd(p, _)),
                ) => send(p, Env::Inject(inj)),
                // The network is every shell's: each gates its own sends.
                Action::Inject(inj @ (Injection::Partition(_) | Injection::Heal)) => {
                    for tx in &txs {
                        let _ = tx.send(Env::Inject(inj.clone()));
                    }
                }
            }
        }

        sleep_until(start + Duration::from_micros(until.as_micros()));
        for tx in &txs {
            let _ = tx.send(Env::Stop);
        }
        let mut stats = NetStats::default();
        let mut outputs = Vec::new();
        for shell in shells {
            // A handler that panicked fails the run, as on the simulator.
            let (s, out) = shell
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            stats.send_calls += s.send_calls;
            stats.wire_messages += s.wire_messages;
            stats.deliveries += s.deliveries;
            stats.self_deliveries += s.self_deliveries;
            stats.dropped_to_crashed += s.dropped_to_crashed;
            stats.dropped_partitioned += s.dropped_partitioned;
            stats.cpu_busy += s.cpu_busy;
            stats.links_used += s.links_used;
            outputs.extend(out);
        }
        // Stable: one process's same-instant outputs keep their order.
        outputs.sort_by_key(|(t, p, _)| (*t, p.index()));
        self.stats = stats;
        self.outputs = outputs;
    }
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }
}

impl<P> Runtime<P> for RealRuntime<P>
where
    P: Process + Send,
    P::Msg: Send,
    P::Cmd: Send,
    P::Out: Send,
{
    fn n(&self) -> usize {
        self.n
    }

    fn now(&self) -> Time {
        self.now
    }

    fn schedule_command(&mut self, at: Time, to: Pid, cmd: P::Cmd) {
        assert!(!self.ran, "the real-time runtime executes its run once");
        self.schedule.push((at, Action::Cmd(to, cmd)));
    }

    fn schedule_injection(&mut self, at: Time, inj: Injection) {
        assert!(!self.ran, "the real-time runtime executes its run once");
        self.schedule.push((at, Action::Inject(inj)));
    }

    /// Executes the whole scheduled run, blocking for `until` of wall
    /// time. One-shot: a second call panics, and so does a run in
    /// which a handler panicked on its process thread.
    fn run_until(&mut self, until: Time) {
        assert!(!self.ran, "the real-time runtime executes its run once");
        self.ran = true;
        self.execute(until);
        self.now = until;
    }

    fn take_outputs(&mut self) -> Vec<(Time, Pid, P::Out)> {
        std::mem::take(&mut self.outputs)
    }

    fn net_stats(&self) -> NetStats {
        self.stats
    }
}

/// What a shell receives.
enum Env<M, C> {
    App { from: Pid, msg: M },
    Cmd(C),
    Inject(Injection),
    Stop,
}

/// One process thread's runtime around the untouched [`Process`]
/// handlers: its channels to every shell, the partition its sends
/// obey, its timers, its suspect set and its counters. It is the
/// process's [`Ctx`].
struct Shell<M, C, O> {
    pid: Pid,
    start: Instant,
    peers: Vec<Sender<Env<M, C>>>,
    partition: Option<Partition>,
    paused: bool,
    /// Self-sends, handled in order before anything else.
    local: VecDeque<M>,
    /// Pending timers, earliest first. A cancel removes its timer, so
    /// no tombstone outlives it.
    timers: BinaryHeap<Reverse<(Instant, TimerId, u64)>>,
    next_timer: u64,
    suspects: DestSet,
    /// The remote destinations this shell has sent to (its links).
    links: DestSet,
    outputs: Vec<(Time, Pid, O)>,
    stats: NetStats,
    rng: SmallRng,
}

impl<M: Message, C, O> Shell<M, C, O> {
    fn new(pid: Pid, seed: u64, start: Instant, peers: Vec<Sender<Env<M, C>>>) -> Self {
        Shell {
            pid,
            start,
            peers,
            partition: None,
            paused: false,
            local: VecDeque::new(),
            timers: BinaryHeap::new(),
            next_timer: 0,
            suspects: DestSet::new(),
            links: DestSet::new(),
            outputs: Vec::new(),
            stats: NetStats::default(),
            rng: stream_rng(seed, 0x4EA1_0000 + pid.index() as u64),
        }
    }

    /// Runs a handler, adding its wall time to the measured
    /// `cpu_busy`.
    fn timed(&mut self, handler: impl FnOnce(&mut Self)) {
        let t0 = Instant::now();
        handler(self);
        self.stats.cpu_busy += Dur::from_micros(t0.elapsed().as_micros() as u64);
    }

    /// Pops the earliest timer if it is due by `now`.
    fn pop_due(&mut self, now: Instant) -> Option<(TimerId, u64)> {
        let Reverse((at, id, tag)) = *self.timers.peek()?;
        (at <= now).then(|| {
            self.timers.pop();
            (id, tag)
        })
    }

    /// One remote or local copy of a send, gated by the partition in
    /// force when it is sent.
    fn transmit(&mut self, to: Pid, msg: M) {
        if to == self.pid {
            self.stats.self_deliveries += 1;
            self.local.push_back(msg);
        } else if self
            .partition
            .as_ref()
            .is_some_and(|p| !p.allows(self.pid, to))
        {
            self.stats.dropped_partitioned += 1;
        } else if let Some(tx) = self.peers.get(to.index()) {
            self.stats.wire_messages += 1;
            self.links.insert(to);
            let _ = tx.send(Env::App {
                from: self.pid,
                msg,
            });
        }
    }

    /// The thread body: handles self-sends and due timers, then waits
    /// for the next envelope or deadline, until [`Env::Stop`]. Returns
    /// the shell's counters and outputs.
    fn run<P>(mut self, mut proc: P, rx: Receiver<Env<M, C>>) -> (NetStats, Vec<(Time, Pid, O)>)
    where
        P: Process<Msg = M, Cmd = C, Out = O>,
    {
        sleep_until(self.start);
        self.timed(|s| proc.on_start(s));
        loop {
            while !self.paused {
                if let Some(msg) = self.local.pop_front() {
                    self.stats.deliveries += 1;
                    let me = self.pid;
                    self.timed(|s| proc.on_message(s, me, msg));
                } else if let Some((id, tag)) = self.pop_due(Instant::now()) {
                    self.timed(|s| proc.on_timer(s, id, tag));
                } else {
                    break;
                }
            }
            let wait = match self.timers.peek() {
                Some(Reverse((at, ..))) if !self.paused => {
                    at.saturating_duration_since(Instant::now())
                }
                _ => Duration::MAX,
            };
            match rx.recv_timeout(wait) {
                Ok(Env::App { .. }) if self.paused => self.stats.dropped_to_crashed += 1,
                Ok(Env::App { from, msg }) => {
                    self.stats.deliveries += 1;
                    self.timed(|s| proc.on_message(s, from, msg));
                }
                Ok(Env::Cmd(_)) if self.paused => {}
                Ok(Env::Cmd(cmd)) => self.timed(|s| proc.on_command(s, cmd)),
                Ok(Env::Inject(inj)) => self.inject(&mut proc, inj),
                Err(RecvTimeoutError::Timeout) => {}
                Ok(Env::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.stats.links_used = self.links.len() as u64;
        (self.stats, self.outputs)
    }

    /// Applies one injection the way the simulator's kernel does.
    fn inject<P>(&mut self, proc: &mut P, inj: Injection)
    where
        P: Process<Msg = M, Cmd = C, Out = O>,
    {
        match inj {
            Injection::Crash(_) => self.paused = true,
            Injection::Recover(_) if self.paused => {
                self.paused = false;
                // Timers that came due while the process was down did
                // not fire.
                let now = Instant::now();
                while self.pop_due(now).is_some() {}
                self.timed(|s| proc.on_recover(s));
            }
            Injection::Recover(_) => {}
            Injection::Fd(_, ev) => {
                if !self.paused && self.suspects.apply(ev) {
                    self.timed(|s| proc.on_fd(s, ev));
                }
            }
            Injection::Partition(part) => self.partition = Some(part),
            Injection::Heal => self.partition = None,
        }
    }
}

impl<M: Message, C, O> Ctx<M, O> for Shell<M, C, O> {
    fn now(&self) -> Time {
        Time::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn n(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, to: Pid, msg: M) {
        self.stats.send_calls += 1;
        self.transmit(to, msg);
    }

    fn multicast(&mut self, dests: &[Pid], msg: M) {
        self.stats.send_calls += 1;
        for &to in dests {
            self.transmit(to, msg.clone());
        }
    }

    fn broadcast(&mut self, msg: M) {
        self.stats.send_calls += 1;
        for to in Pid::all(self.peers.len()) {
            self.transmit(to, msg.clone());
        }
    }

    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
        self.next_timer += 1;
        let id = TimerId(self.next_timer);
        let at = Instant::now() + Duration::from_micros(after.as_micros());
        self.timers.push(Reverse((at, id, tag)));
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.timers.retain(|Reverse((_, t, _))| *t != id);
    }

    fn emit(&mut self, out: O) {
        let now = self.now();
        self.outputs.push((now, self.pid, out));
    }

    fn is_suspected(&self, p: Pid) -> bool {
        self.suspects.contains(p)
    }

    fn rng(&mut self) -> &mut dyn rand::RngCore {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::FdEvent;

    fn ms(v: u64) -> Time {
        Time::from_millis(v)
    }

    /// Broadcasts each command; emits every received value.
    struct Echo;
    impl Process for Echo {
        type Msg = u64;
        type Cmd = u64;
        type Out = u64;
        fn on_command(&mut self, ctx: &mut dyn Ctx<u64, u64>, cmd: u64) {
            ctx.broadcast(cmd);
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<u64, u64>, _from: Pid, msg: u64) {
            ctx.emit(msg);
        }
    }

    #[test]
    #[should_panic(expected = "n must be in 1..=256")]
    fn more_than_max_processes_are_refused_before_any_thread_starts() {
        let _ = RealRuntime::new(MAX_PROCESSES + 1, 0, |_| Echo);
    }

    /// Emits `100 + p` on a suspicion of `p`, `200 + p` on a trust.
    struct FdWatch;
    impl Process for FdWatch {
        type Msg = ();
        type Cmd = ();
        type Out = u64;
        fn on_command(&mut self, _ctx: &mut dyn Ctx<(), u64>, _cmd: ()) {}
        fn on_message(&mut self, _ctx: &mut dyn Ctx<(), u64>, _from: Pid, _msg: ()) {}
        fn on_fd(&mut self, ctx: &mut dyn Ctx<(), u64>, ev: FdEvent) {
            match ev {
                FdEvent::Suspect(p) => ctx.emit(100 + p.index() as u64),
                FdEvent::Trust(p) => ctx.emit(200 + p.index() as u64),
            }
        }
    }

    #[test]
    fn broadcast_reaches_every_thread() {
        let mut rt = RealRuntime::new(3, 0, |_| Echo);
        rt.schedule_command(ms(20), Pid::new(1), 42);
        rt.run_until(ms(250));
        let values: Vec<u64> = rt.take_outputs().iter().map(|(_, _, v)| *v).collect();
        assert_eq!(values, vec![42, 42, 42]);
        let stats = rt.net_stats();
        assert_eq!(stats.send_calls, 1);
        assert_eq!(stats.self_deliveries, 1);
        assert_eq!(stats.deliveries, 3);
        assert_eq!(stats.wire_messages, 2, "one unicast copy per remote dest");
        assert_eq!(stats.links_used, 2);
        assert!(stats.cpu_busy > Dur::ZERO);
    }

    #[test]
    fn a_bare_crash_is_suspected_by_nobody() {
        // The detector is the script: without the edges a compiled
        // crash carries, nobody suspects the crashed process.
        let mut rt = RealRuntime::new(3, 0, |_| FdWatch);
        rt.schedule_injection(ms(50), Injection::Crash(Pid::new(2)));
        rt.run_until(ms(300));
        let out = rt.take_outputs();
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn forced_fd_edges_reach_the_process_and_clear() {
        // Scripted suspicion burst: a Suspect then Trust about p2,
        // delivered to p1's detector while everyone is healthy; the
        // repeated Suspect is redundant and dropped.
        let mut rt = RealRuntime::new(2, 0, |_| FdWatch);
        let suspect = Injection::Fd(Pid::new(0), FdEvent::Suspect(Pid::new(1)));
        rt.schedule_injection(ms(40), suspect.clone());
        rt.schedule_injection(ms(80), suspect);
        rt.schedule_injection(
            ms(120),
            Injection::Fd(Pid::new(0), FdEvent::Trust(Pid::new(1))),
        );
        rt.run_until(ms(250));
        let events: Vec<(Pid, u64)> = rt
            .take_outputs()
            .into_iter()
            .map(|(_, p, v)| (p, v))
            .collect();
        assert_eq!(events, vec![(Pid::new(0), 101), (Pid::new(0), 201)]);
    }

    #[test]
    fn partition_gates_messages_until_heal() {
        let mut rt = RealRuntime::new(3, 0, |_| Echo);
        let cut = Partition::split(&[vec![Pid::new(0), Pid::new(1)], vec![Pid::new(2)]]);
        rt.schedule_injection(ms(30), Injection::Partition(cut));
        // During the cut: p1's broadcast reaches p2 but not p3.
        rt.schedule_command(ms(80), Pid::new(0), 7);
        rt.schedule_injection(ms(200), Injection::Heal);
        // After the heal: everyone gets it again.
        rt.schedule_command(ms(280), Pid::new(0), 9);
        rt.run_until(ms(450));
        let at = |p: usize, out: &[(Time, Pid, u64)]| -> Vec<u64> {
            out.iter()
                .filter(|(_, q, _)| *q == Pid::new(p))
                .map(|(_, _, v)| *v)
                .collect()
        };
        let out = rt.take_outputs();
        assert_eq!(at(1, &out), vec![7, 9]);
        assert_eq!(
            at(2, &out),
            vec![9],
            "the cut must swallow 7, the heal must let 9 through"
        );
        let stats = rt.net_stats();
        assert_eq!(stats.dropped_partitioned, 1);
        assert_eq!(stats.wire_messages, 3);
    }

    /// Counts received values; emits the running count, so state
    /// retention across crash/recover is observable. Emits 1000 from
    /// `on_recover`.
    struct Counter {
        count: u64,
    }
    impl Process for Counter {
        type Msg = u64;
        type Cmd = u64;
        type Out = u64;
        fn on_command(&mut self, ctx: &mut dyn Ctx<u64, u64>, cmd: u64) {
            ctx.broadcast(cmd);
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<u64, u64>, _from: Pid, _msg: u64) {
            self.count += 1;
            ctx.emit(self.count);
        }
        fn on_recover(&mut self, ctx: &mut dyn Ctx<u64, u64>) {
            ctx.emit(1000 + self.count);
        }
    }

    #[test]
    fn crash_pauses_and_recover_retains_state() {
        let mut rt = RealRuntime::new(2, 0, |_| Counter { count: 0 });
        // One message before the crash …
        rt.schedule_command(ms(30), Pid::new(0), 1);
        rt.schedule_injection(ms(80), Injection::Crash(Pid::new(1)));
        // … one lost while p2 is down …
        rt.schedule_command(ms(130), Pid::new(0), 2);
        rt.schedule_injection(ms(200), Injection::Recover(Pid::new(1)));
        // … one after the recovery.
        rt.schedule_command(ms(280), Pid::new(0), 3);
        rt.run_until(ms(400));
        let p2: Vec<u64> = rt
            .take_outputs()
            .iter()
            .filter(|(_, p, _)| *p == Pid::new(1))
            .map(|(_, _, v)| *v)
            .collect();
        // Counted 1 before the crash; the on_recover marker proves the
        // pre-crash state (count = 1) was retained; the post-recovery
        // message continues the count at 2.
        assert_eq!(p2, vec![1, 1001, 2]);
        assert_eq!(rt.net_stats().dropped_to_crashed, 1);
    }

    /// Command `(after_ms, tag, cancel)` arms a timer, cancelling it at
    /// once if `cancel`; a firing timer emits its tag.
    struct Timers;
    impl Process for Timers {
        type Msg = ();
        type Cmd = (u64, u64, bool);
        type Out = u64;
        fn on_command(&mut self, ctx: &mut dyn Ctx<(), u64>, (after, tag, cancel): Self::Cmd) {
            let id = ctx.set_timer(Dur::from_millis(after), tag);
            if cancel {
                ctx.cancel_timer(id);
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn Ctx<(), u64>, _from: Pid, _msg: ()) {}
        fn on_timer(&mut self, ctx: &mut dyn Ctx<(), u64>, _id: TimerId, tag: u64) {
            ctx.emit(tag);
        }
    }

    #[test]
    fn timers_fire_unless_cancelled_or_due_while_down() {
        let mut rt = RealRuntime::new(1, 0, |_| Timers);
        let p = Pid::new(0);
        rt.schedule_command(ms(20), p, (30, 1, false));
        rt.schedule_command(ms(20), p, (30, 2, true));
        // Tag 3 comes due while the process is down; tag 4 after it
        // is back.
        rt.schedule_command(ms(100), p, (30, 3, false));
        rt.schedule_command(ms(100), p, (150, 4, false));
        rt.schedule_injection(ms(110), Injection::Crash(p));
        rt.schedule_injection(ms(180), Injection::Recover(p));
        rt.run_until(ms(350));
        let out = rt.take_outputs();
        let tags: Vec<u64> = out.iter().map(|(_, _, v)| *v).collect();
        assert_eq!(tags, vec![1, 4], "{out:?}");
        assert!(out[1].0 >= ms(250), "{out:?}");
    }

    /// Panics in its command handler.
    struct Faulty;
    impl Process for Faulty {
        type Msg = ();
        type Cmd = ();
        type Out = ();
        fn on_command(&mut self, _ctx: &mut dyn Ctx<(), ()>, _cmd: ()) {
            panic!("handler fault");
        }
        fn on_message(&mut self, _ctx: &mut dyn Ctx<(), ()>, _from: Pid, _msg: ()) {}
    }

    #[test]
    #[should_panic(expected = "handler fault")]
    fn a_handler_panic_fails_the_run() {
        let mut rt = RealRuntime::new(2, 0, |_| Faulty);
        rt.schedule_command(ms(10), Pid::new(1), ());
        rt.run_until(ms(40));
    }

    #[test]
    #[should_panic(expected = "executes its run once")]
    fn second_run_panics() {
        let mut rt = RealRuntime::new(2, 0, |_| Echo);
        rt.run_until(ms(30));
        rt.run_until(ms(60));
    }
}
