//! The thread-based *real-time* backend of the [`Runtime`] driver
//! layer.
//!
//! Like the paper's Neko framework, the point is that algorithm code
//! is written once and can be exercised both in simulation (fast,
//! deterministic, contention-modelled) and for real (threads and
//! channels, wall-clock time, a heartbeat failure detector).
//! [`RealRuntime`] implements the same [`Runtime`] interface as
//! [`crate::Sim`], so fault scripts, workloads and the measurement
//! pipeline drive either backend unchanged; the [`Time`] axis is
//! interpreted as wall-clock offsets from the start of the run.
//!
//! ## How injections map onto threads
//!
//! * [`Injection::Crash`] **pauses the process thread** between two
//!   handler invocations: it stops reading messages, firing timers
//!   and sending heartbeats, but its state is retained.
//! * [`Injection::Recover`] resumes the paused thread with its
//!   pre-crash state and calls [`Process::on_recover`]; timers that
//!   came due while the process was down did *not* fire.
//! * [`Injection::Partition`] / [`Injection::Heal`] gate traffic at a
//!   **router thread** every inter-process message (and heartbeat)
//!   passes through: crossing messages are dropped, so the heartbeat
//!   detector starts suspecting the other side all by itself.
//! * [`Injection::Fd`] forces a suspicion edge onto the heartbeat
//!   detector's mask (the scripted suspicion-burst methodology); the
//!   process sees the union of forced and heartbeat-derived
//!   suspicions through [`Ctx::is_suspected`].
//!
//! Differences from the simulator, by necessity: message latency is
//! whatever the OS gives us (no contention model — the wire counters
//! in [`NetStats`] count per-destination unicasts, like a switched
//! network), failure detection is an actual push-style heartbeat
//! detector ([`RealConfig::heartbeat`]), and a logical multicast is
//! atomic because it is a loop of channel sends.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the real-time backend runs each process on an OS thread against the wall clock, \
              with shared counters and locks; no simulated run reaches this module"
)]

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::inject::{Injection, Partition};
use crate::net::NetStats;
use crate::process::{Ctx, FdEvent, Message, Pid, Process, TimerId};
use crate::rng::stream_rng;
use crate::runtime::Runtime;
use crate::time::{Dur, Time};

/// Configuration of the real-time backend.
#[derive(Clone, Debug)]
pub struct RealConfig {
    hb_period: Duration,
    hb_timeout: Duration,
    seed: u64,
}

impl RealConfig {
    /// The default configuration: a 5 ms heartbeat period and a
    /// 100 ms suspicion timeout, seed 0.
    pub fn new() -> Self {
        RealConfig {
            hb_period: Duration::from_millis(5),
            hb_timeout: Duration::from_millis(100),
            seed: 0,
        }
    }

    /// Sets the heartbeat period and the timeout after which a silent
    /// peer is suspected.
    ///
    /// # Panics
    ///
    /// Panics if `timeout <= period` (such a detector would suspect
    /// everyone constantly).
    pub fn heartbeat(mut self, period: Duration, timeout: Duration) -> Self {
        assert!(timeout > period, "heartbeat timeout must exceed the period");
        self.hb_period = period;
        self.hb_timeout = timeout;
        self
    }

    /// Sets the master seed for the per-process RNGs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for RealConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A scheduled driver action.
#[derive(Debug)]
enum Action<C> {
    Cmd(Pid, C),
    Inject(Injection),
}

/// The thread-based real-time backend: one OS thread per process, a
/// router thread gating every message, and a driver that replays the
/// scheduled commands and injections on the wall clock.
///
/// Build it with [`RealRuntime::new`], schedule work through the
/// [`Runtime`] interface, then call
/// [`run_until`](Runtime::run_until) **once** — it blocks for the
/// run's wall-clock duration, after which
/// [`take_outputs`](Runtime::take_outputs) and
/// [`net_stats`](Runtime::net_stats) report what happened.
///
/// ```no_run
/// use neko::{Ctx, Pid, Process, RealConfig, RealRuntime, Runtime, Time};
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
/// let mut rt = RealRuntime::new(3, RealConfig::new(), |_| Echo);
/// rt.schedule_command(Time::from_millis(20), Pid::new(1), 42);
/// rt.run_until(Time::from_millis(200)); // blocks ~200 ms
/// assert_eq!(rt.take_outputs().len(), 3);
/// ```
pub struct RealRuntime<P: Process> {
    n: usize,
    config: RealConfig,
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
    /// `factory`. Nothing is spawned until
    /// [`run_until`](Runtime::run_until).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`: this backend keeps its crashed processes
    /// in one `AtomicU64` mask. (The engine's
    /// [`DestSet`](crate::DestSet) holds up to
    /// [`MAX_PROCESSES`](crate::MAX_PROCESSES).)
    pub fn new(n: usize, config: RealConfig, mut factory: impl FnMut(Pid) -> P) -> Self {
        assert!(n <= 64, "at most 64 processes are supported");
        RealRuntime {
            n,
            config,
            procs: Pid::all(n).map(&mut factory).collect(),
            schedule: Vec::new(),
            outputs: Vec::new(),
            stats: NetStats::default(),
            now: Time::ZERO,
            ran: false,
        }
    }

    fn execute(&mut self, until: Time) {
        let n = self.n;
        let (shell_txs, shell_rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| channel::<Env<P::Msg, P::Cmd>>()).unzip();
        let (router_tx, router_rx) = channel::<Route<P::Msg>>();
        let crashed = Arc::new(AtomicU64::new(0));
        let outputs: SharedOutputs<P::Out> = Arc::new(Mutex::new(Vec::new()));
        // Give every thread time to come up before time zero.
        let start = Instant::now() + Duration::from_millis(20);

        let router = {
            let txs = shell_txs.clone();
            let crashed = Arc::clone(&crashed);
            thread::spawn(move || route(n, txs, crashed, router_rx))
        };

        let mut shells = Vec::new();
        for (i, rx) in shell_rxs.into_iter().enumerate() {
            let pid = Pid::new(i);
            let proc = self.procs.remove(0);
            let router_tx = router_tx.clone();
            let outputs = Arc::clone(&outputs);
            let config = self.config.clone();
            shells.push(thread::spawn(move || {
                shell(pid, n, proc, rx, router_tx, outputs, config, start)
            }));
        }

        // Replay the schedule on the wall clock. The sort is stable,
        // so same-instant actions keep their scheduling order (the
        // compiled-script tie-break).
        let mut schedule = std::mem::take(&mut self.schedule);
        schedule.sort_by_key(|(at, _)| *at);
        for (at, action) in schedule {
            if at > until {
                continue;
            }
            let fire_at = start + Duration::from_micros(at.as_micros());
            if let Some(wait) = fire_at.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            match action {
                Action::Cmd(to, cmd) => {
                    let _ = shell_txs[to.index()].send(Env::Cmd(cmd));
                }
                Action::Inject(Injection::Crash(p)) => {
                    crashed.fetch_or(1 << p.index(), Ordering::SeqCst);
                    let _ = shell_txs[p.index()].send(Env::Crash);
                }
                Action::Inject(Injection::Recover(p)) => {
                    crashed.fetch_and(!(1 << p.index()), Ordering::SeqCst);
                    let _ = shell_txs[p.index()].send(Env::Recover);
                }
                Action::Inject(Injection::Fd(p, ev)) => {
                    let _ = shell_txs[p.index()].send(Env::Fd(ev));
                }
                Action::Inject(Injection::Partition(part)) => {
                    let _ = router_tx.send(Route::Partition(Some(part)));
                }
                Action::Inject(Injection::Heal) => {
                    let _ = router_tx.send(Route::Partition(None));
                }
            }
        }

        let end_at = start + Duration::from_micros(until.as_micros());
        if let Some(wait) = end_at.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        for tx in &shell_txs {
            let _ = tx.send(Env::Stop);
        }
        let mut stats = NetStats::default();
        for h in shells {
            if let Ok(report) = h.join() {
                stats.send_calls += report.send_calls;
                stats.deliveries += report.deliveries;
                stats.self_deliveries += report.self_deliveries;
                stats.cpu_busy += Dur::from_micros(report.cpu_busy_us);
            }
        }
        let _ = router_tx.send(Route::Stop);
        if let Ok(wire) = router.join() {
            stats.wire_messages = wire.forwarded;
            stats.dropped_partitioned = wire.dropped_partitioned;
            stats.dropped_to_crashed = wire.dropped_to_crashed;
            stats.links_used = wire.links_used;
        }
        self.stats = stats;

        let mut out = match Arc::try_unwrap(outputs) {
            Ok(m) => m.into_inner().unwrap_or_else(|p| p.into_inner()),
            Err(arc) => arc
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .drain(..)
                .collect(),
        };
        out.sort_by_key(|(t, p, _)| (*t, p.index()));
        self.outputs = out;
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
    /// time. One-shot: a second call panics.
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

/// Outputs shared between the process threads and the driver.
type SharedOutputs<O> = Arc<Mutex<Vec<(Time, Pid, O)>>>;

/// What a process thread receives.
enum Env<M, C> {
    App { from: Pid, msg: M },
    Hb { from: Pid },
    Cmd(C),
    Fd(FdEvent),
    Crash,
    Recover,
    Stop,
}

/// What the router thread receives.
enum Route<M> {
    App { from: Pid, to: Pid, msg: M },
    Hb { from: Pid, to: Pid },
    Partition(Option<Partition>),
    Stop,
}

/// Wire-level counters the router accumulates.
#[derive(Default)]
struct WireReport {
    forwarded: u64,
    dropped_partitioned: u64,
    dropped_to_crashed: u64,
    links_used: u64,
}

/// The router thread: every inter-process message and heartbeat
/// passes through here, where the current partition and the crashed
/// mask gate it — this is what makes [`Injection::Partition`] a
/// *network* fault on the real backend: the heartbeat detector on
/// each side starts suspecting the other side on its own.
fn route<M: Send, C: Send>(
    n: usize,
    txs: Vec<Sender<Env<M, C>>>,
    crashed: Arc<AtomicU64>,
    rx: Receiver<Route<M>>,
) -> WireReport {
    let mut partition: Option<Partition> = None;
    let mut report = WireReport::default();
    let mut link_seen = vec![false; n * n];
    let is_down = |p: Pid| crashed.load(Ordering::SeqCst) & (1 << p.index()) != 0;
    while let Ok(route) = rx.recv() {
        match route {
            Route::App { from, to, msg } => {
                if partition.as_ref().is_some_and(|p| !p.allows(from, to)) {
                    report.dropped_partitioned += 1;
                } else if is_down(to) {
                    report.dropped_to_crashed += 1;
                } else {
                    report.forwarded += 1;
                    let link = from.index() * n + to.index();
                    if !link_seen[link] {
                        link_seen[link] = true;
                        report.links_used += 1;
                    }
                    let _ = txs[to.index()].send(Env::App { from, msg });
                }
            }
            Route::Hb { from, to } => {
                // Heartbeats obey the same gates but stay out of the
                // wire counters: the simulated FD is abstract, so
                // keeping its traffic invisible keeps the stats
                // comparable across backends.
                let gated = partition.as_ref().is_some_and(|p| !p.allows(from, to));
                if !gated && !is_down(to) {
                    let _ = txs[to.index()].send(Env::Hb { from });
                }
            }
            Route::Partition(p) => partition = p,
            Route::Stop => break,
        }
    }
    report
}

struct PendingTimer {
    fire_at: Instant,
    id: TimerId,
    tag: u64,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.fire_at == other.fire_at && self.id == other.id
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: earliest deadline pops first.
        (other.fire_at, other.id).cmp(&(self.fire_at, self.id))
    }
}

/// Per-shell counters, returned when the thread stops.
#[derive(Default)]
struct ShellReport {
    send_calls: u64,
    deliveries: u64,
    self_deliveries: u64,
    cpu_busy_us: u64,
}

struct RealCtx<'a, M: Message, O> {
    pid: Pid,
    n: usize,
    start: Instant,
    router: &'a Sender<Route<M>>,
    local: &'a mut Vec<(Pid, M)>,
    timers: &'a mut BinaryHeap<PendingTimer>,
    cancelled: &'a mut Vec<u64>,
    next_timer: &'a mut u64,
    outputs: &'a Mutex<Vec<(Time, Pid, O)>>,
    suspected: &'a [bool],
    report: &'a mut ShellReport,
    rng: &'a mut rand::rngs::SmallRng,
}

impl<M: Message, O> RealCtx<'_, M, O> {
    fn wall_now(&self) -> Time {
        Time::from_micros(self.start.elapsed().as_micros() as u64)
    }
}

impl<M: Message + Send, O> Ctx<M, O> for RealCtx<'_, M, O> {
    fn now(&self) -> Time {
        self.wall_now()
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn n(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: Pid, msg: M) {
        self.report.send_calls += 1;
        if to == self.pid {
            self.report.self_deliveries += 1;
            self.local.push((self.pid, msg));
        } else {
            let _ = self.router.send(Route::App {
                from: self.pid,
                to,
                msg,
            });
        }
    }

    fn multicast(&mut self, dests: &[Pid], msg: M) {
        self.report.send_calls += 1;
        for &to in dests {
            if to == self.pid {
                self.report.self_deliveries += 1;
                self.local.push((self.pid, msg.clone()));
            } else {
                let _ = self.router.send(Route::App {
                    from: self.pid,
                    to,
                    msg: msg.clone(),
                });
            }
        }
    }

    fn broadcast(&mut self, msg: M) {
        let all: Vec<Pid> = Pid::all(self.n).collect();
        self.multicast(&all, msg);
    }

    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
        *self.next_timer += 1;
        let id = TimerId(*self.next_timer);
        let fire_at = Instant::now() + Duration::from_micros(after.as_micros());
        self.timers.push(PendingTimer { fire_at, id, tag });
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled.push(id.0);
    }

    fn emit(&mut self, out: O) {
        let now = self.wall_now();
        self.outputs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((now, self.pid, out));
    }

    fn is_suspected(&self, p: Pid) -> bool {
        self.suspected[p.index()]
    }

    fn rng(&mut self) -> &mut dyn rand::RngCore {
        self.rng
    }
}

/// One process thread: the heartbeat failure detector, the timer
/// wheel, pause/resume for crash injections, and the forced-edge mask
/// for scripted suspicions — all around the untouched [`Process`]
/// handlers.
#[allow(
    clippy::too_many_arguments,
    reason = "the thread entry point takes the state it owns by value"
)]
fn shell<P>(
    pid: Pid,
    n: usize,
    mut proc: P,
    rx: Receiver<Env<P::Msg, P::Cmd>>,
    router: Sender<Route<P::Msg>>,
    outputs: SharedOutputs<P::Out>,
    config: RealConfig,
    start: Instant,
) -> ShellReport
where
    P: Process + Send,
    P::Msg: Send,
{
    let mut local: Vec<(Pid, P::Msg)> = Vec::new();
    let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
    let mut cancelled: Vec<u64> = Vec::new();
    let mut next_timer: u64 = 0;
    // The detector output is the union of what the heartbeat detector
    // concluded (`hb_suspect`) and what the driver forced (`forced`,
    // scripted suspicion edges); `suspected` caches the union for
    // `Ctx::is_suspected`.
    let mut hb_suspect = vec![false; n];
    let mut forced = vec![false; n];
    let mut suspected = vec![false; n];
    let mut last_hb = vec![Instant::now(); n];
    let mut rng = stream_rng(config.seed, 0x4EA1_0000 + pid.index() as u64);
    let mut next_hb = start;
    let mut paused = false;
    let mut report = ShellReport::default();

    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }

    macro_rules! ctx {
        () => {
            RealCtx {
                pid,
                n,
                start,
                router: &router,
                local: &mut local,
                timers: &mut timers,
                cancelled: &mut cancelled,
                next_timer: &mut next_timer,
                outputs: &outputs,
                suspected: &suspected,
                report: &mut report,
                rng: &mut rng,
            }
        };
    }
    // Every handler invocation is timed: the sum is the backend's
    // measured `cpu_busy`.
    macro_rules! timed {
        ($body:expr) => {{
            let t0 = Instant::now();
            $body;
            report.cpu_busy_us += t0.elapsed().as_micros() as u64;
        }};
    }

    timed!(proc.on_start(&mut ctx!()));

    loop {
        // Self-sends are handled before anything else, in order.
        while !paused && !local.is_empty() {
            let (from, msg) = local.remove(0);
            report.deliveries += 1;
            timed!(proc.on_message(&mut ctx!(), from, msg));
        }

        if !paused {
            // Fire due timers.
            let now = Instant::now();
            while timers.peek().is_some_and(|t| t.fire_at <= now) {
                let t = timers.pop().expect("peeked timer vanished");
                if let Some(i) = cancelled.iter().position(|&c| c == t.id.0) {
                    cancelled.swap_remove(i);
                    continue;
                }
                timed!(proc.on_timer(&mut ctx!(), t.id, t.tag));
            }

            // Heartbeats: send ours (through the router, so
            // partitions gate them), check peers.
            let now = Instant::now();
            if now >= next_hb {
                for i in 0..n {
                    if i != pid.index() {
                        let _ = router.send(Route::Hb {
                            from: pid,
                            to: Pid::new(i),
                        });
                    }
                }
                next_hb = now + config.hb_period;
            }
            for i in 0..n {
                if i == pid.index() || hb_suspect[i] {
                    continue;
                }
                if now.duration_since(last_hb[i]) > config.hb_timeout {
                    hb_suspect[i] = true;
                    if !forced[i] {
                        suspected[i] = true;
                        timed!(proc.on_fd(&mut ctx!(), FdEvent::Suspect(Pid::new(i))));
                    }
                }
            }
        }

        // Wait for the next message or deadline.
        let mut deadline = next_hb;
        if let Some(t) = timers.peek() {
            deadline = deadline.min(t.fire_at);
        }
        let timeout = deadline
            .saturating_duration_since(Instant::now())
            .min(config.hb_period);
        match rx.recv_timeout(timeout.max(Duration::from_micros(200))) {
            Ok(Env::App { from, msg }) => {
                // A message that raced the crash injection through the
                // router: a paused process handles nothing.
                if !paused {
                    report.deliveries += 1;
                    timed!(proc.on_message(&mut ctx!(), from, msg));
                }
            }
            Ok(Env::Hb { from }) => {
                if !paused {
                    let i = from.index();
                    last_hb[i] = Instant::now();
                    if hb_suspect[i] {
                        hb_suspect[i] = false;
                        if !forced[i] {
                            suspected[i] = false;
                            timed!(proc.on_fd(&mut ctx!(), FdEvent::Trust(from)));
                        }
                    }
                }
            }
            Ok(Env::Cmd(cmd)) => {
                if !paused {
                    timed!(proc.on_command(&mut ctx!(), cmd));
                }
            }
            Ok(Env::Fd(ev)) => {
                if !paused {
                    // A forced edge from the driver; redundant edges
                    // (relative to the union the process sees) are
                    // dropped, as on the simulator.
                    let i = ev.subject().index();
                    match ev {
                        FdEvent::Suspect(_) => {
                            forced[i] = true;
                            if !suspected[i] {
                                suspected[i] = true;
                                timed!(proc.on_fd(&mut ctx!(), ev));
                            }
                        }
                        FdEvent::Trust(_) => {
                            forced[i] = false;
                            if suspected[i] && !hb_suspect[i] {
                                suspected[i] = false;
                                timed!(proc.on_fd(&mut ctx!(), ev));
                            }
                        }
                    }
                }
            }
            Ok(Env::Crash) => {
                paused = true;
                local.clear();
            }
            Ok(Env::Recover) => {
                if paused {
                    paused = false;
                    // Timers due while we were down did not fire.
                    let now = Instant::now();
                    while timers.peek().is_some_and(|t| t.fire_at <= now) {
                        timers.pop();
                    }
                    // Give every peer a fresh grace period and
                    // announce our own liveness at once.
                    for t in last_hb.iter_mut() {
                        *t = now;
                    }
                    next_hb = now;
                    timed!(proc.on_recover(&mut ctx!()));
                }
            }
            Ok(Env::Stop) => return report,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "at most 64")]
    fn more_than_64_processes_are_refused_before_any_thread_starts() {
        let _ = RealRuntime::new(65, RealConfig::new(), |_| Echo);
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
        let mut rt = RealRuntime::new(3, RealConfig::new(), |_| Echo);
        rt.schedule_command(ms(20), Pid::new(1), 42);
        rt.run_until(ms(250));
        let values: Vec<u64> = rt.take_outputs().iter().map(|(_, _, v)| *v).collect();
        assert_eq!(values, vec![42, 42, 42]);
        let stats = rt.net_stats();
        assert_eq!(stats.send_calls, 1);
        assert_eq!(stats.self_deliveries, 1);
        assert_eq!(stats.deliveries, 3);
        assert_eq!(stats.wire_messages, 2, "one unicast copy per remote dest");
        assert!(stats.cpu_busy > Dur::ZERO);
    }

    #[test]
    fn heartbeat_detector_suspects_crashed_process() {
        let config =
            RealConfig::new().heartbeat(Duration::from_millis(5), Duration::from_millis(60));
        let mut rt = RealRuntime::new(3, config, |_| FdWatch);
        rt.schedule_injection(ms(50), Injection::Crash(Pid::new(2)));
        rt.run_until(ms(400));
        // Both survivors eventually suspect p3 (emitting 102).
        let out = rt.take_outputs();
        let suspecters: Vec<Pid> = out
            .iter()
            .filter(|(_, _, v)| *v == 102)
            .map(|(_, p, _)| *p)
            .collect();
        assert!(suspecters.contains(&Pid::new(0)), "{out:?}");
        assert!(suspecters.contains(&Pid::new(1)), "{out:?}");
    }

    #[test]
    fn healthy_run_has_no_suspicions() {
        let config =
            RealConfig::new().heartbeat(Duration::from_millis(5), Duration::from_millis(150));
        let mut rt = RealRuntime::new(3, config, |_| FdWatch);
        rt.run_until(ms(300));
        let out = rt.take_outputs();
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn forced_fd_edges_reach_the_process_and_clear() {
        // Scripted suspicion burst: a forced Suspect then Trust about
        // p2, delivered to p1's detector while everyone is healthy.
        let mut rt = RealRuntime::new(2, RealConfig::new(), |_| FdWatch);
        rt.schedule_injection(
            ms(40),
            Injection::Fd(Pid::new(0), FdEvent::Suspect(Pid::new(1))),
        );
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
    fn partition_gates_messages_and_heartbeats_until_heal() {
        let config =
            RealConfig::new().heartbeat(Duration::from_millis(5), Duration::from_millis(50));
        let mut rt = RealRuntime::new(3, config, |_| Echo);
        let cut = Partition::split(&[vec![Pid::new(0), Pid::new(1)], vec![Pid::new(2)]]);
        rt.schedule_injection(ms(30), Injection::Partition(cut));
        // During the cut: p1's broadcast must not reach p3.
        rt.schedule_command(ms(80), Pid::new(0), 7);
        rt.schedule_injection(ms(200), Injection::Heal);
        // After the heal: everyone gets it again.
        rt.schedule_command(ms(280), Pid::new(0), 9);
        rt.run_until(ms(450));
        let p3_values: Vec<u64> = rt
            .take_outputs()
            .iter()
            .filter(|(_, p, _)| *p == Pid::new(2))
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(
            p3_values,
            vec![9],
            "the cut must swallow 7, the heal must let 9 through"
        );
        assert!(rt.net_stats().dropped_partitioned >= 1);
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
        let mut rt = RealRuntime::new(2, RealConfig::new(), |_| Counter { count: 0 });
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
        assert!(rt.net_stats().dropped_to_crashed >= 1);
    }

    #[test]
    #[should_panic(expected = "executes its run once")]
    fn second_run_panics() {
        let mut rt = RealRuntime::new(2, RealConfig::new(), |_| Echo);
        rt.run_until(ms(30));
        rt.run_until(ms(60));
    }
}
