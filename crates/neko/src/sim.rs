//! The deterministic discrete-event simulator.

use crate::inject::Injection;
use crate::kernel::{Ev, Kernel, Schedule, SimCtx};
use crate::net::{NetParams, NetStats, NetworkModel};
use crate::process::{DestSet, FdEvent, Pid, Process};
use crate::time::Time;

/// Configures and creates a [`Sim`].
///
/// ```
/// use neko::{Ctx, NetParams, Pid, Process, SimBuilder};
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
/// let mut sim = SimBuilder::new(3).seed(7).build_with(|_| Echo);
/// sim.schedule_command(neko::Time::ZERO, Pid::new(0), 42);
/// sim.run_until(neko::Time::from_millis(10));
/// assert_eq!(sim.take_outputs().len(), 3); // all three processes saw it
/// ```
#[derive(Clone, Debug)]
pub struct SimBuilder {
    n: usize,
    params: NetParams,
    seed: u64,
    schedule: Schedule,
}

impl SimBuilder {
    /// Starts configuring a simulation of `n` processes.
    pub fn new(n: usize) -> Self {
        SimBuilder {
            n,
            params: NetParams::default(),
            seed: 0,
            schedule: Schedule::Fifo,
        }
    }

    /// Sets the network model parameters (default: the paper's 1 ms
    /// unit, λ = 1, coalescing on, shared medium).
    pub fn network(mut self, params: NetParams) -> Self {
        self.params = params;
        self
    }

    /// Selects the network topology, keeping the other network
    /// parameters. Shorthand for
    /// `network(params.with_model(model))`.
    ///
    /// ```
    /// use neko::{NetworkModel, SimBuilder};
    ///
    /// let b = SimBuilder::new(3).topology(NetworkModel::Switched);
    /// # let _ = b;
    /// ```
    pub fn topology(mut self, model: NetworkModel) -> Self {
        self.params = self.params.with_model(model);
        self
    }

    /// Sets the master seed; every stochastic stream derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the same-time tie-break policy (default:
    /// [`Schedule::Fifo`], which is bit-identical to the historical
    /// kernel). Non-default policies deterministically permute the
    /// interleavings the run explores — see [`Schedule`].
    ///
    /// ```
    /// use neko::{Schedule, SimBuilder};
    ///
    /// let b = SimBuilder::new(3).schedule(Schedule::SeededRandom(7));
    /// # let _ = b;
    /// ```
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Builds the simulator, constructing each process with `factory`.
    pub fn build_with<P: Process>(self, factory: impl FnMut(Pid) -> P) -> Sim<P> {
        let kernel = Kernel::with_schedule(self.n, self.params, self.seed, self.schedule);
        let procs = Pid::all(self.n).map(factory).collect();
        Sim {
            kernel,
            procs,
            started: false,
        }
    }
}

/// A running simulation of `n` copies of a [`Process`].
///
/// Events are processed in (time, insertion) order, so a run is a pure
/// function of the seed and the schedule — re-running with the same
/// inputs gives bit-identical results.
pub struct Sim<P: Process> {
    kernel: Kernel<P::Msg, P::Cmd, P::Out>,
    procs: Vec<P>,
    started: bool,
}

impl<P: Process> Sim<P> {
    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.kernel.now
    }

    /// The number of processes.
    pub fn n(&self) -> usize {
        self.kernel.n()
    }

    /// Network-model counters accumulated so far.
    pub fn net_stats(&self) -> NetStats {
        self.kernel.stats
    }

    /// The deepest the kernel event queue has ever been during this
    /// run — pending timers, deliveries and resource completions all
    /// count. A capacity gauge for large-n simulations.
    pub fn event_queue_peak(&self) -> u64 {
        self.kernel.queue_peak()
    }

    /// Whether `p` has crashed (at or before the current time).
    pub fn is_crashed(&self, p: Pid) -> bool {
        self.kernel.is_crashed(p)
    }

    /// The set of processes currently suspected by `p`'s failure
    /// detector.
    pub fn suspect_mask(&self, p: Pid) -> &DestSet {
        self.kernel.suspect_mask(p)
    }

    /// Read-only access to a process, for inspection in tests and
    /// examples.
    pub fn process(&self, p: Pid) -> &P {
        &self.procs[p.index()]
    }

    /// Injects a command for `to` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_command(&mut self, at: Time, to: Pid, cmd: P::Cmd) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel.schedule(at, Ev::Cmd { to, cmd });
    }

    /// Crashes `p` at time `at` (software crash: messages already
    /// handed to its CPU are still sent).
    pub fn schedule_crash(&mut self, at: Time, p: Pid) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel.schedule(at, Ev::Crash { at: p });
    }

    /// Delivers a failure-detector edge to `at_process` at time `at`.
    /// Redundant edges (suspecting an already-suspected process, …)
    /// are silently dropped.
    pub fn schedule_fd_event(&mut self, at: Time, at_process: Pid, ev: FdEvent) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel.schedule(at, Ev::Fd { at: at_process, ev });
    }

    /// Schedules one fault [`Injection`] at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_injection(&mut self, at: Time, inj: Injection) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        let ev = match inj {
            Injection::Crash(p) => Ev::Crash { at: p },
            Injection::Recover(p) => Ev::Recover { at: p },
            Injection::Fd(p, ev) => Ev::Fd { at: p, ev },
            Injection::Partition(part) => Ev::Partition { part },
            Injection::Heal => Ev::Heal,
        };
        self.kernel.schedule(at, ev);
    }

    /// Schedules a whole injection timeline (e.g. a compiled fault
    /// script), in order.
    pub fn schedule_plan(&mut self, plan: impl IntoIterator<Item = (Time, Injection)>) {
        for (at, inj) in plan {
            self.schedule_injection(at, inj);
        }
    }

    /// Runs the simulation up to and including time `until`; returns
    /// the number of events processed. The simulated clock ends at
    /// exactly `until`.
    pub fn run_until(&mut self, until: Time) -> usize {
        self.ensure_started();
        let mut processed = 0;
        while let Some(scheduled) = self.kernel.pop_due(until) {
            self.kernel.now = scheduled.at;
            self.dispatch(scheduled.ev);
            processed += 1;
        }
        self.kernel.now = until;
        processed
    }

    /// Drains the outputs emitted (via [`crate::Ctx::emit`]) since the
    /// last call.
    pub fn take_outputs(&mut self) -> Vec<(Time, Pid, P::Out)> {
        std::mem::take(&mut self.kernel.outputs)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let Sim { kernel, procs, .. } = self;
        for (i, proc) in procs.iter_mut().enumerate() {
            let mut ctx = SimCtx {
                kernel,
                pid: Pid::new(i),
            };
            proc.on_start(&mut ctx);
        }
    }

    fn dispatch(&mut self, ev: Ev<P::Msg, P::Cmd>) {
        let Sim { kernel, procs, .. } = self;
        match ev {
            Ev::Cmd { to, cmd } => {
                if !kernel.is_crashed(to) {
                    let mut ctx = SimCtx { kernel, pid: to };
                    procs[to.index()].on_command(&mut ctx, cmd);
                }
            }
            Ev::Deliver { to, from, msg } => {
                if kernel.is_crashed(to) {
                    kernel.stats.dropped_to_crashed += 1;
                } else {
                    kernel.stats.deliveries += 1;
                    // The handler takes the message by value: a unicast
                    // payload moves straight through, a multicast copy
                    // moves out of its `Arc` for free unless siblings
                    // are still in flight (then it clones).
                    let msg = msg.into_inner();
                    let mut ctx = SimCtx { kernel, pid: to };
                    procs[to.index()].on_message(&mut ctx, from, msg);
                }
            }
            Ev::Fd { at, ev } => {
                if !kernel.is_crashed(at) && kernel.fd_apply(at, ev) {
                    let mut ctx = SimCtx { kernel, pid: at };
                    procs[at.index()].on_fd(&mut ctx, ev);
                }
            }
            Ev::Timer { at, id, tag } => {
                // The tombstone of a cancelled timer goes when the
                // timer pops, also at a crashed process.
                if kernel.timer_fires(id) && !kernel.is_crashed(at) {
                    let mut ctx = SimCtx { kernel, pid: at };
                    procs[at.index()].on_timer(&mut ctx, id, tag);
                }
            }
            Ev::Crash { at } => kernel.crash(at),
            Ev::Recover { at } => {
                if kernel.recover(at) {
                    let mut ctx = SimCtx { kernel, pid: at };
                    procs[at.index()].on_recover(&mut ctx);
                }
            }
            Ev::Partition { part } => kernel.set_partition(Some(part)),
            Ev::Heal => kernel.set_partition(None),
            Ev::CpuDone { at } => kernel.cpu_done(at),
            Ev::NetDone { link } => kernel.net_done(link),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Ctx, Message, TimerId};
    use crate::time::Dur;

    /// Test process: commands trigger sends; every received message is
    /// emitted as `(from, value)` encoded into a u64.
    struct Recorder {
        broadcast: bool,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct TestMsg {
        vals: Vec<u64>,
        mergeable: bool,
    }

    impl Message for TestMsg {
        fn try_merge(&mut self, other: &Self) -> bool {
            if self.mergeable && other.mergeable {
                self.vals.extend_from_slice(&other.vals);
                true
            } else {
                false
            }
        }
    }

    impl Process for Recorder {
        type Msg = TestMsg;
        type Cmd = (Option<Pid>, u64, bool); // (dest or broadcast, value, mergeable)
        type Out = (Pid, u64);

        fn on_command(&mut self, ctx: &mut dyn Ctx<TestMsg, (Pid, u64)>, cmd: Self::Cmd) {
            let msg = TestMsg {
                vals: vec![cmd.1],
                mergeable: cmd.2,
            };
            match cmd.0 {
                Some(to) => ctx.send(to, msg),
                None if self.broadcast => ctx.broadcast(msg),
                None => {
                    let others: Vec<Pid> = Pid::all(ctx.n()).filter(|&p| p != ctx.pid()).collect();
                    ctx.multicast(&others, msg);
                }
            }
        }

        fn on_message(&mut self, ctx: &mut dyn Ctx<TestMsg, (Pid, u64)>, from: Pid, msg: TestMsg) {
            for v in msg.vals {
                ctx.emit((from, v));
            }
        }
    }

    fn sim(n: usize) -> Sim<Recorder> {
        SimBuilder::new(n)
            .seed(1)
            .build_with(|_| Recorder { broadcast: false })
    }

    #[test]
    fn unicast_latency_is_two_lambda_plus_one() {
        // CPU(1ms) + net(1ms) + CPU(1ms) = 3 ms.
        let mut s = sim(2);
        s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), 7, false));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        assert_eq!(
            out,
            vec![(Time::from_millis(3), Pid::new(1), (Pid::new(0), 7))]
        );
    }

    #[test]
    fn queued_messages_pipeline_through_resources() {
        // Two back-to-back unicasts: second leaves CPU at 2ms, network
        // 2-3ms, remote CPU 3-4ms.
        let mut s = sim(2);
        s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), 1, false));
        s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), 2, false));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        assert_eq!(out[0].0, Time::from_millis(3));
        assert_eq!(out[1].0, Time::from_millis(4));
    }

    #[test]
    fn multicast_occupies_network_once() {
        let mut s = sim(3);
        s.schedule_command(Time::ZERO, Pid::new(0), (None, 9, false));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        // Both remote destinations get it at 3 ms.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(t, _, _)| *t == Time::from_millis(3)));
        assert_eq!(s.net_stats().wire_messages, 1);
    }

    #[test]
    fn broadcast_self_copy_is_free_and_instant() {
        let mut s = SimBuilder::new(3)
            .seed(1)
            .build_with(|_| Recorder { broadcast: true });
        s.schedule_command(Time::ZERO, Pid::new(0), (None, 5, false));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], (Time::ZERO, Pid::new(0), (Pid::new(0), 5)));
        assert_eq!(s.net_stats().self_deliveries, 1);
        assert_eq!(s.net_stats().wire_messages, 1);
    }

    #[test]
    fn coalescing_merges_queued_sends_only() {
        // Three mergeable sends: the first starts CPU service
        // immediately, the second waits in the queue, the third merges
        // into the second.
        let mut s = sim(2);
        for v in 1..=3 {
            s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), v, true));
        }
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        let values: Vec<u64> = out.iter().map(|(_, _, (_, v))| *v).collect();
        assert_eq!(values, vec![1, 2, 3]);
        assert_eq!(s.net_stats().merges, 1);
        assert_eq!(s.net_stats().wire_messages, 2);
        // First arrives at 3ms; merged pair arrives together at 4ms.
        assert_eq!(out[0].0, Time::from_millis(3));
        assert_eq!(out[1].0, Time::from_millis(4));
        assert_eq!(out[2].0, Time::from_millis(4));
    }

    #[test]
    fn coalescing_can_be_disabled() {
        let mut s = SimBuilder::new(2)
            .network(NetParams::default().with_coalescing(false))
            .seed(1)
            .build_with(|_| Recorder { broadcast: false });
        for v in 1..=3 {
            s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), v, true));
        }
        s.run_until(Time::from_secs(1));
        assert_eq!(s.net_stats().merges, 0);
        assert_eq!(s.net_stats().wire_messages, 3);
    }

    #[test]
    fn software_crash_still_sends_queued_messages() {
        // p0 sends at t=0 and crashes at 0.5 ms; the message is already
        // on its CPU, so it is still delivered.
        let mut s = sim(2);
        s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), 7, false));
        s.schedule_crash(Time::from_micros(500), Pid::new(0));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Time::from_millis(3));
    }

    #[test]
    fn crashed_destination_receives_nothing() {
        let mut s = sim(2);
        s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), 7, false));
        s.schedule_crash(Time::from_micros(2_500), Pid::new(1));
        s.run_until(Time::from_secs(1));
        assert!(s.take_outputs().is_empty());
        assert_eq!(s.net_stats().dropped_to_crashed, 1);
    }

    #[test]
    fn crashed_process_ignores_commands_and_fd_events() {
        let mut s = sim(2);
        s.schedule_crash(Time::ZERO, Pid::new(0));
        s.schedule_command(
            Time::from_millis(1),
            Pid::new(0),
            (Some(Pid::new(1)), 7, false),
        );
        s.schedule_fd_event(
            Time::from_millis(1),
            Pid::new(0),
            FdEvent::Suspect(Pid::new(1)),
        );
        s.run_until(Time::from_secs(1));
        assert!(s.take_outputs().is_empty());
        assert!(s.suspect_mask(Pid::new(0)).is_empty());
        assert!(s.is_crashed(Pid::new(0)));
    }

    #[test]
    fn fd_events_update_suspect_mask() {
        let mut s = sim(3);
        s.schedule_fd_event(
            Time::from_millis(1),
            Pid::new(0),
            FdEvent::Suspect(Pid::new(2)),
        );
        s.run_until(Time::from_millis(2));
        assert_eq!(*s.suspect_mask(Pid::new(0)), DestSet::single(Pid::new(2)));
        s.schedule_fd_event(
            Time::from_millis(3),
            Pid::new(0),
            FdEvent::Trust(Pid::new(2)),
        );
        s.run_until(Time::from_millis(4));
        assert!(s.suspect_mask(Pid::new(0)).is_empty());
    }

    #[test]
    fn recovered_process_receives_again() {
        use crate::inject::Injection;
        let mut s = sim(2);
        s.schedule_crash(Time::from_millis(1), Pid::new(1));
        // Arrives at 5 ms while p2 is down: lost.
        s.schedule_command(
            Time::from_millis(2),
            Pid::new(0),
            (Some(Pid::new(1)), 1, false),
        );
        s.schedule_injection(Time::from_millis(10), Injection::Recover(Pid::new(1)));
        s.schedule_command(
            Time::from_millis(10),
            Pid::new(0),
            (Some(Pid::new(1)), 2, false),
        );
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].2, (Pid::new(0), 2));
        assert_eq!(out[0].0, Time::from_millis(13));
        assert!(!s.is_crashed(Pid::new(1)));
        assert_eq!(s.net_stats().dropped_to_crashed, 1);
    }

    #[test]
    fn partition_drops_crossing_messages_until_heal() {
        use crate::inject::{Injection, Partition};
        let mut s = sim(3);
        let part = Partition::split(&[vec![Pid::new(0)], vec![Pid::new(1), Pid::new(2)]]);
        s.schedule_injection(Time::ZERO, Injection::Partition(part));
        // p1's multicast crosses the cut: both copies dropped.
        s.schedule_command(Time::from_millis(1), Pid::new(0), (None, 7, false));
        // p2 → p3 stays inside a group: delivered.
        s.schedule_command(
            Time::from_millis(1),
            Pid::new(1),
            (Some(Pid::new(2)), 8, false),
        );
        s.schedule_injection(Time::from_millis(20), Injection::Heal);
        s.schedule_command(Time::from_millis(20), Pid::new(0), (None, 9, false));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        let values: Vec<u64> = out.iter().map(|(_, _, (_, v))| *v).collect();
        assert_eq!(values, vec![8, 9, 9]);
        assert_eq!(out[0].0, Time::from_millis(4));
        assert!(out[1..].iter().all(|(t, _, _)| *t == Time::from_millis(23)));
        assert_eq!(s.net_stats().dropped_partitioned, 2);
    }

    #[test]
    fn clock_advances_to_run_horizon() {
        let mut s = sim(2);
        s.run_until(Time::from_millis(500));
        assert_eq!(s.now(), Time::from_millis(500));
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed: u64| {
            let mut s = SimBuilder::new(3)
                .seed(seed)
                .build_with(|_| Recorder { broadcast: true });
            for i in 0..10u64 {
                s.schedule_command(
                    Time::from_micros(i * 137),
                    Pid::new((i % 3) as usize),
                    (None, i, true),
                );
            }
            s.run_until(Time::from_secs(1));
            s.take_outputs()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerProc {
            armed: Option<TimerId>,
        }
        impl Process for TimerProc {
            type Msg = u64;
            type Cmd = bool; // true = arm, false = cancel
            type Out = u64;
            fn on_command(&mut self, ctx: &mut dyn Ctx<u64, u64>, arm: bool) {
                if arm {
                    self.armed = Some(ctx.set_timer(Dur::from_millis(5), 77));
                } else if let Some(id) = self.armed.take() {
                    ctx.cancel_timer(id);
                }
            }
            fn on_message(&mut self, _ctx: &mut dyn Ctx<u64, u64>, _from: Pid, _msg: u64) {}
            fn on_timer(&mut self, ctx: &mut dyn Ctx<u64, u64>, _id: TimerId, tag: u64) {
                ctx.emit(tag);
            }
        }
        let mut s = SimBuilder::new(1).build_with(|_| TimerProc { armed: None });
        s.schedule_command(Time::ZERO, Pid::new(0), true);
        s.run_until(Time::from_millis(10));
        assert_eq!(
            s.take_outputs(),
            vec![(Time::from_millis(5), Pid::new(0), 77)]
        );

        // Arm then cancel before expiry: nothing fires.
        s.schedule_command(Time::from_millis(11), Pid::new(0), true);
        s.schedule_command(Time::from_millis(12), Pid::new(0), false);
        s.run_until(Time::from_millis(30));
        assert!(s.take_outputs().is_empty());
    }

    #[test]
    fn a_cancelled_timer_popping_at_a_crashed_process_leaves_no_tombstone() {
        struct ArmAndCancel;
        impl Process for ArmAndCancel {
            type Msg = u64;
            type Cmd = ();
            type Out = u64;
            fn on_command(&mut self, ctx: &mut dyn Ctx<u64, u64>, _cmd: ()) {
                let id = ctx.set_timer(Dur::from_millis(5), 1);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _ctx: &mut dyn Ctx<u64, u64>, _from: Pid, _msg: u64) {}
            fn on_timer(&mut self, ctx: &mut dyn Ctx<u64, u64>, _id: TimerId, tag: u64) {
                ctx.emit(tag);
            }
        }
        use crate::inject::Injection;
        let mut s = SimBuilder::new(1).build_with(|_| ArmAndCancel);
        let p = Pid::new(0);
        s.schedule_command(Time::ZERO, p, ());
        s.schedule_injection(Time::from_millis(2), Injection::Crash(p));
        s.schedule_injection(Time::from_millis(10), Injection::Recover(p));
        s.run_until(Time::from_millis(20));
        assert!(s.take_outputs().is_empty());
        assert!(s.kernel.cancelled_timers.is_empty());
    }

    #[test]
    fn switched_overlaps_disjoint_unicasts_that_shared_medium_serializes() {
        // p1→p3 and p2→p4 at t=0. On the shared medium the two
        // transfers serialize on the single wire (arrivals 3 ms and
        // 4 ms, see `network_is_a_shared_bottleneck`); on a switch
        // they ride disjoint links and arrive together.
        let run = |model: NetworkModel| {
            let mut s = SimBuilder::new(4)
                .topology(model)
                .seed(1)
                .build_with(|_| Recorder { broadcast: false });
            s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(2)), 1, false));
            s.schedule_command(Time::ZERO, Pid::new(1), (Some(Pid::new(3)), 2, false));
            s.run_until(Time::from_secs(1));
            let arrivals: Vec<Time> = s.take_outputs().iter().map(|(t, _, _)| *t).collect();
            (arrivals, s.net_stats())
        };
        let (shared, shared_stats) = run(NetworkModel::SharedMedium);
        assert_eq!(shared, vec![Time::from_millis(3), Time::from_millis(4)]);
        assert_eq!(shared_stats.links_used, 1);
        assert_eq!(shared_stats.queue_highwater, 2);

        let (switched, switched_stats) = run(NetworkModel::Switched);
        assert_eq!(switched, vec![Time::from_millis(3), Time::from_millis(3)]);
        assert_eq!(switched_stats.links_used, 2);
        assert_eq!(switched_stats.queue_highwater, 1);
        assert_eq!(switched_stats.net_busy, Dur::from_millis(2));
    }

    #[test]
    fn switched_multicast_pays_per_destination() {
        let mut s = SimBuilder::new(3)
            .topology(NetworkModel::Switched)
            .seed(1)
            .build_with(|_| Recorder { broadcast: false });
        s.schedule_command(Time::ZERO, Pid::new(0), (None, 9, false));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        // Copies transmit in parallel on the two links, so both still
        // arrive at 3 ms — but the wire carried two messages (the
        // shared medium carries one; see `multicast_occupies_network_once`).
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(t, _, _)| *t == Time::from_millis(3)));
        assert_eq!(s.net_stats().wire_messages, 2);
        assert_eq!(s.net_stats().links_used, 2);
    }

    #[test]
    fn wan_applies_constant_pair_latency_without_contention() {
        let wan = NetworkModel::Wan(crate::net::WanParams::new(
            Dur::from_millis(20),
            Dur::from_millis(20),
        ));
        let mut s = SimBuilder::new(2)
            .topology(wan)
            .seed(1)
            .build_with(|_| Recorder { broadcast: false });
        // Two back-to-back unicasts: the sender CPU serializes them
        // (1 ms each) but the wire does not, so arrivals are 22 ms and
        // 23 ms — spaced by CPU time only, not by wire occupancy.
        s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), 1, false));
        s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(1)), 2, false));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        assert_eq!(out[0].0, Time::from_millis(22));
        assert_eq!(out[1].0, Time::from_millis(23));
        assert_eq!(s.net_stats().net_busy, Dur::ZERO);
        assert_eq!(s.net_stats().wire_messages, 2);
    }

    #[test]
    fn same_seed_same_run_under_every_model() {
        let models = [
            NetworkModel::SharedMedium,
            NetworkModel::Switched,
            NetworkModel::Wan(crate::net::WanParams::default()),
        ];
        for model in models {
            let run = |seed: u64| {
                let mut s = SimBuilder::new(3)
                    .topology(model)
                    .seed(seed)
                    .build_with(|_| Recorder { broadcast: true });
                for i in 0..10u64 {
                    s.schedule_command(
                        Time::from_micros(i * 137),
                        Pid::new((i % 3) as usize),
                        (None, i, true),
                    );
                }
                s.run_until(Time::from_secs(1));
                (s.take_outputs(), s.net_stats())
            };
            assert_eq!(run(42), run(42), "{model:?} must be deterministic");
        }
    }

    #[test]
    fn non_fifo_schedules_stay_deterministic_and_preserve_content() {
        // A seeded-random (or PCT) schedule may permute same-time
        // ties, but it must stay a pure function of its seed, and it
        // never loses or invents events — the multiset of outputs
        // matches the FIFO run.
        let run = |schedule: Schedule| {
            let mut s = SimBuilder::new(3)
                .seed(1)
                .schedule(schedule)
                .build_with(|_| Recorder { broadcast: true });
            for i in 0..20u64 {
                s.schedule_command(
                    Time::from_micros((i / 4) * 250),
                    Pid::new((i % 3) as usize),
                    (None, i, false),
                );
            }
            s.run_until(Time::from_secs(1));
            s.take_outputs()
        };
        let fifo = run(Schedule::Fifo);
        for schedule in [
            Schedule::SeededRandom(9),
            Schedule::Pct {
                seed: 9,
                change_period: 5,
            },
        ] {
            let a = run(schedule);
            let b = run(schedule);
            assert_eq!(a, b, "{schedule:?} must be deterministic");
            // Reordering a tie reshuffles the wire, so downstream
            // *times* legitimately move — but who receives what must
            // be exactly the FIFO multiset.
            let received = |v: &[(Time, Pid, (Pid, u64))]| {
                let mut r: Vec<(Pid, (Pid, u64))> = v.iter().map(|(_, p, m)| (*p, *m)).collect();
                r.sort();
                r
            };
            assert_eq!(
                received(&a),
                received(&fifo),
                "{schedule:?} must only reorder, never drop or invent"
            );
        }
    }

    #[test]
    fn shared_medium_stats_regression() {
        // Golden counters for the pre-refactor shared-medium engine:
        // the pluggable topology layer must leave them untouched.
        let mut s = sim(3);
        s.schedule_command(Time::ZERO, Pid::new(0), (None, 9, false));
        s.schedule_command(Time::ZERO, Pid::new(1), (Some(Pid::new(2)), 1, false));
        s.run_until(Time::from_secs(1));
        let stats = s.net_stats();
        assert_eq!(stats.send_calls, 2);
        assert_eq!(stats.wire_messages, 2);
        assert_eq!(stats.deliveries, 3);
        assert_eq!(stats.self_deliveries, 0);
        assert_eq!(stats.net_busy, Dur::from_millis(2));
        // 2 emissions + 3 receptions, 1 ms each.
        assert_eq!(stats.cpu_busy, Dur::from_millis(5));
        assert_eq!(stats.links_used, 1);
    }

    #[test]
    fn network_is_a_shared_bottleneck() {
        // Two different senders at t=0: their messages serialize on the
        // shared network even though their CPUs work in parallel.
        let mut s = sim(3);
        s.schedule_command(Time::ZERO, Pid::new(0), (Some(Pid::new(2)), 1, false));
        s.schedule_command(Time::ZERO, Pid::new(1), (Some(Pid::new(2)), 2, false));
        s.run_until(Time::from_secs(1));
        let out = s.take_outputs();
        // First uses net 1-2ms, arrives 3ms (p2 CPU 2-3). Second waits
        // for the network until 2ms, transfers 2-3, then queues behind
        // the first on p2's CPU: 3-4ms, arrives 4ms.
        assert_eq!(out[0].0, Time::from_millis(3));
        assert_eq!(out[1].0, Time::from_millis(4));
    }
}
