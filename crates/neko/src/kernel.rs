//! The discrete-event kernel: event queue, resource scheduling,
//! crash semantics and failure-detector masks.
//!
//! The kernel holds everything *except* the user processes, so that a
//! process handler can receive `&mut Kernel` (wrapped in a context)
//! while the simulator holds `&mut` to the process itself.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::RngCore;

use crate::inject::Partition;
use crate::net::{
    build_topology, Cpu, CpuJob, LinkId, NetFx, NetParams, NetStats, Payload, SendJob, Topology,
};
use crate::process::{Ctx, DestSet, FdEvent, Message, Pid, TimerId, MAX_PROCESSES};
use crate::rng::stream_rng;
use crate::time::{Dur, Time};
use crate::wheel::TimingWheel;

/// How the kernel orders events that are due at the *same* instant.
///
/// The event queue always processes strictly-earlier events first;
/// a `Schedule` only decides same-time ties. The default, FIFO
/// insertion order, is what the golden tests pin — every other policy
/// exists to *explore* the interleavings the model permits but the
/// default never exercises (see `study::explore`). All policies are
/// deterministic: the same policy (including its seed) on the same
/// run yields bit-identical executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Insertion order (the historical kernel behaviour,
    /// bit-identical to runs predating this knob).
    #[default]
    Fifo,
    /// Same-time ties — simultaneous message deliveries, a timer
    /// racing a delivery, a crash racing a command — are permuted
    /// uniformly by a dedicated RNG seeded from the given value
    /// (independent of the simulation's master seed).
    SeededRandom(u64),
    /// PCT-style priority scheduling (after Burckhardt et al., *A
    /// Randomized Scheduler with Probabilistic Guarantees of Finding
    /// Bugs*): ties are permuted like [`Schedule::SeededRandom`], but
    /// roughly one event in `change_period` is *demoted* behind every
    /// same-instant peer — a priority-change point that biases the
    /// search toward rare "this one arrived last" interleavings that
    /// uniform permutation hits only with vanishing probability.
    Pct {
        /// Seed of the policy's dedicated RNG.
        seed: u64,
        /// Mean number of events between two priority-change points
        /// (must be non-zero).
        change_period: u32,
    },
}

/// The running state behind a [`Schedule`]: draws one tie-break key
/// per scheduled event.
enum TieBreaker {
    Fifo,
    SeededRandom(SmallRng),
    Pct { rng: SmallRng, change_period: u32 },
}

impl TieBreaker {
    fn new(schedule: Schedule) -> Self {
        match schedule {
            Schedule::Fifo => TieBreaker::Fifo,
            Schedule::SeededRandom(seed) => TieBreaker::SeededRandom(stream_rng(seed, 0x5C4E_D111)),
            Schedule::Pct {
                seed,
                change_period,
            } => {
                assert!(change_period > 0, "change_period must be non-zero");
                TieBreaker::Pct {
                    rng: stream_rng(seed, 0x5C4E_D222),
                    change_period,
                }
            }
        }
    }

    /// The tie key of the next scheduled event. Same-time events sort
    /// by `(tie, insertion order)`, so `0` for every event reproduces
    /// FIFO exactly.
    fn next_tie(&mut self) -> u64 {
        match self {
            TieBreaker::Fifo => 0,
            TieBreaker::SeededRandom(rng) => rng.next_u64(),
            TieBreaker::Pct { rng, change_period } => {
                let demote = rng.next_u64() % u64::from(*change_period) == 0;
                if demote {
                    u64::MAX
                } else {
                    // Keep normal draws strictly below the demoted
                    // class so a demoted event sorts behind *every*
                    // same-instant peer.
                    rng.next_u64() >> 1
                }
            }
        }
    }
}

/// Events understood by the kernel.
#[derive(Debug)]
pub(crate) enum Ev<M, C> {
    /// Driver-injected command for a process.
    Cmd { to: Pid, cmd: C },
    /// Message ready for the application layer of `to`. A multicast
    /// payload is shared with any sibling copies still in flight; the
    /// dispatcher unwraps it (or clones, if siblings remain) at the
    /// handler boundary. A unicast payload arrives owned and moves
    /// straight through.
    Deliver { to: Pid, from: Pid, msg: Payload<M> },
    /// Failure-detector edge at process `at`.
    Fd { at: Pid, ev: FdEvent },
    /// Timer armed by `at`.
    Timer { at: Pid, id: TimerId, tag: u64 },
    /// Process `at` crashes (software crash).
    Crash { at: Pid },
    /// Process `at` resumes with its pre-crash state.
    Recover { at: Pid },
    /// The network splits into the given groups.
    Partition { part: Partition },
    /// The network heals.
    Heal,
    /// The CPU of host `at` finished its current job.
    CpuDone { at: Pid },
    /// The wire resource `link` finished transmitting its current
    /// message (the shared medium, one switch link, one WAN pair —
    /// whatever the topology model maps the id to).
    NetDone { link: LinkId },
}

/// A popped event with its full ordering key. The timing wheel pops
/// the minimum `(at, tie, seq)`: same-time ties broken by the
/// schedule policy's tie key, then by insertion order — identical to
/// the binary-heap kernel this engine used to run on.
pub(crate) struct Scheduled<M, C> {
    pub(crate) at: Time,
    /// Insertion sequence number (tests fingerprint FIFO rank with it;
    /// the tie-break itself already happened inside the wheel).
    #[cfg_attr(not(test), allow(dead_code, reason = "only the tests read it"))]
    pub(crate) seq: u64,
    pub(crate) ev: Ev<M, C>,
}

/// Everything a running simulation owns apart from the processes.
pub(crate) struct Kernel<M: Message, C, O> {
    pub(crate) now: Time,
    seq: u64,
    queue: TimingWheel<Ev<M, C>>,
    n: usize,
    params: NetParams,
    cpus: Vec<Cpu<M>>,
    net: Box<dyn Topology<M>>,
    /// Scratch effect buffers, drained after every topology call.
    fx: NetFx<M>,
    pub(crate) crashed: Vec<Option<Time>>,
    partition: Option<Partition>,
    suspects: Vec<DestSet>,
    cancelled_timers: BTreeSet<u64>,
    next_timer: u64,
    rngs: Vec<SmallRng>,
    tie_breaker: TieBreaker,
    pub(crate) outputs: Vec<(Time, Pid, O)>,
    pub(crate) stats: NetStats,
}

impl<M: Message, C, O> Kernel<M, C, O> {
    /// A FIFO-scheduled kernel (test convenience; the builder always
    /// goes through [`Kernel::with_schedule`]).
    #[cfg(test)]
    pub(crate) fn new(n: usize, params: NetParams, seed: u64) -> Self {
        Self::with_schedule(n, params, seed, Schedule::Fifo)
    }

    pub(crate) fn with_schedule(
        n: usize,
        params: NetParams,
        seed: u64,
        schedule: Schedule,
    ) -> Self {
        assert!(
            (1..=MAX_PROCESSES).contains(&n),
            "n must be in 1..={MAX_PROCESSES}"
        );
        Kernel {
            now: Time::ZERO,
            seq: 0,
            queue: TimingWheel::new(),
            n,
            params,
            cpus: (0..n).map(|_| Cpu::new()).collect(),
            net: build_topology(&params, n, seed),
            fx: NetFx::default(),
            crashed: vec![None; n],
            partition: None,
            suspects: vec![DestSet::new(); n],
            cancelled_timers: BTreeSet::new(),
            next_timer: 0,
            rngs: (0..n)
                .map(|i| stream_rng(seed, 0x5EED_0000 + i as u64))
                .collect(),
            tie_breaker: TieBreaker::new(schedule),
            outputs: Vec::new(),
            stats: NetStats::default(),
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn schedule(&mut self, at: Time, ev: Ev<M, C>) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        let tie = self.tie_breaker.next_tie();
        self.queue.insert(at.as_micros(), tie, self.seq, ev);
    }

    /// The deepest the event queue has ever been.
    pub(crate) fn queue_peak(&self) -> u64 {
        self.queue.peak() as u64
    }

    /// Pops the earliest event due at or before `until`, or `None`
    /// when the horizon is reached (the timing wheel's cursor never
    /// overtakes `until`, so the caller may keep scheduling there).
    pub(crate) fn pop_due(&mut self, until: Time) -> Option<Scheduled<M, C>> {
        self.queue.pop_due(until.as_micros()).map(|e| Scheduled {
            at: Time::from_micros(e.at),
            seq: e.seq,
            ev: e.item,
        })
    }

    pub(crate) fn is_crashed(&self, p: Pid) -> bool {
        self.crashed[p.index()].is_some()
    }

    pub(crate) fn suspect_mask(&self, p: Pid) -> &DestSet {
        &self.suspects[p.index()]
    }

    /// Applies an FD edge to the suspect mask of `at`; returns `false`
    /// if the edge is redundant (already in that state) and should not
    /// be delivered to the process.
    pub(crate) fn fd_apply(&mut self, at: Pid, ev: FdEvent) -> bool {
        let mask = &mut self.suspects[at.index()];
        let subject = ev.subject();
        match ev {
            FdEvent::Suspect(_) => {
                if mask.contains(subject) {
                    return false;
                }
                mask.insert(subject);
            }
            FdEvent::Trust(_) => {
                if !mask.contains(subject) {
                    return false;
                }
                mask.remove(subject);
            }
        }
        true
    }

    /// Hands a message to the sending host's CPU, possibly coalescing
    /// it with the message at the tail of the send queue.
    ///
    /// A multicast payload arrives interned: one [`Arc`] is shared by
    /// every wire copy and delivery of the send, so fan-out never
    /// clones the message itself. A unicast payload arrives owned and
    /// never touches the allocator. Coalescing goes through
    /// [`Payload::make_mut`]: if the queued tail is still shared (e.g.
    /// with a pending local self-delivery of the same multicast), the
    /// merge copies it on write — exactly the independent-copies
    /// semantics the engine had when every destination cloned eagerly.
    pub(crate) fn send_from(&mut self, from: Pid, dests: DestSet, msg: Payload<M>) {
        if dests.is_empty() {
            return;
        }
        let cpu = &mut self.cpus[from.index()];
        if self.params.coalescing() {
            if let Some(CpuJob::Send(tail)) = cpu.queue.back_mut() {
                if tail.dests == dests && tail.msg.make_mut().try_merge(msg.get()) {
                    self.stats.merges += 1;
                    return;
                }
            }
        }
        cpu.queue
            .push_back(CpuJob::Send(SendJob { from, dests, msg }));
        if !cpu.busy() {
            self.start_cpu(from);
        }
    }

    fn start_cpu(&mut self, host: Pid) {
        let cpu = &mut self.cpus[host.index()];
        debug_assert!(!cpu.busy());
        if let Some(job) = cpu.queue.pop_front() {
            cpu.in_service = Some(job);
            let done_at = self.now + self.params.cpu_delay();
            self.schedule(done_at, Ev::CpuDone { at: host });
        }
    }

    pub(crate) fn cpu_done(&mut self, host: Pid) {
        self.stats.cpu_busy += self.params.cpu_delay();
        let job = self.cpus[host.index()]
            .in_service
            .take()
            .expect("CpuDone for an idle CPU");
        match job {
            CpuJob::Send(send) => self.net_enqueue(send),
            CpuJob::Recv { from, msg } => {
                // Software-crash semantics: reception processing still
                // happens, but nothing reaches a crashed process.
                if self.is_crashed(host) {
                    self.stats.dropped_to_crashed += 1;
                } else {
                    self.schedule(
                        self.now,
                        Ev::Deliver {
                            to: host,
                            from,
                            msg,
                        },
                    );
                }
            }
        }
        if !self.cpus[host.index()].queue.is_empty() {
            self.start_cpu(host);
        }
    }

    fn net_enqueue(&mut self, mut job: SendJob<M>) {
        // A partition drops crossing messages at the moment they leave
        // the sending CPU; messages already on the wire still arrive.
        if let Some(part) = &self.partition {
            let mut reachable = DestSet::default();
            for dest in job.dests.iter() {
                if part.allows(job.from, dest) {
                    reachable.insert(dest);
                } else {
                    self.stats.dropped_partitioned += 1;
                }
            }
            if reachable.is_empty() {
                return;
            }
            job.dests = reachable;
        }
        let mut fx = std::mem::take(&mut self.fx);
        self.net.submit(self.now, job, &mut fx, &mut self.stats);
        self.apply_net_fx(&mut fx);
        self.fx = fx;
    }

    pub(crate) fn net_done(&mut self, link: LinkId) {
        let mut fx = std::mem::take(&mut self.fx);
        self.net.complete(self.now, link, &mut fx, &mut self.stats);
        self.apply_net_fx(&mut fx);
        self.fx = fx;
    }

    /// Applies topology effects in order: deliveries reach destination
    /// CPUs first (matching the event order of the original
    /// single-medium kernel), then wire completions are scheduled.
    fn apply_net_fx(&mut self, fx: &mut NetFx<M>) {
        for (dest, from, msg) in fx.deliver.drain(..) {
            let cpu = &mut self.cpus[dest.index()];
            cpu.queue.push_back(CpuJob::Recv { from, msg });
            if !cpu.busy() {
                self.start_cpu(dest);
            }
        }
        for (at, link) in fx.schedule.drain(..) {
            self.schedule(at, Ev::NetDone { link });
        }
    }

    pub(crate) fn crash(&mut self, p: Pid) {
        if self.crashed[p.index()].is_none() {
            self.crashed[p.index()] = Some(self.now);
        }
    }

    /// Crash-recovery: `p` resumes with its pre-crash state (perfect
    /// stable storage). Returns whether `p` was actually down (a
    /// recovery of a live process is a no-op).
    pub(crate) fn recover(&mut self, p: Pid) -> bool {
        self.crashed[p.index()].take().is_some()
    }

    pub(crate) fn set_partition(&mut self, part: Option<Partition>) {
        self.partition = part;
    }

    pub(crate) fn timer_fires(&mut self, id: TimerId) -> bool {
        self.cancelled_timers.is_empty() || !self.cancelled_timers.remove(&id.0)
    }
}

/// The [`Ctx`] implementation backed by the simulation kernel.
pub(crate) struct SimCtx<'a, M: Message, C, O> {
    pub(crate) kernel: &'a mut Kernel<M, C, O>,
    pub(crate) pid: Pid,
}

impl<M: Message, C, O> Ctx<M, O> for SimCtx<'_, M, C, O> {
    fn now(&self) -> Time {
        self.kernel.now
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn n(&self) -> usize {
        self.kernel.n
    }

    fn send(&mut self, to: Pid, msg: M) {
        self.kernel.stats.send_calls += 1;
        // A unicast never fans out, so the payload stays owned: no
        // Arc interning, every queue hop moves the message by value.
        if to == self.pid {
            self.kernel.stats.self_deliveries += 1;
            let now = self.kernel.now;
            self.kernel.schedule(
                now,
                Ev::Deliver {
                    to,
                    from: self.pid,
                    msg: Payload::Own(msg),
                },
            );
        } else {
            self.kernel
                .send_from(self.pid, DestSet::single(to), Payload::Own(msg));
        }
    }

    fn multicast(&mut self, dests: &[Pid], msg: M) {
        self.kernel.stats.send_calls += 1;
        let mut remote = DestSet::default();
        let mut to_self = false;
        for &d in dests {
            if d == self.pid {
                to_self = true;
            } else {
                remote.insert(d);
            }
        }
        // Intern only when copies actually share the payload: a
        // self-copy plus remote copies, or a true multi-destination
        // fan-out. A degenerate single-copy multicast rides owned,
        // like a unicast.
        let msg = if to_self && !remote.is_empty() {
            let msg = Arc::new(msg);
            self.kernel.stats.self_deliveries += 1;
            let now = self.kernel.now;
            self.kernel.schedule(
                now,
                Ev::Deliver {
                    to: self.pid,
                    from: self.pid,
                    msg: Payload::Shared(Arc::clone(&msg)),
                },
            );
            Payload::Shared(msg)
        } else if to_self {
            self.kernel.stats.self_deliveries += 1;
            let now = self.kernel.now;
            self.kernel.schedule(
                now,
                Ev::Deliver {
                    to: self.pid,
                    from: self.pid,
                    msg: Payload::Own(msg),
                },
            );
            return;
        } else if remote.as_single().is_some() {
            Payload::Own(msg)
        } else {
            Payload::Shared(Arc::new(msg))
        };
        self.kernel.send_from(self.pid, remote, msg);
    }

    fn broadcast(&mut self, msg: M) {
        let all: Vec<Pid> = Pid::all(self.kernel.n).collect();
        self.multicast(&all, msg);
    }

    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
        self.kernel.next_timer += 1;
        let id = TimerId(self.kernel.next_timer);
        let at = self.kernel.now + after;
        self.kernel.schedule(
            at,
            Ev::Timer {
                at: self.pid,
                id,
                tag,
            },
        );
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.kernel.cancelled_timers.insert(id.0);
    }

    fn emit(&mut self, out: O) {
        let now = self.kernel.now;
        self.kernel.outputs.push((now, self.pid, out));
    }

    fn is_suspected(&self, p: Pid) -> bool {
        self.kernel.suspects[self.pid.index()].contains(p)
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.kernel.rngs[self.pid.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type K = Kernel<u64, (), ()>;

    #[test]
    fn scheduled_orders_by_time_then_seq() {
        let mut k: K = Kernel::new(2, NetParams::default(), 1);
        k.schedule(
            Time::from_millis(5),
            Ev::NetDone {
                link: LinkId::SHARED,
            },
        );
        k.schedule(
            Time::from_millis(1),
            Ev::NetDone {
                link: LinkId::SHARED,
            },
        );
        k.schedule(Time::from_millis(1), Ev::CpuDone { at: Pid::new(0) });
        let a = k.pop_due(Time::MAX).unwrap();
        let b = k.pop_due(Time::MAX).unwrap();
        let c = k.pop_due(Time::MAX).unwrap();
        assert_eq!(a.at, Time::from_millis(1));
        assert!(matches!(a.ev, Ev::NetDone { .. })); // inserted first among ties
        assert_eq!(b.at, Time::from_millis(1));
        assert!(matches!(b.ev, Ev::CpuDone { .. }));
        assert_eq!(c.at, Time::from_millis(5));
    }

    #[test]
    fn fd_apply_dedups_edges() {
        let mut k: K = Kernel::new(3, NetParams::default(), 1);
        let p0 = Pid::new(0);
        let p1 = Pid::new(1);
        assert!(k.fd_apply(p0, FdEvent::Suspect(p1)));
        assert!(!k.fd_apply(p0, FdEvent::Suspect(p1)));
        assert_eq!(*k.suspect_mask(p0), DestSet::single(p1));
        assert!(k.fd_apply(p0, FdEvent::Trust(p1)));
        assert!(!k.fd_apply(p0, FdEvent::Trust(p1)));
        assert!(k.suspect_mask(p0).is_empty());
    }

    #[test]
    fn crash_records_first_time_only() {
        let mut k: K = Kernel::new(2, NetParams::default(), 1);
        k.now = Time::from_millis(3);
        k.crash(Pid::new(1));
        k.now = Time::from_millis(9);
        k.crash(Pid::new(1));
        assert_eq!(k.crashed[1], Some(Time::from_millis(3)));
        assert!(k.is_crashed(Pid::new(1)));
        assert!(!k.is_crashed(Pid::new(0)));
    }

    #[test]
    #[should_panic(expected = "n must be in 1..=256")]
    fn zero_processes_rejected() {
        let _: K = Kernel::new(0, NetParams::default(), 1);
    }

    /// Pops the event times and a FIFO-rank fingerprint of the queue:
    /// same-time ties are identified by the order they were inserted.
    fn drain_order(mut k: K) -> Vec<(Time, u64)> {
        let mut order = Vec::new();
        while let Some(s) = k.pop_due(Time::MAX) {
            order.push((s.at, s.seq));
        }
        order
    }

    fn ten_tied_events(schedule: Schedule) -> K {
        let mut k: K = Kernel::with_schedule(2, NetParams::default(), 1, schedule);
        for _ in 0..5 {
            k.schedule(
                Time::from_millis(1),
                Ev::NetDone {
                    link: LinkId::SHARED,
                },
            );
            k.schedule(Time::from_millis(1), Ev::CpuDone { at: Pid::new(0) });
        }
        k
    }

    #[test]
    fn seeded_random_permutes_ties_deterministically() {
        let fifo = drain_order(ten_tied_events(Schedule::Fifo));
        assert!(
            fifo.windows(2).all(|w| w[0].1 < w[1].1),
            "FIFO keeps insertion order"
        );
        let a = drain_order(ten_tied_events(Schedule::SeededRandom(7)));
        let b = drain_order(ten_tied_events(Schedule::SeededRandom(7)));
        assert_eq!(a, b, "same schedule seed, same permutation");
        assert_ne!(a, fifo, "seed 7 must actually permute ten tied events");
        let c = drain_order(ten_tied_events(Schedule::SeededRandom(8)));
        assert_ne!(a, c, "different seed, different permutation");
    }

    #[test]
    fn schedule_policies_never_reorder_across_time() {
        for schedule in [
            Schedule::SeededRandom(3),
            Schedule::Pct {
                seed: 3,
                change_period: 4,
            },
        ] {
            let mut k: K = Kernel::with_schedule(2, NetParams::default(), 1, schedule);
            for ms in [5u64, 1, 3, 1, 5, 2] {
                k.schedule(Time::from_millis(ms), Ev::CpuDone { at: Pid::new(0) });
            }
            let times: Vec<Time> = drain_order(k).into_iter().map(|(t, _)| t).collect();
            let mut sorted = times.clone();
            sorted.sort();
            assert_eq!(times, sorted, "{schedule:?} must respect the time axis");
        }
    }

    #[test]
    fn pct_is_deterministic_and_permutes() {
        let p = |seed| Schedule::Pct {
            seed,
            change_period: 3,
        };
        let a = drain_order(ten_tied_events(p(1)));
        let b = drain_order(ten_tied_events(p(1)));
        assert_eq!(a, b);
        assert_ne!(a, drain_order(ten_tied_events(Schedule::Fifo)));
    }

    #[test]
    #[should_panic(expected = "change_period must be non-zero")]
    fn pct_rejects_zero_change_period() {
        let _: K = Kernel::with_schedule(
            2,
            NetParams::default(),
            1,
            Schedule::Pct {
                seed: 1,
                change_period: 0,
            },
        );
    }
}
