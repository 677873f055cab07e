//! The *kernel report*: events/sec, allocations/message and peak
//! event-queue depth of the discrete-event kernel itself (wall-clock,
//! not simulated latency), merged into `BENCH_results.json` (figure
//! `micro`) so kernel-speed regressions show up in the tracked
//! trajectory.

#![expect(
    clippy::disallowed_methods,
    reason = "the kernel report measures the simulator's own speed in wall-clock events per second"
)]

use std::time::Instant;

use figures::{allocations, effort, Effort, Json, Report};
use neko::{Ctx, Dur, Message, NetworkModel, Pid, Process, Sim, SimBuilder, Time};

/// Counts every heap allocation this bench binary makes, so the
/// kernel report can state allocations per delivered message.
#[global_allocator]
static ALLOC: figures::CountingAlloc = figures::CountingAlloc;

/// One process holding a large population of staggered, re-arming
/// timers — the failure-detector-heartbeat shape that dominates the
/// event queue at large n. Delays span 1 ms to ~10 s so events land
/// on several levels of the timing hierarchy.
struct HeartbeatStorm {
    timers: u64,
}

impl HeartbeatStorm {
    fn delay(tag: u64) -> Dur {
        Dur::from_micros(1_000 + tag.wrapping_mul(9973) % 10_000_000)
    }
}

impl Process for HeartbeatStorm {
    type Msg = u64;
    type Cmd = ();
    type Out = ();

    fn on_start(&mut self, ctx: &mut dyn Ctx<u64, ()>) {
        for tag in 0..self.timers {
            ctx.set_timer(Self::delay(tag), tag);
        }
    }

    fn on_command(&mut self, _ctx: &mut dyn Ctx<u64, ()>, _cmd: ()) {}

    fn on_message(&mut self, _ctx: &mut dyn Ctx<u64, ()>, _from: Pid, _msg: u64) {}

    fn on_timer(&mut self, ctx: &mut dyn Ctx<u64, ()>, _id: neko::TimerId, tag: u64) {
        ctx.set_timer(Self::delay(tag), tag);
    }
}

/// A protocol-shaped payload (heap-backed, like real abcast messages).
#[derive(Clone, Debug)]
struct Payload(#[allow(dead_code, reason = "carried for its heap cost, never read")] Vec<u64>);

impl Message for Payload {}

/// Every process broadcasts a heap-backed payload each millisecond —
/// the fan-out hot path at n = 64 on a switched topology.
struct Broadcaster;

impl Process for Broadcaster {
    type Msg = Payload;
    type Cmd = ();
    type Out = ();

    fn on_start(&mut self, ctx: &mut dyn Ctx<Payload, ()>) {
        ctx.set_timer(Dur::from_millis(1), 0);
    }

    fn on_command(&mut self, _ctx: &mut dyn Ctx<Payload, ()>, _cmd: ()) {}

    fn on_message(&mut self, _ctx: &mut dyn Ctx<Payload, ()>, _from: Pid, _msg: Payload) {}

    fn on_timer(&mut self, ctx: &mut dyn Ctx<Payload, ()>, _id: neko::TimerId, tag: u64) {
        ctx.broadcast(Payload(vec![tag; 8]));
        ctx.set_timer(Dur::from_millis(1), tag + 1);
    }
}

/// Two processes bouncing a unicast back and forth: the latency shape
/// (near-empty event queue), as opposed to the deep-queue shapes above.
struct Pinger {
    hops: u64,
}

impl Process for Pinger {
    type Msg = u64;
    type Cmd = ();
    type Out = ();

    fn on_command(&mut self, ctx: &mut dyn Ctx<u64, ()>, _cmd: ()) {
        ctx.send(Pid::new(1), 0);
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<u64, ()>, from: Pid, msg: u64) {
        if msg < self.hops {
            ctx.send(from, msg + 1);
        }
    }
}

/// What one kernel case measured.
struct KernelCase {
    events: u64,
    wall: std::time::Duration,
    deliveries: u64,
    allocations: u64,
    peak_queue: u64,
}

impl KernelCase {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }

    fn allocs_per_message(&self) -> Option<f64> {
        (self.deliveries > 0).then(|| self.allocations as f64 / self.deliveries as f64)
    }
}

/// Runs `build()` to completion at `horizon`, counting events, wall
/// time and allocations.
fn run_case<P: Process>(build: impl Fn() -> Sim<P>, horizon: Time) -> KernelCase {
    let mut sim = build();
    let alloc_before = allocations();
    let start = Instant::now();
    let events = sim.run_until(horizon) as u64;
    let wall = start.elapsed();
    let allocations = allocations() - alloc_before;
    KernelCase {
        events,
        wall,
        deliveries: sim.net_stats().deliveries,
        allocations,
        peak_queue: sim.event_queue_peak(),
    }
}

/// Repeats a case and reports the mean events/sec with its spread,
/// recording one row in the `micro` figure of `BENCH_results.json`.
fn report_case<P: Process>(
    report: &mut Report,
    name: &str,
    reps: usize,
    horizon: Time,
    build: impl Fn() -> Sim<P>,
) {
    let runs: Vec<KernelCase> = (0..reps).map(|_| run_case(&build, horizon)).collect();
    let rates: Vec<f64> = runs.iter().map(KernelCase::events_per_sec).collect();
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    let spread = rates.iter().fold(0.0f64, |a, &r| a.max((r - mean).abs()));
    let last = runs.last().expect("at least one repetition");
    println!(
        "micro,{name},{:.0},{:.0},{},{},{:.2},{}",
        mean,
        spread,
        last.events,
        last.peak_queue,
        last.allocs_per_message().unwrap_or(0.0),
        last.wall.as_millis(),
    );
    let num_or_null = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    report.custom_row(
        name,
        name,
        "events_per_sec",
        "events_per_sec_spread",
        Some((mean, spread)),
        &[
            ("events", Json::Num(last.events as f64)),
            ("peak_event_queue", Json::Num(last.peak_queue as f64)),
            ("allocs_per_message", num_or_null(last.allocs_per_message())),
            ("wall_ms", Json::Num(last.wall.as_secs_f64() * 1e3)),
        ],
    );
}

/// Steady-state churn on a bare event queue: keep `depth` timer-like
/// events pending, pop the earliest and re-arm it `ops` times — the
/// exact access pattern FD heartbeats impose at large n. Runs the
/// same deterministic workload through the timing wheel and the
/// reference binary heap (`neko::wheel::ReferenceHeap`, the structure
/// the kernel ran on before), so the two rows are directly
/// comparable.
fn queue_churn_report(report: &mut Report, depth: u64, ops: u64) {
    use neko::wheel::{ReferenceHeap, TimingWheel};

    fn mix(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    // Delays 1 ms .. ~10 s in µs, like the heartbeat population.
    let delay = |state: &mut u64| 1_000 + mix(state) % 10_000_000;

    let heap_rate = {
        let mut q: ReferenceHeap<u64> = ReferenceHeap::new();
        let mut state = 7u64;
        let mut seq = 0u64;
        for _ in 0..depth {
            seq += 1;
            q.insert(delay(&mut state), 0, seq, 0);
        }
        let start = Instant::now();
        for _ in 0..ops {
            let e = q.pop_due(u64::MAX).expect("queue never drains");
            seq += 1;
            q.insert(e.at + delay(&mut state), 0, seq, 0);
        }
        ops as f64 / start.elapsed().as_secs_f64()
    };

    let wheel_rate = {
        let mut q: TimingWheel<u64> = TimingWheel::new();
        let mut state = 7u64;
        let mut seq = 0u64;
        for _ in 0..depth {
            seq += 1;
            q.insert(delay(&mut state), 0, seq, 0);
        }
        let start = Instant::now();
        for _ in 0..ops {
            let e = q.pop_due(u64::MAX).expect("queue never drains");
            seq += 1;
            q.insert(e.at + delay(&mut state), 0, seq, 0);
        }
        ops as f64 / start.elapsed().as_secs_f64()
    };

    let speedup = wheel_rate / heap_rate;
    println!("micro,eventq_churn_heap,{heap_rate:.0},0,{ops},{depth},0.00,-");
    println!("micro,eventq_churn_wheel,{wheel_rate:.0},0,{ops},{depth},0.00,-");
    println!("# eventq churn at depth {depth}: wheel is {speedup:.1}x the heap");
    report.custom_row(
        "eventq_churn_heap",
        "eventq_churn_heap",
        "events_per_sec",
        "events_per_sec_spread",
        Some((heap_rate, 0.0)),
        &[
            ("depth", Json::Num(depth as f64)),
            ("ops", Json::Num(ops as f64)),
        ],
    );
    report.custom_row(
        "eventq_churn_wheel",
        "eventq_churn_wheel",
        "events_per_sec",
        "events_per_sec_spread",
        Some((wheel_rate, 0.0)),
        &[
            ("depth", Json::Num(depth as f64)),
            ("ops", Json::Num(ops as f64)),
            ("speedup_vs_heap", Json::Num(speedup)),
        ],
    );
}

/// The kernel benchmark proper: three queue shapes, one row each.
fn kernel_report() {
    let quick = effort() == Effort::Quick;
    let reps = if quick { 2 } else { 3 };
    let timers: u64 = if quick { 20_000 } else { 100_000 };
    let timer_horizon = Time::from_secs(if quick { 4 } else { 12 });
    let storm_horizon = Time::from_millis(if quick { 60 } else { 250 });
    let hops: u64 = if quick { 20_000 } else { 100_000 };

    let mut report = Report::new_custom("micro", "case");
    println!(
        "figure,case,events_per_sec,events_per_sec_spread,events,\
         peak_event_queue,allocs_per_message,wall_ms"
    );

    report_case(
        &mut report,
        "timer_wheel_stress_100k",
        reps,
        timer_horizon,
        || SimBuilder::new(1).build_with(|_| HeartbeatStorm { timers }),
    );

    report_case(
        &mut report,
        "broadcast_storm_n64_switched",
        reps,
        storm_horizon,
        || {
            SimBuilder::new(64)
                .topology(NetworkModel::Switched)
                .build_with(|_| Broadcaster)
        },
    );

    report_case(
        &mut report,
        "ping_chain_n2",
        reps,
        Time::from_secs(4000),
        || {
            let mut sim = SimBuilder::new(2).build_with(|_| Pinger { hops });
            sim.schedule_command(Time::ZERO, Pid::new(0), ());
            sim
        },
    );

    let churn_depth: u64 = if quick { 100_000 } else { 1_000_000 };
    let churn_ops: u64 = if quick { 200_000 } else { 1_000_000 };
    queue_churn_report(&mut report, churn_depth, churn_ops);

    report.finish();
}

fn main() {
    kernel_report();
}
