//! Cross-backend conformance: the same seeded workload driven through
//! `Backend::Sim` and `Backend::Real` must leave the atomic-broadcast
//! contract intact on the real backend — **agreement** (every message
//! delivered somewhere is delivered everywhere among correct
//! processes), **total order** (delivery logs are prefix-compatible),
//! **no duplication**, and **validity** (every broadcast by a correct
//! process is delivered).
//!
//! The point of the [`neko::Runtime`] driver layer is that nothing in
//! these tests names a backend until the last moment: one generic
//! function schedules the workload, and the same fault scripts run
//! through `study::run_once` on either selector.

use abcast::{AbcastEvent, FdNode, GmNode};
use fdet::{QosParams, SuspectSet};
use neko::{Ctx, Dur, FdEvent, Pid, Process, RealRuntime, Runtime, SimBuilder, Time};
use ringpaxos::RingNode;
use study::oracle::{self, DeliveryLog};
use study::{
    poisson_arrivals, run_once, Algorithm, Backend, FaultScript, RunParams, ScriptAction,
    ScriptTime,
};

/// Drives the same Poisson workload through any backend and returns
/// the per-process delivery logs.
fn drive<P, R>(rt: &mut R, n: usize, throughput: f64, horizon: Time, seed: u64) -> Vec<DeliveryLog>
where
    P: Process<Cmd = u64, Out = AbcastEvent<u64>>,
    R: Runtime<P>,
{
    let senders: Vec<Pid> = Pid::all(n).collect();
    for (t, p, v) in poisson_arrivals(n, throughput, horizon, &senders, seed) {
        rt.schedule_command(t, p, v);
    }
    // Generous wall-clock tail: batched stacks hold the last payloads
    // for up to a flush window before shipping, and CI machines are
    // slow — an undersized drain here reads as lost messages.
    rt.run_until(horizon + Dur::from_millis(900));
    oracle::delivery_logs(n, rt.take_outputs())
}

/// Agreement + total order (prefix-compatible logs) + no duplication —
/// the shared [`study::oracle`] checker, the same one the schedule
/// explorer judges fuzzed runs with.
fn assert_abcast_invariants(logs: &[DeliveryLog], label: &str) {
    oracle::check_uniform_total_order(logs).unwrap_or_else(|v| panic!("{label}: {v}"));
}

fn conformance_for<P>(make: impl Fn(Pid) -> P + Copy, label: &str)
where
    P: Process<Cmd = u64, Out = AbcastEvent<u64>> + Send,
    P::Msg: Send,
{
    let (n, throughput, seed) = (3, 60.0, 0xC0F0);
    let horizon = Time::from_millis(700);

    let mut sim = SimBuilder::new(n).seed(seed).build_with(make);
    let sim_logs = drive(&mut sim, n, throughput, horizon, seed);

    let mut real = RealRuntime::new(n, seed, make);
    let real_logs = drive(&mut real, n, throughput, horizon, seed);

    // The real backend upholds the atomic-broadcast contract …
    assert_abcast_invariants(&real_logs, label);
    // … including validity: in a fault-free run below saturation,
    // every process delivers every broadcast —
    let total = sim_logs[0].len();
    for (i, log) in real_logs.iter().enumerate() {
        assert_eq!(log.len(), total, "{label}: p{} missed messages", i + 1);
    }
    // — and delivers exactly the payload set the simulator delivered
    // for the same seeded workload (the order may legitimately differ
    // between wall-clock and simulated time).
    let payload_set = |logs: &[DeliveryLog]| {
        logs[0]
            .iter()
            .map(|(_, v)| *v)
            .collect::<std::collections::BTreeSet<u64>>()
    };
    assert_eq!(payload_set(&sim_logs), payload_set(&real_logs), "{label}");
}

#[test]
fn same_seeded_workload_conforms_across_backends_fd() {
    let n = 3;
    let s = SuspectSet::new();
    conformance_for(|p| FdNode::<u64>::new(p, n, &s), "FD sim↔real");
}

#[test]
fn same_seeded_workload_conforms_across_backends_gm() {
    let n = 3;
    let s = SuspectSet::new();
    conformance_for(|p| GmNode::<u64>::new(p, n, &s), "GM sim↔real");
}

#[test]
fn same_seeded_workload_conforms_across_backends_ring() {
    let n = 3;
    let s = SuspectSet::new();
    conformance_for(|p| RingNode::<u64>::new(p, n, &s), "Ring sim↔real");
}

/// Short wall-clock run dimensions for the scenario smoke below. The
/// drain is deliberately wide for a 500 ms measurement window: real
/// runs absorb OS scheduling noise, and batched runs additionally
/// hold the tail payloads for up to one flush window.
fn real_params(n: usize, throughput: f64) -> RunParams {
    RunParams::new(n, throughput)
        .with_warmup(Dur::from_millis(150))
        .with_measure(Dur::from_millis(500))
        .with_drain(Dur::from_millis(700))
        .with_replications(1)
        .with_backend(Backend::Real)
}

/// The four paper scenarios plus crash-recover and healing-partition,
/// through the *unchanged* `study::run_once` pipeline on
/// `Backend::Real`. Fault windows tolerate transient undeliverables,
/// hence the lax saturation bar on the recovery scenarios.
fn real_scenarios() -> Vec<(&'static str, FaultScript, RunParams)> {
    let qos = QosParams::new()
        .with_mistake_recurrence(Dur::from_millis(800))
        .with_mistake_duration(Dur::from_millis(5));
    vec![
        (
            "normal-steady",
            FaultScript::normal_steady(),
            real_params(3, 50.0),
        ),
        (
            "crash-steady",
            FaultScript::crash_steady(&[Pid::new(2)]),
            real_params(3, 50.0),
        ),
        (
            "suspicion-steady",
            FaultScript::suspicion_steady(qos),
            real_params(3, 50.0).with_saturation_frac(0.5),
        ),
        (
            "crash-transient",
            FaultScript::crash_transient(Pid::new(0), Pid::new(1), Dur::from_millis(40)),
            real_params(3, 20.0).with_drain(Dur::from_millis(600)),
        ),
        (
            "crash-recover",
            FaultScript::crash_recover(
                Pid::new(2),
                Dur::from_millis(100),
                Dur::from_millis(250),
                Dur::from_millis(30),
            ),
            real_params(3, 50.0).with_saturation_frac(0.5),
        ),
        (
            "healing-partition",
            FaultScript::healing_partition(
                vec![vec![Pid::new(0), Pid::new(1)], vec![Pid::new(2)]],
                Dur::from_millis(100),
                Dur::from_millis(250),
                Dur::from_millis(30),
            ),
            real_params(3, 50.0)
                .with_drain(Dur::from_millis(600))
                .with_saturation_frac(0.5),
        ),
    ]
}

fn scenarios_run_for_real(alg: Algorithm) {
    for (name, script, params) in real_scenarios() {
        let run = run_once(alg, &script, &params, 0x5EA1);
        assert!(
            run.mean_latency_ms.is_some(),
            "{alg:?}/{name} saturated on the real backend: measured {} undelivered {}",
            run.measured,
            run.undelivered,
        );
        assert!(run.measured > 0, "{alg:?}/{name}: nothing measured");
    }
}

#[test]
fn paper_scenarios_run_for_real_fd() {
    scenarios_run_for_real(Algorithm::Fd);
}

#[test]
fn batched_scenario_runs_for_real() {
    // The batching layer on the real backend: flush timers ride the
    // OS clock, packs cross real channels, and the unchanged
    // measurement pipeline still sees per-payload deliveries. The lax
    // saturation bar tolerates tail payloads still buffered when the
    // horizon closes on a noisy CI machine.
    use abcast::BatchConfig;
    let params = real_params(3, 80.0)
        .with_batching(BatchConfig::new(4, Dur::from_millis(5)))
        .with_saturation_frac(0.2);
    let run = run_once(
        Algorithm::Fd,
        &FaultScript::normal_steady(),
        &params,
        0xBA7C,
    );
    assert!(
        run.mean_latency_ms.is_some(),
        "batched normal-steady saturated on the real backend: measured {} undelivered {}",
        run.measured,
        run.undelivered,
    );
    assert!(run.measured > 0);
}

#[test]
fn paper_scenarios_run_for_real_gm() {
    scenarios_run_for_real(Algorithm::Gm);
}

#[test]
fn paper_scenarios_run_for_real_ring() {
    scenarios_run_for_real(Algorithm::Ring);
}

#[test]
fn sim_and_real_agree_on_what_was_measured() {
    // `measured` counts script-time arrivals by live senders — a pure
    // function of the compiled script and the seed, so both backends
    // must report the same number for the same run dimensions, for
    // every study algorithm (the paper's two plus the ring contender).
    let script = FaultScript::normal_steady();
    for alg in Algorithm::STUDY {
        let sim = run_once(
            alg,
            &script,
            &real_params(3, 50.0).with_backend(Backend::Sim),
            7,
        );
        let real = run_once(alg, &script, &real_params(3, 50.0), 7);
        assert_eq!(sim.measured, real.measured, "{alg:?}");
        assert_eq!(real.undelivered, 0, "{alg:?}");
    }
}

/// Emits every suspicion it is told of, as the suspect's index.
struct SuspicionLog;
impl Process for SuspicionLog {
    type Msg = ();
    type Cmd = ();
    type Out = usize;
    fn on_command(&mut self, _ctx: &mut dyn Ctx<(), usize>, _cmd: ()) {}
    fn on_message(&mut self, _ctx: &mut dyn Ctx<(), usize>, _from: Pid, _msg: ()) {}
    fn on_fd(&mut self, ctx: &mut dyn Ctx<(), usize>, ev: FdEvent) {
        if let FdEvent::Suspect(p) = ev {
            ctx.emit(p.index());
        }
    }
}

#[test]
fn the_real_backend_detects_a_crash_when_the_script_says() {
    // The compiled script is the real backend's only failure
    // detector: both survivors suspect the crashed p3, and neither
    // before the scripted detection time, however long it is.
    let (crash_at, detection) = (Time::from_millis(50), Dur::from_millis(150));
    let script =
        FaultScript::normal_steady().crash(ScriptTime::At(crash_at), Pid::new(2), detection);
    let compiled = script.compile(3, Dur::ZERO, Time::from_millis(400), 1);
    let mut rt = RealRuntime::new(3, 1, |_| SuspicionLog);
    rt.schedule_plan(compiled.entries().iter().filter_map(|(t, act)| match act {
        ScriptAction::Inject(inj) => Some((*t, inj.clone())),
        ScriptAction::Probe(_) => None,
    }));
    rt.run_until(Time::from_millis(400));
    let out = rt.take_outputs();
    let mut suspecters: Vec<Pid> = out.iter().map(|(_, p, _)| *p).collect();
    suspecters.sort();
    assert_eq!(suspecters, vec![Pid::new(0), Pid::new(1)], "{out:?}");
    for (t, _, suspect) in &out {
        assert_eq!(*suspect, 2, "{out:?}");
        assert!(*t >= crash_at + detection, "suspected before T_D: {out:?}");
    }
}
