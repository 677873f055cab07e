//! Workspace-level invariant tests: the atomic broadcast guarantees
//! must hold for every study algorithm (the paper's two plus the ring
//! contender) under every benchmark scenario, and runs must be
//! exactly reproducible.

use abcast::{AbcastEvent, FdNode, GmNode, Uniformity};
use fdet::{QosParams, SuspectSet};
use neko::{Dur, FdEvent, Injection, Pid, Process, Sim, SimBuilder, Time};
use ringpaxos::RingNode;
use study::oracle::{self, DeliveryLog};
use study::poisson_arrivals;

/// All deliveries of one run, per process, in delivery order.
fn deliveries<P>(sim: &mut Sim<P>) -> Vec<DeliveryLog>
where
    P: Process<Out = AbcastEvent<u64>>,
{
    oracle::delivery_logs(sim.n(), sim.take_outputs())
}

/// Uniform total order: all logs are prefix-compatible (agreement on
/// both content and order, no duplicates) — the shared
/// [`study::oracle`] checker, the same one the schedule explorer
/// judges fuzzed runs with.
fn assert_uniform_total_order(logs: &[DeliveryLog], label: &str) {
    oracle::check_uniform_total_order(logs).unwrap_or_else(|v| panic!("{label}: {v}"));
}

/// The failure-detector edges of `p`'s crash at `at`: every other
/// process suspects it `td` later.
fn crash_detected(n: usize, p: Pid, at: Time, td: Dur) -> impl Iterator<Item = (Time, Injection)> {
    Pid::all(n)
        .filter(move |&q| q != p)
        .map(move |q| (at + td, Injection::Fd(q, FdEvent::Suspect(p))))
}

fn run_scenario<P>(
    mut sim: Sim<P>,
    n: usize,
    throughput: f64,
    horizon: Time,
    seed: u64,
) -> Vec<DeliveryLog>
where
    P: Process<Cmd = u64, Out = AbcastEvent<u64>>,
{
    let senders: Vec<Pid> = Pid::all(n).collect();
    for (t, p, v) in poisson_arrivals(n, throughput, horizon, &senders, seed) {
        sim.schedule_command(t, p, v);
    }
    sim.run_until(horizon + Dur::from_secs(3));
    deliveries(&mut sim)
}

#[test]
fn total_order_under_wrong_suspicions_fd() {
    for seed in [1u64, 2, 3] {
        let n = 3;
        let s = SuspectSet::new();
        let mut sim = SimBuilder::new(n)
            .seed(seed)
            .build_with(|p| FdNode::<u64>::new(p, n, &s));
        let horizon = Time::from_secs(3);
        let qos = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(100))
            .with_mistake_duration(Dur::from_millis(10));
        sim.schedule_plan(fdet::suspicion_burst_plan(
            n,
            Time::ZERO,
            horizon,
            qos,
            seed,
            None,
        ));
        let logs = run_scenario(sim, n, 50.0, horizon, seed);
        assert_uniform_total_order(&logs, "FD under suspicions");
        assert!(!logs[0].is_empty(), "seed {seed}: something was delivered");
    }
}

#[test]
fn total_order_under_wrong_suspicions_gm() {
    for seed in [1u64, 2, 3] {
        let n = 3;
        let s = SuspectSet::new();
        let mut sim = SimBuilder::new(n)
            .seed(seed)
            .build_with(|p| GmNode::<u64>::new(p, n, &s));
        let horizon = Time::from_secs(3);
        // Mistakes rare enough for the group to keep working, frequent
        // enough to force several exclusion/rejoin cycles.
        let qos = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(700))
            .with_mistake_duration(Dur::ZERO);
        sim.schedule_plan(fdet::suspicion_burst_plan(
            n,
            Time::ZERO,
            horizon,
            qos,
            seed,
            None,
        ));
        let logs = run_scenario(sim, n, 50.0, horizon, seed);
        assert_uniform_total_order(&logs, "GM under suspicions");
        assert!(!logs[0].is_empty(), "seed {seed}: something was delivered");
    }
}

#[test]
fn total_order_under_wrong_suspicions_ring() {
    // Wrong suspicions are what exercise the ring's repair machinery:
    // every Suspect edge re-targets in-flight fetches and rotates the
    // acceptor ring, so this is the scenario where ring-specific state
    // could first diverge from the contract.
    for seed in [1u64, 2, 3] {
        let n = 3;
        let s = SuspectSet::new();
        let mut sim = SimBuilder::new(n)
            .seed(seed)
            .build_with(|p| RingNode::<u64>::new(p, n, &s));
        let horizon = Time::from_secs(3);
        let qos = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(100))
            .with_mistake_duration(Dur::from_millis(10));
        sim.schedule_plan(fdet::suspicion_burst_plan(
            n,
            Time::ZERO,
            horizon,
            qos,
            seed,
            None,
        ));
        let logs = run_scenario(sim, n, 50.0, horizon, seed);
        assert_uniform_total_order(&logs, "Ring under suspicions");
        assert!(!logs[0].is_empty(), "seed {seed}: something was delivered");
    }
}

#[test]
fn total_order_across_a_crash_all_algorithms() {
    let n = 5;
    let crash_at = Time::from_millis(700);
    let td = Dur::from_millis(40);
    let horizon = Time::from_secs(2);

    let s = SuspectSet::new();
    let mut fd = SimBuilder::new(n)
        .seed(11)
        .build_with(|p| FdNode::<u64>::new(p, n, &s));
    let mut gm = SimBuilder::new(n)
        .seed(11)
        .build_with(|p| GmNode::<u64>::new(p, n, &s));
    let mut ring = SimBuilder::new(n)
        .seed(11)
        .build_with(|p| RingNode::<u64>::new(p, n, &s));
    for sim_logs in [
        {
            fd.schedule_crash(crash_at, Pid::new(0));
            fd.schedule_plan(crash_detected(n, Pid::new(0), crash_at, td));
            run_scenario(fd, n, 100.0, horizon, 11)
        },
        {
            gm.schedule_crash(crash_at, Pid::new(0));
            gm.schedule_plan(crash_detected(n, Pid::new(0), crash_at, td));
            run_scenario(gm, n, 100.0, horizon, 11)
        },
        {
            ring.schedule_crash(crash_at, Pid::new(0));
            ring.schedule_plan(crash_detected(n, Pid::new(0), crash_at, td));
            run_scenario(ring, n, 100.0, horizon, 11)
        },
    ] {
        assert_uniform_total_order(&sim_logs, "crash of the coordinator/sequencer");
        // The survivors keep delivering after the crash.
        let survivor = &sim_logs[1];
        assert!(
            survivor.len() > sim_logs[0].len(),
            "survivors outlive the crashed process"
        );
    }
}

#[test]
fn non_uniform_gm_preserves_total_order_among_survivors() {
    let n = 3;
    let s = SuspectSet::new();
    let mut sim = SimBuilder::new(n)
        .seed(4)
        .build_with(|p| GmNode::<u64>::with_uniformity(p, n, &s, Uniformity::NonUniform));
    let horizon = Time::from_secs(2);
    let qos = QosParams::new()
        .with_mistake_recurrence(Dur::from_secs(1))
        .with_mistake_duration(Dur::ZERO);
    sim.schedule_plan(fdet::suspicion_burst_plan(
        n,
        Time::ZERO,
        horizon,
        qos,
        4,
        None,
    ));
    let logs = run_scenario(sim, n, 50.0, horizon, 4);
    assert_uniform_total_order(&logs, "non-uniform GM");
}

#[test]
fn same_seed_reproduces_the_exact_run() {
    let run = |seed: u64| {
        let n = 3;
        let s = SuspectSet::new();
        let mut sim = SimBuilder::new(n)
            .seed(seed)
            .build_with(|p| FdNode::<u64>::new(p, n, &s));
        let horizon = Time::from_secs(1);
        let qos = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(200))
            .with_mistake_duration(Dur::from_millis(5));
        sim.schedule_plan(fdet::suspicion_burst_plan(
            n,
            Time::ZERO,
            horizon,
            qos,
            seed,
            None,
        ));
        let senders: Vec<Pid> = Pid::all(n).collect();
        for (t, p, v) in poisson_arrivals(n, 200.0, horizon, &senders, seed) {
            sim.schedule_command(t, p, v);
        }
        sim.run_until(horizon + Dur::from_secs(1));
        sim.take_outputs()
    };
    assert_eq!(run(42), run(42), "same seed, same run");
    assert_ne!(run(42), run(43), "different seed, different run");
}

#[test]
fn validity_every_broadcast_from_correct_process_is_delivered() {
    // Normal-steady: every single broadcast must be delivered by every
    // process (no crashes, no suspicions, load below saturation).
    let n = 3;
    let s = SuspectSet::new();
    let mut sim = SimBuilder::new(n)
        .seed(9)
        .build_with(|p| GmNode::<u64>::new(p, n, &s));
    let horizon = Time::from_secs(2);
    let senders: Vec<Pid> = Pid::all(n).collect();
    let arrivals = poisson_arrivals(n, 200.0, horizon, &senders, 9);
    let total = arrivals.len();
    for (t, p, v) in arrivals {
        sim.schedule_command(t, p, v);
    }
    sim.run_until(horizon + Dur::from_secs(3));
    let logs = deliveries(&mut sim);
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log.len(), total, "p{} missed messages", i + 1);
    }
}

#[test]
fn gm_view_shrinks_and_recovers_through_real_membership_changes() {
    let n = 3;
    let s = SuspectSet::new();
    let mut sim = SimBuilder::new(n)
        .seed(2)
        .build_with(|p| GmNode::<u64>::new(p, n, &s));
    // One wrong suspicion: p1 suspects p3 at 100 ms, corrected at 200 ms.
    sim.schedule_fd_event(
        Time::from_millis(100),
        Pid::new(0),
        neko::FdEvent::Suspect(Pid::new(2)),
    );
    sim.schedule_fd_event(
        Time::from_millis(200),
        Pid::new(0),
        neko::FdEvent::Trust(Pid::new(2)),
    );
    for i in 0..40u64 {
        sim.schedule_command(Time::from_millis(5 + i * 20), Pid::new((i % 3) as usize), i);
    }
    sim.run_until(Time::from_secs(3));
    let logs = deliveries(&mut sim);
    assert_uniform_total_order(&logs, "exclusion + rejoin");
    // p3 was wrongly excluded but caught up via state transfer: in the
    // end it delivered everything.
    assert_eq!(logs[2].len(), logs[0].len(), "rejoined process caught up");
    let node = sim.process(Pid::new(2));
    assert!(!node.algorithm().is_excluded());
    assert!(!node.algorithm().is_catching_up());
    assert!(
        node.algorithm().view().id() > membership::ViewId(0),
        "views really changed"
    );
}
