//! Integration tests on the discrete-event simulator: the two
//! algorithms side by side, under identical workloads.

use abcast::{AbcastEvent, FdNode, GmNode, Uniformity};
use fdet::SuspectSet;
use neko::{Dur, FdEvent, Injection, NetStats, Pid, Process, Sim, SimBuilder, Time};

/// One A-delivery observation.
type Obs = (Time, Pid, u64);

/// The failure-detector edges of `p`'s crash at `at`: every other
/// process suspects it `td` later.
fn crash_detected(n: usize, p: Pid, at: Time, td: Dur) -> impl Iterator<Item = (Time, Injection)> {
    Pid::all(n)
        .filter(move |&q| q != p)
        .map(move |q| (at + td, Injection::Fd(q, FdEvent::Suspect(p))))
}

fn drive<P>(mut sim: Sim<P>, cmds: &[(Time, usize, u64)], until: Time) -> (Vec<Obs>, NetStats)
where
    P: Process<Cmd = u64, Out = AbcastEvent<u64>>,
{
    for &(at, who, payload) in cmds {
        sim.schedule_command(at, Pid::new(who), payload);
    }
    sim.run_until(until);
    let obs = sim
        .take_outputs()
        .into_iter()
        .map(|(t, p, ev)| {
            let AbcastEvent::Delivered { payload, .. } = ev;
            (t, p, payload)
        })
        .collect();
    (obs, sim.net_stats())
}

fn fd_sim(n: usize, seed: u64) -> Sim<FdNode<u64>> {
    let s = SuspectSet::new();
    SimBuilder::new(n)
        .seed(seed)
        .build_with(|p| FdNode::new(p, n, &s))
}

fn gm_sim(n: usize, seed: u64) -> Sim<GmNode<u64>> {
    let s = SuspectSet::new();
    SimBuilder::new(n)
        .seed(seed)
        .build_with(|p| GmNode::new(p, n, &s))
}

fn workload(n: usize, count: usize, gap_us: u64) -> Vec<(Time, usize, u64)> {
    (0..count)
        .map(|i| (Time::from_micros(1000 + i as u64 * gap_us), i % n, i as u64))
        .collect()
}

/// Per-process delivery sequence (payloads in delivery order).
fn logs(obs: &[Obs], n: usize) -> Vec<Vec<u64>> {
    let mut logs = vec![Vec::new(); n];
    for &(_, p, v) in obs {
        logs[p.index()].push(v);
    }
    logs
}

#[test]
fn failure_free_runs_of_fd_and_gm_are_message_identical() {
    // Paper, Section 4.4: "In terms of the pattern of message
    // exchanges, the two algorithms are identical: only the content of
    // messages differ." With the same arrival pattern, every delivery
    // must happen at the same simulated instant in both systems.
    for n in [3, 5, 7] {
        let cmds = workload(n, 40, 2_300);
        let until = Time::from_secs(2);
        let (fd_obs, fd_stats) = drive(fd_sim(n, 7), &cmds, until);
        let (gm_obs, gm_stats) = drive(gm_sim(n, 7), &cmds, until);
        assert_eq!(fd_obs.len(), 40 * n, "n={n}: all delivered everywhere");
        let fd_times: Vec<(Time, Pid, u64)> = fd_obs.clone();
        let gm_times: Vec<(Time, Pid, u64)> = gm_obs.clone();
        assert_eq!(fd_times, gm_times, "n={n}: identical delivery schedule");
        assert_eq!(
            fd_stats.wire_messages, gm_stats.wire_messages,
            "n={n}: same number of messages on the wire"
        );
    }
}

#[test]
fn total_order_and_agreement_under_load() {
    for (n, count, gap) in [(3, 200, 900), (7, 150, 1_100)] {
        let cmds = workload(n, count, gap);
        let until = Time::from_secs(5);
        let (fd_obs, _) = drive(fd_sim(n, 3), &cmds, until);
        let (gm_obs, _) = drive(gm_sim(n, 3), &cmds, until);
        for (name, obs) in [("FD", fd_obs), ("GM", gm_obs)] {
            let logs = logs(&obs, n);
            assert_eq!(logs[0].len(), count, "{name} n={n}: everything delivered");
            for i in 1..n {
                assert_eq!(logs[i], logs[0], "{name} n={n}: p{} diverged", i + 1);
            }
        }
    }
}

#[test]
fn uniform_delivery_needs_majority_acks_in_both() {
    // With n = 3 a single broadcast takes exactly:
    //   Data (3 ms) + Propose/Seq (3 ms) + Ack (3 ms) + Decide/Deliver
    //   arriving 3 ms later at the remaining processes.
    // First delivery (at the coordinator/sequencer) happens at
    // Data + Propose + Ack = 1 + 2λ + ... measured: 9 ms with the
    // paper's λ=1 parameters when the broadcaster is the coordinator.
    let cmds = [(Time::ZERO, 0usize, 1u64)];
    let (fd_obs, _) = drive(fd_sim(3, 1), &cmds, Time::from_secs(1));
    let (gm_obs, _) = drive(gm_sim(3, 1), &cmds, Time::from_secs(1));
    assert_eq!(fd_obs, gm_obs);
    let first = fd_obs.iter().map(|(t, _, _)| *t).min().expect("delivered");
    // p1 broadcasts: self-delivery of Data is free; Propose multicast
    // costs CPU+net+CPU = 3 ms to reach p2/p3; their acks queue on the
    // shared network; the second ack completes the majority at the
    // coordinator. Hand-computed: proposal at 3 ms, first ack back at
    // 6 ms, decided on own+first remote ack = 7 ms including CPU
    // receive. The exact value is asserted to pin the model down.
    assert_eq!(first, Time::from_millis(7), "got {first}");
}

#[test]
fn non_uniform_gm_delivers_two_steps_earlier() {
    let cmds = [(Time::ZERO, 1usize, 1u64)];
    let s = SuspectSet::new();
    let uni = SimBuilder::new(3)
        .seed(1)
        .build_with(|p| GmNode::with_uniformity(p, 3, &s, Uniformity::Uniform));
    let non = SimBuilder::new(3)
        .seed(1)
        .build_with(|p| GmNode::with_uniformity(p, 3, &s, Uniformity::NonUniform));
    let (u_obs, _) = drive(uni, &cmds, Time::from_secs(1));
    let (n_obs, _) = drive(non, &cmds, Time::from_secs(1));
    let u_first = u_obs.iter().map(|(t, _, _)| *t).min().expect("delivered");
    let n_first = n_obs.iter().map(|(t, _, _)| *t).min().expect("delivered");
    assert!(
        n_first < u_first,
        "non-uniform ({n_first}) must beat uniform ({u_first})"
    );
    // Non-uniform still delivers everywhere, in the same order.
    let logs_n = logs(&n_obs, 3);
    assert_eq!(logs_n[0], logs_n[1]);
    assert_eq!(logs_n[1], logs_n[2]);
}

#[test]
fn crash_transient_fd_delivers_after_detection() {
    // p1 (coordinator) crashes at t; q = p2 broadcasts at t; detection
    // at t + T_D. The broadcast must still be delivered, only later.
    let n = 3;
    let s = SuspectSet::new();
    let mut sim = SimBuilder::new(n)
        .seed(2)
        .build_with(|p| FdNode::<u64>::new(p, n, &s));
    let t = Time::from_millis(100);
    let td = Dur::from_millis(30);
    sim.schedule_crash(t, Pid::new(0));
    sim.schedule_command(t, Pid::new(1), 7);
    sim.schedule_plan(crash_detected(n, Pid::new(0), t, td));
    sim.run_until(Time::from_secs(2));
    let obs: Vec<Obs> = sim
        .take_outputs()
        .into_iter()
        .map(|(t, p, ev)| {
            let AbcastEvent::Delivered { payload, .. } = ev;
            (t, p, payload)
        })
        .collect();
    let survivors: Vec<&Obs> = obs.iter().filter(|(_, p, _)| p.index() != 0).collect();
    assert_eq!(survivors.len(), 2, "both survivors deliver: {obs:?}");
    let first = survivors
        .iter()
        .map(|(t, _, _)| *t)
        .min()
        .expect("delivered");
    assert!(first >= t + td, "no delivery before detection, got {first}");
    assert!(
        first < t + td + Dur::from_millis(20),
        "round 2 completes promptly after detection, got {first}"
    );
}

#[test]
fn crash_transient_gm_delivers_after_view_change() {
    let n = 3;
    let s = SuspectSet::new();
    let mut sim = SimBuilder::new(n)
        .seed(2)
        .build_with(|p| GmNode::<u64>::new(p, n, &s));
    let t = Time::from_millis(100);
    let td = Dur::from_millis(30);
    sim.schedule_crash(t, Pid::new(0)); // the sequencer
    sim.schedule_command(t, Pid::new(1), 7);
    sim.schedule_plan(crash_detected(n, Pid::new(0), t, td));
    sim.run_until(Time::from_secs(2));
    let obs: Vec<Obs> = sim
        .take_outputs()
        .into_iter()
        .map(|(t, p, ev)| {
            let AbcastEvent::Delivered { payload, .. } = ev;
            (t, p, payload)
        })
        .collect();
    let survivors: Vec<&Obs> = obs.iter().filter(|(_, p, _)| p.index() != 0).collect();
    assert_eq!(survivors.len(), 2, "both survivors deliver: {obs:?}");
    let first = survivors
        .iter()
        .map(|(t, _, _)| *t)
        .min()
        .expect("delivered");
    assert!(first >= t + td, "no delivery before detection, got {first}");
}

#[test]
fn crash_steady_gm_sequencer_waits_for_fewer_acks() {
    // n = 7 with 3 crashed long ago: the GM view has 4 members
    // (majority 3), while FD still needs 4 of the original 7 — so GM's
    // delivery must not be later than FD's.
    let n = 7;
    let crashed = [Pid::new(4), Pid::new(5), Pid::new(6)];
    // Every survivor suspects every crashed process from time zero.
    let plan: Vec<(Time, Injection)> = Pid::all(n)
        .filter(|q| !crashed.contains(q))
        .flat_map(|q| {
            crashed
                .iter()
                .map(move |&c| (Time::ZERO, Injection::Fd(q, FdEvent::Suspect(c))))
        })
        .collect();
    let mut suspects = SuspectSet::new();
    for &c in &crashed {
        suspects.apply(FdEvent::Suspect(c));
    }

    // FD: survivors know of the crashes from the start.
    let mut fd = SimBuilder::new(n)
        .seed(3)
        .build_with(|p| FdNode::<u64>::new(p, n, &suspects));
    for &c in &crashed {
        fd.schedule_crash(Time::ZERO, c);
    }
    fd.schedule_plan(plan.clone());
    fd.schedule_command(Time::from_millis(10), Pid::new(1), 7);
    fd.run_until(Time::from_secs(1));
    let fd_first = fd
        .take_outputs()
        .iter()
        .map(|(t, _, _)| *t)
        .min()
        .expect("FD delivered");

    // GM: the steady-state view after the crashes contains only the
    // survivors (views converged long ago). Bootstrapping that state
    // through the protocol: crash + suspicions at time zero, then let
    // the view change settle before measuring.
    let mut gm = SimBuilder::new(n)
        .seed(3)
        .build_with(|p| GmNode::<u64>::new(p, n, &suspects));
    for &c in &crashed {
        gm.schedule_crash(Time::ZERO, c);
    }
    gm.schedule_plan(plan);
    gm.run_until(Time::from_millis(500)); // view change settles
    gm.take_outputs();
    gm.schedule_command(Time::from_millis(510), Pid::new(1), 7);
    gm.run_until(Time::from_secs(1));
    let gm_first = gm
        .take_outputs()
        .iter()
        .map(|(t, _, _)| *t)
        .min()
        .map(|t| t - Time::from_millis(510))
        .expect("GM delivered");
    let fd_latency = fd_first - Time::from_millis(10);
    assert!(
        gm_first <= fd_latency,
        "GM ({gm_first}) should not be slower than FD ({fd_latency}) in crash-steady"
    );
}
