//! Golden-equivalence tests for the fault-script refactor.
//!
//! The latency samples below were pinned from the pre-refactor
//! `ScenarioSpec` enum path (the closed four-scenario runner), seed
//! `0x601D`, before `FaultScript` existed. The script path must
//! reproduce them **bit-identically**: the four paper scenarios are
//! the contract the composable injection layer compiles down to.

use abcast::BatchConfig;
use neko::{Dur, NetworkModel, Pid};
use study::{find_saturation, run_replicated, Algorithm, FaultScript, RunParams, SaturationSearch};

const SEED: u64 = 0x601D;

fn quick(n: usize, t: f64) -> RunParams {
    RunParams::new(n, t)
        .with_warmup(Dur::from_millis(200))
        .with_measure(Dur::from_secs(2))
        .with_drain(Dur::from_secs(1))
        .with_replications(3)
}

/// Golden per-replication samples: `(mean latency bits, measured,
/// undelivered)`.
fn check(script: &FaultScript, params: &RunParams, alg: Algorithm, golden: &[(u64, u64, u64)]) {
    let out = run_replicated(alg, script, params, SEED);
    assert_eq!(out.runs.len(), golden.len(), "{alg:?}: replication count");
    for (i, (run, (bits, measured, undelivered))) in out.runs.iter().zip(golden).enumerate() {
        assert_eq!(
            run.mean_latency_ms.map(f64::to_bits).unwrap_or(0),
            *bits,
            "{alg:?} rep {i}: mean latency drifted (got {:?})",
            run.mean_latency_ms,
        );
        assert_eq!(run.measured, *measured, "{alg:?} rep {i}: measured");
        assert_eq!(
            run.undelivered, *undelivered,
            "{alg:?} rep {i}: undelivered"
        );
    }
}

/// The ring contender's pins for the suspicion-free and
/// crash-transient timelines. Both are bit-identical to FD's pins:
/// in a suspicion-free run the ring stack sends the same messages at
/// the same instants (rbcast dissemination + one consensus stream),
/// and the simulator's cost model charges per message, not per byte,
/// so ordering compact ids instead of payloads cannot move a
/// timestamp. The crash-transient timeline decides before any fetch
/// is needed (payloads disseminated with their ids), so the repair
/// ring stays idle there too. A run where these pins drift apart from
/// FD's is the signal that the ring's extra machinery leaked into the
/// common case.
#[test]
fn ring_golden_scenarios_are_pinned() {
    let golden_normal = [
        (0x4029a224e769fc8b, 205, 0),
        (0x4029cfda244ea8be, 206, 0),
        (0x402a3fbe76c8b436, 212, 0),
    ];
    check(
        &FaultScript::normal_steady(),
        &quick(3, 100.0),
        Algorithm::Ring,
        &golden_normal,
    );
    let golden_transient = [
        (0x4052400000000000, 1, 0),
        (0x404e800000000000, 1, 0),
        (0x404e800000000000, 1, 0),
        (0x404e800000000000, 1, 0),
        (0x404e800000000000, 1, 0),
    ];
    check(
        &FaultScript::crash_transient(Pid::new(0), Pid::new(1), Dur::from_millis(50)),
        &quick(3, 20.0)
            .with_drain(Dur::from_secs(2))
            .with_replications(5),
        Algorithm::Ring,
        &golden_transient,
    );
}

/// The ring contender's pins where its repair path runs. A
/// crash-recovery and a healed partition both leave a process holding
/// decisions (served by the stall probe's nudge) whose payload bodies
/// it never received, so ring `Fetch`/`Fwd` traffic crosses the wire
/// and the timelines part from FD's. Each replication pins `(mean
/// latency bits, measured, undelivered, wire messages)`: the partition
/// saturates in replications 2 and 3, where the wire count is what
/// pins the execution. Ring sending more messages than FD on the same
/// timeline proves the pins cover the repair traffic.
#[test]
fn ring_repair_timelines_are_pinned() {
    let ms = Dur::from_millis;
    let params = quick(3, 100.0);
    let cases = [
        (
            FaultScript::crash_recover(Pid::new(0), ms(500), ms(500), ms(10)),
            [
                (0x4030e992b5d765a8, 195, 0, 1046),
                (0x40300522d0e56041, 192, 0, 970),
                (0x40322f09fc3e5a44, 193, 0, 1034),
            ],
        ),
        (
            FaultScript::healing_partition(
                vec![vec![Pid::new(0)], vec![Pid::new(1), Pid::new(2)]],
                ms(500),
                ms(500),
                ms(10),
            ),
            [
                (0x402f4f44a25ea0cd, 205, 10, 1026),
                (0, 206, 14, 995),
                (0, 212, 19, 1053),
            ],
        ),
    ];
    for (script, golden) in &cases {
        let ring = run_replicated(Algorithm::Ring, script, &params, SEED);
        let fd = run_replicated(Algorithm::Fd, script, &params, SEED);
        let got: Vec<(u64, u64, u64, u64)> = ring
            .runs
            .iter()
            .map(|r| {
                (
                    r.mean_latency_ms.map(f64::to_bits).unwrap_or(0),
                    r.measured,
                    r.undelivered,
                    r.net.wire_messages,
                )
            })
            .collect();
        assert_eq!(got, golden, "{script:?}");
        for (i, (r, f)) in ring.runs.iter().zip(&fd.runs).enumerate() {
            assert!(
                r.net.wire_messages > f.net.wire_messages,
                "rep {i}: ring repair traffic is on the wire ({} vs FD's {})",
                r.net.wire_messages,
                f.net.wire_messages,
            );
        }
    }
}

/// The ring pins hold at every sweep worker count: the thread-pool
/// executor must not leak scheduling into results for the new
/// algorithm any more than for the paper's two.
#[test]
fn ring_goldens_are_byte_identical_across_sweep_workers() {
    use study::{run_sweep_with_workers, SweepPoint};
    let points = vec![
        SweepPoint::new(
            Algorithm::Ring,
            FaultScript::normal_steady(),
            quick(3, 100.0),
            SEED,
        ),
        SweepPoint::new(
            Algorithm::Ring,
            FaultScript::crash_transient(Pid::new(0), Pid::new(1), Dur::from_millis(50)),
            quick(3, 20.0)
                .with_drain(Dur::from_secs(2))
                .with_replications(5),
            SEED,
        ),
    ];
    let fingerprint = |outs: &[study::RunOutput]| {
        outs.iter()
            .flat_map(|o| {
                o.runs.iter().map(|r| {
                    (
                        r.mean_latency_ms.map(f64::to_bits).unwrap_or(0),
                        r.measured,
                        r.undelivered,
                    )
                })
            })
            .collect::<Vec<_>>()
    };
    let serial = run_sweep_with_workers(&points, 1);
    // The serial sweep reproduces the pinned goldens …
    assert_eq!(
        fingerprint(&serial),
        vec![
            (0x4029a224e769fc8b, 205, 0),
            (0x4029cfda244ea8be, 206, 0),
            (0x402a3fbe76c8b436, 212, 0),
            (0x4052400000000000, 1, 0),
            (0x404e800000000000, 1, 0),
            (0x404e800000000000, 1, 0),
            (0x404e800000000000, 1, 0),
            (0x404e800000000000, 1, 0),
        ],
    );
    // … and the pool never perturbs them.
    for workers in [2usize, 8] {
        let pooled = run_sweep_with_workers(&points, workers);
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&pooled),
            "{workers} workers"
        );
    }
}

#[test]
fn normal_steady_matches_enum_path() {
    let script = FaultScript::normal_steady();
    let params = quick(3, 100.0);
    let golden = [
        (0x4029a224e769fc8b, 205, 0),
        (0x4029cfda244ea8be, 206, 0),
        (0x402a3fbe76c8b436, 212, 0),
    ];
    check(&script, &params, Algorithm::Fd, &golden);
    check(&script, &params, Algorithm::Gm, &golden);
}

#[test]
fn crash_steady_matches_enum_path() {
    let script = FaultScript::crash_steady(&[Pid::new(2)]);
    let params = quick(3, 100.0);
    let golden = [
        (0x40249a909ecc7c21, 130, 0),
        (0x40252b4bd630c1ed, 135, 0),
        (0x4024d7d37695037d, 142, 0),
    ];
    check(&script, &params, Algorithm::Fd, &golden);
    check(&script, &params, Algorithm::Gm, &golden);
}

#[test]
fn crash_steady_n7_matches_enum_path() {
    let script = FaultScript::crash_steady(&[Pid::new(6), Pid::new(5)]);
    let params = quick(7, 300.0);
    check(
        &script,
        &params,
        Algorithm::Fd,
        &[
            (0x4034c51c5e444ca3, 418, 0),
            (0x403542f001f1c915, 455, 0),
            (0x40351d05071bdf66, 433, 0),
        ],
    );
    check(
        &script,
        &params,
        Algorithm::Gm,
        &[
            (0x403370d88508249c, 418, 0),
            (0x40336687d0efbf19, 455, 0),
            (0x4033632143beac0e, 433, 0),
        ],
    );
}

#[test]
fn suspicion_steady_matches_enum_path() {
    let qos = fdet::QosParams::new()
        .with_mistake_recurrence(Dur::from_millis(500))
        .with_mistake_duration(Dur::from_millis(10));
    let script = FaultScript::suspicion_steady(qos);
    let params = quick(3, 100.0);
    check(
        &script,
        &params,
        Algorithm::Fd,
        &[
            (0x402c52b6d768de19, 205, 0),
            (0x402b324d81804ee9, 206, 0),
            (0x402c2c24038e15ba, 212, 0),
        ],
    );
    // GM values re-pinned after the view-synchrony fixes that the
    // schedule explorer forced (see tests/explore.rs): the flush
    // barrier (no in-view delivery once a view change snapshotted its
    // bundles), the install-time merge of locally held sequenced
    // messages below the flush delivery horizon,
    // majority-of-exchanges view proposals, the re-issue of an
    // excluded process's undelivered broadcasts, and buffering (not
    // dropping) traffic addressed to a member-to-be whose Welcome is
    // still in flight. Every other scenario is bit-identical to the
    // pre-fix pins; this one both dropped messages (5/10/1 per
    // replication above — now zero) and could wedge a view change
    // outright, inflating the old means.
    check(
        &script,
        &params,
        Algorithm::Gm,
        &[
            (0x4039ed554e836962, 205, 0),
            (0x403795b110019735, 206, 0),
            (0x403722e147ae1479, 212, 0),
        ],
    );
}

#[test]
fn crash_transient_matches_enum_path() {
    let script = FaultScript::crash_transient(Pid::new(0), Pid::new(1), Dur::from_millis(50));
    let params = quick(3, 20.0)
        .with_drain(Dur::from_secs(2))
        .with_replications(5);
    check(
        &script,
        &params,
        Algorithm::Fd,
        &[
            (0x4052400000000000, 1, 0),
            (0x404e800000000000, 1, 0),
            (0x404e800000000000, 1, 0),
            (0x404e800000000000, 1, 0),
            (0x404e800000000000, 1, 0),
        ],
    );
    check(
        &script,
        &params,
        Algorithm::Gm,
        &[
            (0x404f800000000000, 1, 0),
            (0x404f800000000000, 1, 0),
            (0x404f800000000000, 1, 0),
            (0x404f800000000000, 1, 0),
            (0x404f800000000000, 1, 0),
        ],
    );
}

#[test]
fn crash_transient_zero_detection_matches_enum_path() {
    // T_D = 0 exercises the trickiest schedule-order tie: crash,
    // probe and every suspicion edge land on the same instant.
    let script = FaultScript::crash_transient(Pid::new(0), Pid::new(1), Dur::ZERO);
    let params = quick(3, 20.0)
        .with_drain(Dur::from_secs(2))
        .with_replications(5);
    check(
        &script,
        &params,
        Algorithm::Fd,
        &[
            (0x403768b439581062, 1, 0),
            (0x402a000000000000, 1, 0),
            (0x402e95810624dd2f, 1, 0),
            (0x4032000000000000, 1, 0),
            (0x402c000000000000, 1, 0),
        ],
    );
    check(
        &script,
        &params,
        Algorithm::Gm,
        &[
            (0x402ed16872b020c5, 1, 0),
            (0x402e000000000000, 1, 0),
            (0x402e95810624dd2f, 1, 0),
            (0x4030000000000000, 1, 0),
            (0x402e000000000000, 1, 0),
        ],
    );
}

/// The batched stacks at the knob setting the saturation benchmark
/// uses: packs of up to 32 payloads or 10 ms, n = 3 on the switched
/// topology.
fn batched(t: f64) -> RunParams {
    quick(3, t)
        .with_network_model(NetworkModel::Switched)
        .with_batching(BatchConfig::new(32, Dur::from_millis(10)))
}

/// Batched pins, one per stack: a pack is one opaque value to
/// rbcast, consensus and membership, so how the batching layer holds
/// its packs in memory must never move a timestamp. In a
/// suspicion-free run the three stacks exchange the same messages at
/// the same instants (see `ring_golden_scenarios_are_pinned`), so
/// they share one pin.
#[test]
fn batched_normal_steady_is_pinned() {
    let golden = [
        (0x4033c8f56b723772, 25807, 0),
        (0x4034146816144db7, 25442, 0),
        (0x4033da3bc68d4e33, 25830, 0),
    ];
    let script = FaultScript::normal_steady();
    for alg in [Algorithm::Fd, Algorithm::Gm, Algorithm::Ring] {
        check(&script, &batched(12_800.0), alg, &golden);
    }
}

/// Wrong suspicions under batching: FD and Ring run extra consensus
/// rounds over packs, and GM's view changes ship packs inside the
/// flush `Bundle`.
#[test]
fn batched_suspicion_steady_is_pinned() {
    let qos = fdet::QosParams::new()
        .with_mistake_recurrence(Dur::from_secs(1))
        .with_mistake_duration(Dur::from_millis(10));
    let script = FaultScript::suspicion_steady(qos);
    let fd = [
        (0x40352547b11633cb, 25807, 0),
        (0x4034bafdab41d3bd, 25442, 0),
        (0x4034a9008da30d39, 25830, 0),
    ];
    check(&script, &batched(12_800.0), Algorithm::Fd, &fd);
    check(&script, &batched(12_800.0), Algorithm::Ring, &fd);
    check(
        &script,
        &batched(12_800.0),
        Algorithm::Gm,
        &[
            (0x4041d95fd606713d, 25807, 0),
            (0x403ccb2a45f213a1, 25442, 0),
            (0x403cf6a911f41342, 25830, 0),
        ],
    );
}

/// Golden per-replication samples with the wire count: `(mean latency
/// bits, measured, undelivered, wire messages)`.
fn check_wire(
    script: &FaultScript,
    params: &RunParams,
    alg: Algorithm,
    golden: &[(u64, u64, u64, u64)],
) {
    let out = run_replicated(alg, script, params, SEED);
    let got: Vec<(u64, u64, u64, u64)> = out
        .runs
        .iter()
        .map(|r| {
            (
                r.mean_latency_ms.map(f64::to_bits).unwrap_or(0),
                r.measured,
                r.undelivered,
                r.net.wire_messages,
            )
        })
        .collect();
    assert_eq!(got, golden, "{alg:?}");
}

/// The ablation variants under wrong suspicions, unbatched and
/// batched. Without renumbering, FD's replication 2 parts from the
/// renumbering pin in `suspicion_steady_matches_enum_path`
/// (0x402b324d81804ee9, 997 wire messages), so the pin covers the
/// ablation itself. Batched, the two FD variants coincide.
#[test]
fn fd_no_renumber_is_pinned() {
    let qos = fdet::QosParams::new()
        .with_mistake_recurrence(Dur::from_millis(500))
        .with_mistake_duration(Dur::from_millis(10));
    check_wire(
        &FaultScript::suspicion_steady(qos),
        &quick(3, 100.0),
        Algorithm::FdNoRenumber,
        &[
            (0x402c52b6d768de19, 205, 0, 1034),
            (0x402b17be4e1006b2, 206, 0, 994),
            (0x402c2c24038e15ba, 212, 0, 1035),
        ],
    );
    let qos = qos.with_mistake_recurrence(Dur::from_secs(1));
    check_wire(
        &FaultScript::suspicion_steady(qos),
        &batched(12_800.0),
        Algorithm::FdNoRenumber,
        &[
            (0x40352547b11633cb, 25807, 0, 3364),
            (0x4034bafdab41d3bd, 25442, 0, 3306),
            (0x4034a9008da30d39, 25830, 0, 3307),
        ],
    );
}

/// Non-uniform GM (the paper's Section 8 variant) under wrong
/// suspicions, unbatched and batched.
#[test]
fn gm_non_uniform_is_pinned() {
    let qos = fdet::QosParams::new()
        .with_mistake_recurrence(Dur::from_millis(500))
        .with_mistake_duration(Dur::from_millis(10));
    check_wire(
        &FaultScript::suspicion_steady(qos),
        &quick(3, 100.0),
        Algorithm::GmNonUniform,
        &[
            (0x402cf192f76b1af9, 205, 0, 1377),
            (0x40230730bc04b14a, 206, 0, 1380),
            (0x4029ba7be27a56c7, 212, 0, 1412),
        ],
    );
    let qos = qos.with_mistake_recurrence(Dur::from_secs(1));
    check_wire(
        &FaultScript::suspicion_steady(qos),
        &batched(12_800.0),
        Algorithm::GmNonUniform,
        &[
            (0x406df4ff9c64591c, 25807, 0, 4325),
            (0x406ce3f8e423666f, 25442, 0, 4794),
            (0x40694208dfb63136, 25830, 0, 4765),
        ],
    );
}

/// The saturation search over the batched stacks pins `T*` and the
/// whole probe trail.
#[test]
fn batched_saturation_is_pinned() {
    let params = batched(0.0)
        .with_warmup(Dur::from_millis(500))
        .with_measure(Dur::from_millis(300))
        .with_replications(1);
    let search = SaturationSearch::default()
        .with_start(100.0)
        .with_ceiling(102_400.0)
        .with_rel_tol(0.5);
    // Doubling from 100/s sustains up to 51 200/s; the bisection
    // then fails at 76 800/s and stops at the tolerance.
    let mut trail: Vec<(f64, bool)> = (0..10).map(|k| (100.0 * f64::from(1 << k), true)).collect();
    trail.extend([(102_400.0, false), (76_800.0, false)]);
    for alg in [Algorithm::Fd, Algorithm::Gm, Algorithm::Ring] {
        let res = find_saturation(alg, &FaultScript::normal_steady(), &params, SEED, &search);
        assert_eq!(res.t_star, 51_200.0, "{alg:?}: T*");
        assert_eq!(res.saturated_at, Some(76_800.0), "{alg:?}: bracket");
        assert_eq!(res.probes, trail, "{alg:?}: probe trail");
    }
}

/// GM's view-change machinery on four timelines beyond the paper's:
/// a crash-recovery and a healed partition (both end with a stale
/// member told where the group is, rejoining and state-transferred), a
/// rolling churn of two members, and a suspicion burst against p3 with
/// `T_M` = 150 ms, long enough that p3 is excluded, its joins are
/// refused while it stays suspected, and it is readmitted and catches
/// up once trusted. Each replication pins `(mean latency bits,
/// measured, undelivered, wire messages)`.
///
/// The pins exercise the rejoin path: a build that logged each
/// membership event counted, over the three replications, 3 exclusions
/// (by a stale member receiving a newer view's `Welcome`), 12 `Join`s
/// received, 3 readmissions and 6 `StateReq`s on the crash-recovery
/// timeline; the same on the healed partition; 6, 23, 6 and 14 under
/// churn; and under the burst 33 exclusions by view-change decision,
/// 38 `Join`s refused because the joiner was still suspected, 33
/// readmissions and 76 `StateReq`s.
#[test]
fn gm_view_change_timelines_are_pinned() {
    use study::ScriptTime;
    let ms = Dur::from_millis;
    let params = quick(3, 100.0);
    let qos = fdet::QosParams::new()
        .with_mistake_recurrence(ms(400))
        .with_mistake_duration(ms(150));
    let cases = [
        (
            FaultScript::crash_recover(Pid::new(0), ms(500), ms(500), ms(10)),
            [
                (0x402a8cdef2cc5be0, 195, 0, 907),
                (0x402a70d0e5604189, 192, 0, 871),
                (0x402afc71f7679ec8, 193, 0, 881),
            ],
        ),
        (
            FaultScript::healing_partition(
                vec![vec![Pid::new(0)], vec![Pid::new(1), Pid::new(2)]],
                ms(500),
                ms(500),
                ms(10),
            ),
            [
                (0x403d167f7ed89bc1, 205, 0, 912),
                (0x4041257bef0f2bca, 206, 0, 888),
                (0x4045b7ac39a733a8, 212, 0, 919),
            ],
        ),
        (
            FaultScript::default()
                .churn(
                    ScriptTime::AfterWarmup(ms(300)),
                    Pid::new(1),
                    ms(300),
                    ms(10),
                )
                .churn(
                    ScriptTime::AfterWarmup(ms(1100)),
                    Pid::new(2),
                    ms(300),
                    ms(10),
                ),
            [
                (0x4029c3705def57ce, 180, 0, 859),
                (0x4029c7ab370cbf33, 183, 0, 862),
                (0x402b7112bf406ee7, 195, 0, 914),
            ],
        ),
        (
            FaultScript::default().suspicion_burst(
                ScriptTime::AfterWarmup(ms(200)),
                ScriptTime::AfterWarmup(ms(1200)),
                qos,
                Some(vec![Pid::new(2)]),
            ),
            [
                (0x403206ba7a572cc1, 205, 0, 1077),
                (0x4038d5622a3159cf, 206, 0, 1122),
                (0x403531b6f7b12bdb, 212, 0, 1132),
            ],
        ),
    ];
    for (script, golden) in &cases {
        check_wire(script, &params, Algorithm::Gm, golden);
    }
}
