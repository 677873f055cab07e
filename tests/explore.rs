//! Workspace tests for the adversarial schedule explorer
//! (`study::explore`) and the determinism contract it leans on.
//!
//! The explorer's value rests on two pillars, both pinned here:
//!
//! 1. **Reproducibility** — a [`study::explore::Tuple`] fully
//!    determines its verdict (same tuple → same verdict, bit for
//!    bit), and the sweep worker pool never leaks scheduling into
//!    results (1, 2 and 8 workers produce byte-identical
//!    `RunOutput`s).
//! 2. **Teeth** — with the `mutation-skip-tiebreak` feature the FD
//!    algorithm deliberately skips the paper's id-order tie-break
//!    inside decided batches; the explorer must *catch* the resulting
//!    total-order violation and *shrink* it to a minimal, replayable
//!    [`study::explore::Repro`]. (That test only compiles with the
//!    feature, which CI enables for exactly this file; the clean-run
//!    tests below compile always and must stay clean.)

use neko::Dur;
use study::explore::{run_tuple, Explorer};
use study::{run_sweep_with_workers, Algorithm, FaultScript, RunOutput, RunParams, SweepPoint};

fn quick_explorer(seed: u64) -> Explorer {
    Explorer::new(seed)
        .with_budget(25)
        .with_group_sizes(3, 4)
        .with_throughput(70.0)
}

/// Every latency bit, counter and net stat of a sweep, for exact
/// comparison.
fn fingerprint(outs: &[RunOutput]) -> Vec<(Vec<u64>, u64, u64, u64)> {
    outs.iter()
        .flat_map(|o| {
            o.runs.iter().map(|r| {
                (
                    r.latencies.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                    r.measured,
                    r.undelivered,
                    r.net.wire_messages,
                )
            })
        })
        .collect()
}

#[test]
fn sweeps_are_byte_identical_for_1_2_and_8_workers() {
    let params = RunParams::new(3, 90.0)
        .with_warmup(Dur::from_millis(200))
        .with_measure(Dur::from_secs(1))
        .with_drain(Dur::from_millis(800))
        .with_replications(3);
    let points = vec![
        SweepPoint::new(
            Algorithm::Fd,
            FaultScript::normal_steady(),
            params.clone(),
            41,
        ),
        SweepPoint::new(
            Algorithm::Gm,
            FaultScript::crash_steady(&[neko::Pid::new(2)]),
            params.clone(),
            42,
        ),
        SweepPoint::new(
            Algorithm::Ring,
            FaultScript::normal_steady(),
            params.clone(),
            43,
        ),
        SweepPoint::new(Algorithm::Fd, FaultScript::normal_steady(), params, 44),
    ];
    let serial = run_sweep_with_workers(&points, 1);
    let two = run_sweep_with_workers(&points, 2);
    let eight = run_sweep_with_workers(&points, 8);
    assert_eq!(fingerprint(&serial), fingerprint(&two));
    assert_eq!(fingerprint(&serial), fingerprint(&eight));
}

#[test]
fn explorer_verdicts_are_reproducible_from_the_tuple_alone() {
    // A verdict must be a pure function of the regenerated tuple — no
    // hidden state from the exploration that produced it.
    let e = quick_explorer(0xE0);
    for alg in Algorithm::STUDY {
        for index in [0, 1, 7] {
            let t = e.tuple(alg, index);
            assert_eq!(
                run_tuple(&t),
                run_tuple(&t),
                "{alg:?}/{index} must judge identically on every replay"
            );
        }
    }
}

/// Verdicts pinned by value: `delivered` of the first twelve tuples
/// of each algorithm at the CI explorer seed. Index 11 is the n = 64
/// class. A change to how a tuple is built, scheduled or judged moves
/// these counts.
#[cfg(not(feature = "mutation-skip-tiebreak"))]
#[test]
fn explorer_verdicts_are_pinned() {
    use study::explore::Verdict;
    let e = Explorer::new(0x5EED);
    let golden: [(Algorithm, [usize; 12]); 4] = [
        (
            Algorithm::Fd,
            [78, 81, 73, 90, 105, 74, 97, 96, 96, 107, 82, 6],
        ),
        (
            Algorithm::FdNoRenumber,
            [89, 116, 96, 81, 99, 109, 100, 77, 88, 72, 102, 12],
        ),
        (
            Algorithm::Gm,
            [91, 80, 105, 97, 98, 88, 79, 93, 98, 91, 83, 4],
        ),
        (
            Algorithm::Ring,
            [79, 95, 85, 92, 95, 62, 91, 84, 82, 89, 87, 11],
        ),
    ];
    for (alg, delivered) in golden {
        for (index, &d) in delivered.iter().enumerate() {
            assert_eq!(
                run_tuple(&e.tuple(alg, index)),
                Verdict::Pass { delivered: d },
                "{alg:?}/{index}"
            );
        }
    }
}

/// A whole exploration is a pure function of the explorer: the worker
/// pool never changes how many tuples were examined or which repro
/// (if any) comes out.
#[test]
fn explorations_are_byte_identical_for_1_2_and_8_workers() {
    let e = quick_explorer(0x5C);
    let outcome = |workers: usize| {
        let out = e.clone().with_workers(workers).explore();
        (out.examined, format!("{:?}", out.repro))
    };
    let serial = outcome(1);
    for workers in [2usize, 8] {
        assert_eq!(serial, outcome(workers), "{workers} workers");
    }
}

#[cfg(not(feature = "mutation-skip-tiebreak"))]
#[test]
fn small_clean_budget_passes_all_algorithms() {
    // The CI-scale budget (1000 tuples per algorithm) runs as the
    // `explore` example; this is the fast smoke of the same pipeline,
    // covering the paper's two algorithms plus the ring contender.
    let outcome = quick_explorer(0xC1EA).explore();
    assert_eq!(outcome.examined, 75, "25 tuples × 3 algorithms");
    assert!(
        outcome.repro.is_none(),
        "violation on a clean build: {}",
        outcome.repro.unwrap()
    );
}

#[cfg(feature = "mutation-skip-tiebreak")]
#[test]
fn explorer_catches_and_shrinks_the_seeded_mutation() {
    // The mutation delivers decided FD batches in local arrival order
    // instead of id order — divergent exactly when broadcasts race.
    // The explorer must find it quickly and shrink it to a repro that
    // replays the violation deterministically.
    let outcome = Explorer::new(0x7EE7)
        .with_budget(300)
        .with_algorithms(&[Algorithm::Fd])
        .with_group_sizes(3, 4)
        .explore();
    let repro = outcome
        .repro
        .expect("the seeded tie-break mutation must be caught");
    assert!(
        outcome.examined < 300,
        "must stop at the first failing tuple, not run the budget out: {}",
        outcome.examined
    );
    // Shrinking never grows the script …
    assert!(repro.tuple.script.events().len() <= repro.found.script.events().len());
    // … and the minimized tuple replays the recorded violation, twice.
    let first = repro.replay();
    assert_eq!(
        first.violation(),
        Some(&repro.violation),
        "replay must reproduce the recorded violation"
    );
    assert_eq!(first, repro.replay(), "replays are deterministic");
}
