//! The paper's measurement pipeline on the **real-time backend**: the
//! same `study::run_once` machinery that produces the simulated
//! figures, pointed at OS threads and the wall clock via
//! `Backend::Real`.
//!
//! Runs a short normal-steady and a crash-transient scenario for both
//! algorithms (the CI real-backend smoke job executes exactly this),
//! printing wall-clock latencies. Expect numbers in the tens of
//! microseconds to low milliseconds — these are channel hops, not the
//! simulator's 1 ms-unit contention model — plus the scripted `T_D`
//! for the transient probe.
//!
//! ```text
//! cargo run --release --example real_backend_study
//! ```

use neko::{Dur, Pid};
use study::{run_replicated, Algorithm, Backend, FaultScript, RunParams};

fn main() {
    let real = |n: usize, t: f64| {
        RunParams::new(n, t)
            .with_warmup(Dur::from_millis(150))
            .with_measure(Dur::from_millis(500))
            .with_drain(Dur::from_millis(350))
            .with_replications(1)
            .with_backend(Backend::Real)
    };

    println!("scenario,algorithm,mean_latency_ms,measured,undelivered");
    for alg in Algorithm::PAPER {
        let out = run_replicated(alg, &FaultScript::normal_steady(), &real(3, 60.0), 0xBEA1);
        report("normal-steady", alg, &out);
    }
    for alg in Algorithm::PAPER {
        let script = FaultScript::crash_transient(Pid::new(0), Pid::new(1), Dur::from_millis(40));
        let out = run_replicated(
            alg,
            &script,
            &real(3, 20.0).with_drain(Dur::from_millis(600)),
            0xBEA2,
        );
        report("crash-transient", alg, &out);
    }
}

fn report(scenario: &str, alg: Algorithm, out: &study::RunOutput) {
    let run = &out.runs[0];
    let mean = run
        .mean_latency_ms
        .map_or("saturated".into(), |l| format!("{l:.3}"));
    println!(
        "{scenario},{alg:?},{mean},{},{}",
        run.measured, run.undelivered
    );
    assert!(
        run.mean_latency_ms.is_some(),
        "{scenario}/{alg:?} must deliver on the real backend"
    );
}
