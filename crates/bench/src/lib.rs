//! # figures — regenerating the paper's evaluation
//!
//! One `cargo bench` target per figure of the paper (`fig4` … `fig8`),
//! plus `ablation` (design-choice studies) and `micro` (wall-clock
//! throughput of the discrete-event kernel itself).
//!
//! Each figure bench prints the figure's data series as CSV rows
//! (`series, x, latency_ms, ci95_ms` — `saturated` when the
//! configuration cannot sustain the load, which is how the paper's
//! curves leave the chart) **and** merges the same rows into a
//! machine-readable `BENCH_results.json` (see [`Report`]), so the
//! performance trajectory is tracked run-over-run. Absolute values
//! depend on the simulated network model; the *shapes* reproduce the
//! paper (see `EXPERIMENTS.md`).
//!
//! Set `ATOMBENCH_QUICK=1` for a fast smoke pass (shorter measurement
//! windows, fewer replications, sparser sweeps), and
//! `ATOMBENCH_FULL=1` for longer, tighter-CI runs.

mod results;

pub use results::{results_path, Json, Report};

use neko::Dur;
use study::{run_sweep, RunOutput, RunParams, SweepPoint};

/// Effort level selected through the environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// `ATOMBENCH_QUICK=1`: smoke test.
    Quick,
    /// Default: minutes per figure.
    Normal,
    /// `ATOMBENCH_FULL=1`: tight confidence intervals.
    Full,
}

/// Reads the effort level from the environment.
pub fn effort() -> Effort {
    if std::env::var_os("ATOMBENCH_QUICK").is_some() {
        Effort::Quick
    } else if std::env::var_os("ATOMBENCH_FULL").is_some() {
        Effort::Full
    } else {
        Effort::Normal
    }
}

/// Steady-state run parameters scaled to the effort level.
pub fn steady_params(n: usize, throughput: f64) -> RunParams {
    let p = RunParams::new(n, throughput);
    match effort() {
        Effort::Quick => p
            .with_warmup(Dur::from_millis(300))
            .with_measure(Dur::from_secs(1))
            .with_drain(Dur::from_secs(1))
            .with_replications(2),
        Effort::Normal => p
            .with_warmup(Dur::from_millis(500))
            .with_measure(Dur::from_secs(4))
            .with_drain(Dur::from_secs(2))
            .with_replications(3),
        Effort::Full => p
            .with_warmup(Dur::from_secs(1))
            .with_measure(Dur::from_secs(10))
            .with_drain(Dur::from_secs(3))
            .with_replications(5),
    }
}

/// Crash-transient run parameters (each replication yields one probe
/// sample, so many replications are used).
pub fn transient_params(n: usize, throughput: f64) -> RunParams {
    let p = RunParams::new(n, throughput)
        .with_warmup(Dur::from_millis(500))
        .with_drain(Dur::from_secs(3));
    match effort() {
        Effort::Quick => p.with_replications(5),
        Effort::Normal => p.with_replications(15),
        Effort::Full => p.with_replications(40),
    }
}

/// Thins a sweep when running in quick mode.
pub fn thin<T: Clone>(values: Vec<T>) -> Vec<T> {
    if effort() == Effort::Quick {
        values.into_iter().step_by(2).collect()
    } else {
        values
    }
}

/// Runs a labelled sweep — `(series, x, configuration)` triples —
/// across every CPU core and yields `(series, x, output)` rows in
/// input order (see [`study::run_sweep`] for the execution model).
pub fn sweep<X>(
    entries: Vec<(String, X, SweepPoint)>,
) -> impl Iterator<Item = (String, X, RunOutput)> {
    let points: Vec<SweepPoint> = entries.iter().map(|(_, _, p)| p.clone()).collect();
    entries
        .into_iter()
        .zip(run_sweep(&points))
        .map(|((series, x, _), out)| (series, x, out))
}
