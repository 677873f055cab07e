//! **Fig. 4 at scale** — the normal-steady latency-vs-throughput sweep
//! pushed past the paper's n = 7 ceiling, on the switched topology:
//! n = 16, 32, 64 (`fig4_scale`), then n = 128 and 256
//! (`fig4_scale_xl`, the multi-word `DestSet` range).
//!
//! The paper stops at n = 7 because that is what the cluster had; the
//! simulator's former `BinaryHeap` kernel also made large groups
//! painful (every pending arrival, message and timer paid O(log n) in
//! one heap, and a broadcast fans out to n − 1 deliveries). The
//! timing-wheel kernel, `Arc` fan-out and four-word destination masks
//! exist precisely to make this sweep routine — it doubles as the
//! scaling acceptance run for that work.
//!
//! All three study algorithms sweep each size (the paper's two plus
//! the ring contender), so the scaling story is comparative, not
//! FD-only. Throughput grids shrink with n: every broadcast fans out
//! a full consensus round, so the saturation knee moves in roughly
//! as 1/n.
//! The two groups land under *separate* figure keys so re-running one
//! (e.g. only the XL half, which is what `ATOMBENCH_SCALE_NS=128,256`
//! selects) never clobbers the other's recorded history.

use figures::{steady_params, sweep, thin, Report};
use neko::NetworkModel;
use study::{Algorithm, FaultScript, SweepPoint};

/// Group sizes past the paper's ceiling, up to the old single-word cap.
const SCALE_NS: [usize; 3] = [16, 32, 64];

/// Past 64 pids every destination mask spills into the upper words.
const XL_NS: [usize; 2] = [128, 256];

fn throughputs(n: usize) -> Vec<f64> {
    match n {
        128 => vec![5.0, 10.0, 25.0, 50.0, 75.0, 100.0],
        256 => vec![5.0, 10.0, 20.0, 30.0, 50.0],
        _ => vec![10.0, 25.0, 50.0, 100.0, 150.0, 200.0],
    }
}

/// `ATOMBENCH_SCALE_NS=128,256` restricts the sweep to those group
/// sizes (CI uses this for a single quick XL point).
fn selected_ns() -> Option<Vec<usize>> {
    let raw = std::env::var("ATOMBENCH_SCALE_NS").ok()?;
    Some(
        raw.split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
    )
}

/// Sweeps one group of sizes into its own figure key; skipped
/// entirely (no write, history intact) when the selection empties it.
fn run_group(figure: &str, ns: &[usize], keep: Option<&Vec<usize>>) {
    let ns: Vec<usize> = ns
        .iter()
        .copied()
        .filter(|n| keep.is_none_or(|k| k.contains(n)))
        .collect();
    if ns.is_empty() {
        return;
    }
    let mut report = Report::new(figure, "throughput_per_s");
    let mut entries = Vec::new();
    for n in ns {
        for alg in Algorithm::STUDY {
            for t in thin(throughputs(n)) {
                let point = SweepPoint::new(
                    alg,
                    FaultScript::normal_steady(),
                    steady_params(n, t).with_network_model(NetworkModel::Switched),
                    0x0F16_0040,
                );
                entries.push((format!("n={n} {alg:?} switched"), t, point));
            }
        }
    }
    for (series, t, out) in sweep(entries) {
        report.row(&series, t, &out);
    }
    report.finish();
}

fn main() {
    let keep = selected_ns();
    run_group("fig4_scale", &SCALE_NS, keep.as_ref());
    run_group("fig4_scale_xl", &XL_NS, keep.as_ref());
}
