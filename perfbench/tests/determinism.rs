//! The benchmark's own checks, at a tiny size: simulated metrics and
//! per-layer counts repeat exactly for one seed and any worker count, a
//! second seed changes the inputs, and every metric `BENCHMARK.json`
//! lists is emitted with its unit.

use perfbench::report::{Kind, Report};
use perfbench::workload::{chunk, run_traced, run_untraced, Opts, Size, Workload};

fn opts(workload: Workload, seed: u64, workers: usize) -> Opts {
    Opts {
        workload,
        seed,
        seconds: 0.0,
        workers,
        size: Size::Tiny,
    }
}

/// The simulated part of a report: attempted, failed and every
/// simulated metric, bit for bit.
fn simulated(r: &Report) -> (u64, u64, Vec<(String, u64)>) {
    let metrics = r
        .metrics
        .iter()
        .filter(|m| m.kind == Kind::Simulated)
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect();
    (r.attempted, r.failed, metrics)
}

#[test]
fn simulated_metrics_repeat_for_one_seed_and_any_worker_count() {
    for w in Workload::ALL {
        let one = run_untraced(&opts(w, 7, 1)).unwrap();
        let again = run_untraced(&opts(w, 7, 1)).unwrap();
        let two = run_untraced(&opts(w, 7, 2)).unwrap();
        assert_eq!(simulated(&one), simulated(&again), "{}: two runs", w.name());
        assert_eq!(
            simulated(&one),
            simulated(&two),
            "{}: 1 vs 2 workers",
            w.name()
        );

        let one = run_traced(&opts(w, 7, 1)).unwrap();
        let two = run_traced(&opts(w, 7, 2)).unwrap();
        assert_eq!(
            simulated(&one),
            simulated(&two),
            "{}: traced, 1 vs 2 workers",
            w.name()
        );
    }
}

#[test]
fn a_second_seed_changes_the_inputs() {
    for w in Workload::ALL {
        let inputs = |seed| format!("{:?}", chunk(&opts(w, seed, 1), 0));
        assert_eq!(inputs(1), inputs(1), "{}", w.name());
        assert_ne!(inputs(1), inputs(2), "{}", w.name());
    }
    let latency = |seed| {
        run_untraced(&opts(Workload::PaperFaults, seed, 2))
            .unwrap()
            .get("latency_p50_ms.fd")
            .unwrap()
            .value
    };
    assert_ne!(latency(1).to_bits(), latency(2).to_bits());
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file is the repository's own, so a plain scan suffices: each
/// metric object holds `"name"` before `"unit"`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap()];
    let value = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\""))?;
        let rest = &s[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some((rest[open..close].to_string(), at + key.len() + 2 + close))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, after)) = value(rest, "name") {
        let (unit, end) = value(&rest[after..], "unit").unwrap();
        out.push((name, unit));
        rest = &rest[after + end..];
    }
    out
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let untraced = run_untraced(&opts(w, 3, 2)).unwrap();
        assert_eq!(emitted(&untraced), end_to_end, "{}", w.name());
        untraced.to_json().unwrap();
        let traced = run_traced(&opts(w, 3, 2)).unwrap();
        assert_eq!(emitted(&traced), per_layer, "{}", w.name());
        traced.to_json().unwrap();
    }
}
