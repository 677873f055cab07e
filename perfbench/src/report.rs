//! The result line: `correct`, `attempted`, `failed` and the metrics,
//! as one JSON object.

use std::fmt::Write as _;

/// Where a metric's value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Simulated time or a count in the simulation: repeats exactly for
    /// one seed, on any host and with any number of workers.
    Simulated,
    /// Host time, memory or allocations: varies from run to run.
    Host,
}

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// The unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether the value repeats exactly for one seed.
    pub kind: Kind,
}

/// What one benchmark run reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Operations attempted: measured broadcasts, or explorer tuples.
    pub attempted: u64,
    /// Operations failed: measured broadcasts never delivered, or
    /// tuples with an invariant violation.
    pub failed: u64,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a simulated metric.
    pub fn sim(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Kind::Simulated);
    }

    /// Appends a host metric.
    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Kind::Host);
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, kind: Kind) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            kind,
        });
    }

    /// The metric called `name`, if emitted.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line. Values are printed with every digit Rust's
    /// shortest round-trip formatting gives; a non-finite value is a
    /// bug in the benchmark and is refused.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value == m.value.trunc() && m.value.abs() < 1e15 {
                format!("{:.1}", m.value)
            } else {
                format!("{}", m.value)
            };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Resets this process's peak resident size to its current one, so the
/// next [`peak_rss_mb`] reads the peak of what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.host("setup_s", 0.25, "s");
        r.sim("neko.events", 12.0, "count");
        assert_eq!(
            r.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"neko.events\": {\"value\": 12.0, \"unit\": \"count\"}}}"
        );
        r.host("bad", f64::NAN, "s");
        assert!(r.to_json().is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
