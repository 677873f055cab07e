//! The zone map: which determinism contract a file lives under.
//!
//! Zones are assigned from the workspace-relative path alone, so the
//! classification is stable, reviewable, and independent of build
//! configuration. The map mirrors the architecture the goldens pin:
//!
//! * **protocol** — the six pure-state-machine crates (`abcast`,
//!   `consensus`, `membership`, `fd`, `rbcast`, `ringpaxos`).
//!   Strictest contract:
//!   no hash-order state, no clocks, no ambient RNG, no threads or
//!   interior mutability, no `unsafe`.
//! * **sim** — everything else sim-reachable: the `neko` engine
//!   (minus the real-time backend) and the `study` pipeline (minus
//!   the thread-pool runner). Runs inside deterministic replays, so
//!   hash-order state and clocks are denied; threads are the
//!   backend's business and judged per-file, not here.
//! * **runtime** — the wall-clock side: `neko/src/real.rs` and
//!   `core/src/runner.rs` (the sweep executor). Clocks and threads
//!   are its job; ambient RNG is still denied.
//! * **bench** — `crates/bench` measurement code. May read clocks.
//! * **tooling** — tests, examples, benches directories, and this
//!   crate. Most permissive; ambient RNG is still denied because a
//!   seeded repro must stay a pure function of its tuple everywhere.
//! * **vendor** — the offline dependency stand-ins. Same contract as
//!   tooling.

use std::fmt;

/// The determinism contract a file is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    /// Pure protocol state machines (sim-reachable, golden-pinned).
    Protocol,
    /// Sim-reachable engine and study code.
    Sim,
    /// The wall-clock backend and the thread-pool sweep executor.
    Runtime,
    /// Benchmark/measurement code.
    Bench,
    /// Tests, examples, bench targets, the linter itself.
    Tooling,
    /// Offline dependency stand-ins under `vendor/`.
    Vendor,
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Zone::Protocol => "protocol",
            Zone::Sim => "sim",
            Zone::Runtime => "runtime",
            Zone::Bench => "bench",
            Zone::Tooling => "tooling",
            Zone::Vendor => "vendor",
        })
    }
}

/// The six crates under the protocol contract.
pub const PROTOCOL_CRATES: [&str; 6] = [
    "abcast",
    "consensus",
    "membership",
    "fd",
    "rbcast",
    "ringpaxos",
];

/// Classifies a workspace-relative path (`/`-separated) into its
/// zone. First match wins; the order encodes precedence — e.g. a
/// protocol crate's `tests/` directory is tooling, not protocol,
/// because integration tests drive the machines from outside the
/// deterministic replay.
pub fn classify(rel_path: &str) -> Zone {
    let p = rel_path.trim_start_matches("./");
    let seg = |s: &str| p.split('/').any(|x| x == s);
    if p.starts_with("vendor/") {
        return Zone::Vendor;
    }
    if seg("tests") || seg("examples") || seg("benches") || p.starts_with("crates/lint/") {
        return Zone::Tooling;
    }
    for c in PROTOCOL_CRATES {
        if p.starts_with(&format!("crates/{c}/src/")) {
            return Zone::Protocol;
        }
    }
    if p == "crates/neko/src/real.rs" || p == "crates/core/src/runner.rs" {
        return Zone::Runtime;
    }
    if p.starts_with("crates/neko/") || p.starts_with("crates/core/") || p.starts_with("src/") {
        return Zone::Sim;
    }
    if p.starts_with("crates/bench/") {
        return Zone::Bench;
    }
    Zone::Tooling
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_zone_map_matches_the_architecture() {
        for (path, zone) in [
            ("crates/abcast/src/gm.rs", Zone::Protocol),
            ("crates/consensus/src/machine.rs", Zone::Protocol),
            ("crates/membership/src/view.rs", Zone::Protocol),
            ("crates/fd/src/suspect.rs", Zone::Protocol),
            ("crates/rbcast/src/lib.rs", Zone::Protocol),
            ("crates/ringpaxos/src/strategy.rs", Zone::Protocol),
            ("crates/neko/src/kernel.rs", Zone::Sim),
            ("crates/neko/src/wheel.rs", Zone::Sim),
            ("crates/neko/src/real.rs", Zone::Runtime),
            ("crates/core/src/runner.rs", Zone::Runtime),
            ("crates/core/src/scratch.rs", Zone::Sim),
            ("src/lib.rs", Zone::Sim),
            ("crates/bench/src/results.rs", Zone::Bench),
            ("crates/bench/benches/micro.rs", Zone::Tooling),
            ("crates/abcast/tests/sim.rs", Zone::Tooling),
            ("tests/golden_scenarios.rs", Zone::Tooling),
            ("examples/explore.rs", Zone::Tooling),
            ("crates/lint/src/lib.rs", Zone::Tooling),
            ("vendor/rand/src/lib.rs", Zone::Vendor),
            ("./crates/rbcast/src/lib.rs", Zone::Protocol),
        ] {
            assert_eq!(classify(path), zone, "{path}");
        }
    }
}
