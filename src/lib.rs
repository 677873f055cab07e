//! # atombench
//!
//! A reproduction of *“Comparison of Failure Detectors and Group
//! Membership: Performance Study of Two Atomic Broadcast Algorithms”*
//! (Urbán, Shnayderman, Schiper — DSN 2003).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`neko`] — deterministic discrete-event simulation engine with the
//!   paper's contention-aware network model, plus a thread-based
//!   real-time runtime.
//! * [`fdet`] — failure-detector models driven by the QoS metrics of
//!   Chen et al. (`T_D`, `T_MR`, `T_M`), the only failure detector on
//!   both the simulator and the real-time runtime.
//! * [`rbcast`] — lazy reliable broadcast.
//! * [`consensus`] — Chandra–Toueg ♦S consensus.
//! * [`membership`] — group membership's views and wire messages.
//! * [`abcast`] — the two atomic broadcast algorithms under study,
//!   including GM's view-change protocol (view synchrony).
//! * [`study`] — the benchmark methodology: composable fault scripts,
//!   workloads, latency statistics and the parallel experiment
//!   runner.
//!
//! ## Quickstart
//!
//! Run a normal-steady experiment for both algorithms and print the
//! mean latency:
//!
//! ```
//! use study::{Algorithm, FaultScript, run_replicated, RunParams};
//! use neko::Dur;
//!
//! let params = RunParams::new(3, 100.0)
//!     .with_measure(Dur::from_secs(1))
//!     .with_replications(2);
//! for alg in Algorithm::PAPER {
//!     let out = run_replicated(alg, &FaultScript::normal_steady(), &params, 0xC0FFEE);
//!     let lat = out.latency.expect("not saturated");
//!     println!("{alg:?}: {:.2} ms mean latency", lat.mean());
//! }
//! ```
//!
//! Scenarios beyond the paper are the same grammar — e.g. a crash
//! that heals:
//!
//! ```
//! use neko::{Dur, Pid};
//! use study::FaultScript;
//!
//! let script = FaultScript::crash_recover(
//!     Pid::new(2),                // who
//!     Dur::from_millis(200),      // crash, this long after warm-up
//!     Dur::from_millis(500),      // downtime
//!     Dur::from_millis(30),       // detection time T_D
//! );
//! # let _ = script;
//! ```
//!
//! See `examples/` for richer scenarios and `crates/bench` for the
//! figure-regeneration harnesses.

pub use abcast;
pub use consensus;
pub use fdet;
pub use membership;
pub use neko;
pub use rbcast;
pub use study;
