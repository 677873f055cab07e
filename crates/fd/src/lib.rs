//! # fdet — failure-detector models
//!
//! Failure detectors for the atomic-broadcast study, modelled the way
//! the paper models them (Section 6.2): not as a concrete detection
//! algorithm, but abstractly through the **quality-of-service
//! metrics** of Chen, Toueg and Aguilera — detection time `T_D`
//! (constant), mistake recurrence time `T_MR` and mistake duration
//! `T_M` (both exponential, independent per monitored pair).
//!
//! * [`QosParams`] — the three metrics;
//! * the plan compilers — [`crash_steady_plan`],
//!   [`crash_transient_plan`], [`suspicion_steady_plan`],
//!   [`suspicion_burst_plan`], [`recovery_plan`],
//!   [`partition_cut_plan`], [`partition_heal_plan`] — turn one fault
//!   into a stream of timestamped [`neko::Injection`]s (a
//!   [`PlanEntry`] stream) for [`neko::Sim::schedule_plan`]; fault
//!   scripts (`study::FaultScript`) concatenate these streams;
//! * [`SuspectSet`] — per-process bookkeeping used by the protocol
//!   state machines.
//!
//! The plan compilers are backend-agnostic: on [`neko::Sim`] the
//! injections drive the abstract QoS detector model; on
//! [`neko::RealRuntime`] the same `Fd` edges are forced onto the
//! live heartbeat detector's mask, so a scripted suspicion burst
//! perturbs a real thread exactly when it perturbed the simulation.
//!
//! ```
//! use fdet::{suspicion_steady_plan, QosParams};
//! use neko::{Dur, Time};
//!
//! let qos = QosParams::new()
//!     .with_mistake_recurrence(Dur::from_millis(1_000))
//!     .with_mistake_duration(Dur::ZERO);
//! let plan = suspicion_steady_plan(3, Time::from_secs(10), qos, 42);
//! assert!(!plan.is_empty()); // ready for Sim::schedule_plan
//! ```

// Protocol state machines must be bit-deterministic and free of
// ambient effects; this attribute is determinism rule D5 (no
// `unsafe`), the rest are in the root clippy.toml.
#![forbid(unsafe_code)]

mod qos;
mod suspect;

pub use qos::{
    crash_steady_plan, crash_transient_plan, partition_cut_plan, partition_heal_plan,
    recovery_plan, suspicion_burst_plan, suspicion_steady_plan, PlanEntry, QosParams,
};
pub use suspect::SuspectSet;
