//! # fdet — failure-detector models
//!
//! Failure detectors for the atomic-broadcast study, modelled the way
//! the paper models them (Section 6.2): not as a concrete detection
//! algorithm, but abstractly through the **quality-of-service
//! metrics** of Chen, Toueg and Aguilera — detection time `T_D`
//! (constant), mistake recurrence time `T_MR` and mistake duration
//! `T_M` (both exponential, independent per monitored pair).
//!
//! * [`QosParams`] — the wrong-suspicion metrics `T_MR` and `T_M`;
//! * [`suspicion_burst_plan`] — samples the wrong suspicions of every
//!   monitored pair inside a window as a stream of timestamped
//!   [`neko::Injection::Fd`] edges, ready for
//!   [`neko::Sim::schedule_plan`];
//! * [`SuspectSet`] — a detector's current output, kept by the
//!   protocol state machines: the kernel's [`neko::DestSet`], fed
//!   with [`neko::DestSet::apply`].
//!
//! The edges of crashes, recoveries and partitions, which follow
//! from `T_D` alone, are emitted by the fault-script compiler
//! (`study::FaultScript::compile`). The sampled edges are
//! backend-agnostic: [`neko::Sim`] and [`neko::RealRuntime`] both
//! apply them to a process's suspect set as they come due, so a
//! scripted suspicion burst perturbs a real thread exactly when it
//! perturbed the simulation.
//!
//! ```
//! use fdet::{suspicion_burst_plan, QosParams};
//! use neko::{Dur, Time};
//!
//! let qos = QosParams::new()
//!     .with_mistake_recurrence(Dur::from_millis(1_000))
//!     .with_mistake_duration(Dur::ZERO);
//! let plan = suspicion_burst_plan(3, Time::ZERO, Time::from_secs(10), qos, 42, None);
//! assert!(!plan.is_empty()); // ready for Sim::schedule_plan
//! ```

// Protocol state machines must be bit-deterministic and free of
// ambient effects; this attribute is determinism rule D5 (no
// `unsafe`), the rest are in the root clippy.toml.
#![forbid(unsafe_code)]

mod qos;

pub use qos::{suspicion_burst_plan, QosParams};

/// The set of processes a local failure-detector module currently
/// suspects. Protocol state machines keep one, fold every
/// [`neko::FdEvent`] they receive into it with
/// [`apply`](neko::DestSet::apply), and ask it
/// [`contains`](neko::DestSet::contains) when they need the
/// detector's opinion.
///
/// ```
/// use fdet::SuspectSet;
/// use neko::{FdEvent, Pid};
///
/// let mut s = SuspectSet::new();
/// assert!(s.apply(FdEvent::Suspect(Pid::new(1))));
/// assert!(s.contains(Pid::new(1)));
/// ```
pub type SuspectSet = neko::DestSet;
