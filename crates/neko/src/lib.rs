//! # neko — simulate and prototype distributed algorithms
//!
//! A deterministic discrete-event simulation engine with the
//! contention-aware network model of Urbán, Défago and Schiper (IC3N
//! 2000), plus a thread-based real-time runtime — the same
//! architecture as the Neko framework used by the DSN 2003 paper this
//! workspace reproduces ("a single environment to simulate and
//! prototype distributed algorithms"). Both backends implement the
//! [`Runtime`] driver trait, so the same schedule of commands and
//! fault [`Injection`]s runs on simulated time ([`Sim`]) or on the
//! wall clock ([`RealRuntime`]).
//!
//! ## Model
//!
//! * Each host has one **CPU** resource; emitting or receiving a
//!   message occupies it for `λ` time units.
//! * The wire between the CPUs is a pluggable [`NetworkModel`]. The
//!   default, [`NetworkModel::SharedMedium`], is the paper's: all
//!   hosts share one **network** resource; each message occupies it
//!   for 1 time unit, and a multicast occupies it *once*.
//!   [`NetworkModel::Switched`] gives every ordered pair of hosts a
//!   dedicated full-duplex link; [`NetworkModel::Wan`] applies a
//!   seeded constant per-pair latency with no contention.
//! * Messages wait in FIFO queues in front of busy resources; a
//!   message queued at the sending CPU can be *coalesced* into the
//!   message queued behind it ([`Message::try_merge`]).
//! * Crashes are software crashes: messages already handed to the
//!   crashed host's CPU (or queued) are still sent.
//! * Failure detectors are abstract: the driver injects
//!   [`FdEvent`]s; processes see a suspect set and edge notifications.
//! * Drivers perturb runs through a unified [`Injection`] vocabulary:
//!   crashes, crash-recoveries (the process resumes with its
//!   pre-crash state), failure-detector edges, and network
//!   [`Partition`]s that drop crossing messages until healed.
//!
//! ## Example
//!
//! ```
//! use neko::{Ctx, Pid, Process, SimBuilder, Time};
//!
//! /// A one-shot ping-pong.
//! struct PingPong;
//! impl Process for PingPong {
//!     type Msg = &'static str;
//!     type Cmd = ();
//!     type Out = String;
//!     fn on_command(&mut self, ctx: &mut dyn Ctx<&'static str, String>, _cmd: ()) {
//!         ctx.send(Pid::new(1), "ping");
//!     }
//!     fn on_message(&mut self, ctx: &mut dyn Ctx<&'static str, String>, from: Pid, msg: &'static str) {
//!         match msg {
//!             "ping" => ctx.send(from, "pong"),
//!             other => ctx.emit(format!("{other} at {}", ctx.now())),
//!         }
//!     }
//! }
//!
//! let mut sim = SimBuilder::new(2).build_with(|_| PingPong);
//! sim.schedule_command(Time::ZERO, Pid::new(0), ());
//! sim.run_until(Time::from_millis(10));
//! let out = sim.take_outputs();
//! // 3 ms there (CPU + net + CPU), 3 ms back.
//! assert_eq!(out[0].2, "pong at 6.000ms");
//! ```

mod inject;
mod kernel;
mod net;
mod process;
mod real;
mod rng;
mod runtime;
mod sim;
mod time;
pub mod wheel;

pub use inject::{Injection, Partition};
pub use kernel::Schedule;
pub use net::{NetParams, NetStats, NetworkModel, WanParams};
pub use process::{Ctx, DestSet, FdEvent, Message, Pid, Process, TimerId, MAX_PROCESSES};
pub use real::{RealConfig, RealRuntime};
pub use rng::{derive_seed, sample_exp_micros, splitmix64, stream_rng};
pub use runtime::Runtime;
pub use sim::{Sim, SimBuilder};
pub use time::{Dur, Time};
