//! # abcast — two uniform atomic broadcast algorithms
//!
//! The two algorithms the DSN 2003 paper compares, as engine-agnostic
//! state machines plus [`neko::Process`] shells:
//!
//! * [`FdAbcast`] / [`FdNode`] — the **FD algorithm**: Chandra–Toueg
//!   atomic broadcast by reduction to a sequence of ♦S consensus
//!   instances; unreliable failure detectors are used directly. What
//!   consensus orders is a [`Strategy`]: [`Bodies`] (the paper's
//!   payload-carrying batches) by default; the `ringpaxos` crate
//!   plugs in ids only.
//! * [`GmAbcast`] / [`GmNode`] — the **GM algorithm**: fixed-sequencer
//!   total order; a group-membership service (view synchrony) handles
//!   crashes and suspicions. The non-uniform variant of the paper's
//!   Section 8 is available through [`Uniformity::NonUniform`].
//!
//! Both tolerate `f < n/2` crashes, and in suspicion-free runs they
//! generate the *same* pattern of messages (paper Fig. 1) — the
//! integration tests assert it.
//!
//! ```
//! use abcast::{AbcastEvent, FdNode};
//! use neko::{Pid, SimBuilder, Time};
//!
//! let suspects = fdet::SuspectSet::new();
//! let mut sim = SimBuilder::new(3).build_with(|p| FdNode::<u64>::new(p, 3, &suspects));
//! sim.schedule_command(Time::ZERO, Pid::new(0), 42);
//! sim.run_until(Time::from_millis(50));
//! let delivered = sim.take_outputs();
//! assert_eq!(delivered.len(), 3); // every process A-delivered it
//! ```

// Protocol state machines must be bit-deterministic and free of
// ambient effects; this attribute is determinism rule D5 (no
// `unsafe`), the rest are in the root clippy.toml.
#![forbid(unsafe_code)]

mod batch;
mod common;
mod fd;
mod gm;
mod node;

pub use batch::{BatchConfig, Batched, Batcher, Pack};
pub use common::{AbcastEvent, MsgId, Payload};
pub use fd::{
    Actions, Batch, Bodies, CastAction, CastMsg, FdAbcast, FdCastAction, FdCastMsg, Local, Pending,
    Repair, Strategy,
};
pub use gm::{Bundle, GmAbcast, GmCastAction, GmCastMsg, Uniformity, NONUNIFORM_ACK_EVERY};
pub use node::{FdNode, GmNode, RETRY_INTERVAL, STALL_PROBE_INTERVAL};
