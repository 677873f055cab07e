//! # abcast — two uniform atomic broadcast algorithms
//!
//! The two algorithms the DSN 2003 paper compares, as engine-agnostic
//! state machines behind one [`Machine`] trait, and one
//! [`neko::Process`] shell, [`Node`], that runs either:
//!
//! * [`FdAbcast`] / [`FdNode`] — the **FD algorithm**: Chandra–Toueg
//!   atomic broadcast by reduction to a sequence of ♦S consensus
//!   instances; unreliable failure detectors are used directly. What
//!   consensus orders is a [`Strategy`]: [`Bodies`] (the paper's
//!   payload-carrying batches) by default; the `ringpaxos` crate
//!   plugs in ids only.
//! * [`GmAbcast`] / [`GmNode`] — the **GM algorithm**: fixed-sequencer
//!   total order; its group-membership view change (view synchrony,
//!   over the [`membership`] crate's views and messages) handles
//!   crashes and suspicions. The non-uniform variant of the paper's
//!   Section 8 is available through [`Uniformity::NonUniform`].
//!
//! A machine queues what it decides as [`CastAction`]s; the shell
//! carries them out and owns the timers and the multicast group: the
//! periodic stall probe of either machine, the retry timers GM asks
//! for while it is excluded or catching up, and the group GM names for
//! each view it installs.
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
pub use common::{AbcastEvent, CastAction, MsgId, Payload};
pub use fd::{
    Actions, Batch, Bodies, CastMsg, FdAbcast, FdCastAction, FdCastMsg, Local, Pending, Repair,
    Strategy,
};
pub use gm::{Bundle, GmAbcast, GmCastMsg, Uniformity, NONUNIFORM_ACK_EVERY};
pub use node::{FdNode, GmNode, Machine, Node, RETRY_INTERVAL, STALL_PROBE_INTERVAL};
