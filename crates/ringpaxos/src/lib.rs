//! # ringpaxos — Ring Paxos-style atomic broadcast
//!
//! The third contender of the study, built for throughput in the
//! style of *Ring Paxos* (Marandi et al., DSN 2010): consensus orders
//! **compact message ids** only — an [`IdBatch`] instead of the FD
//! algorithm's payload-carrying batches — while payload bodies travel
//! once, by reliable broadcast, and are *repaired* point-to-point
//! around a ring of f+1 acceptors when a decision outruns its data
//! (crash, partition, or a lagging process catching up from a
//! decision served by the stall probe).
//!
//! * The ring *is* the FD algorithm's reduction with an ids-only
//!   consensus value: [`RingAbcast`] and [`RingNode`] are
//!   [`abcast::FdAbcast`] and [`abcast::FdNode`] instantiated with the
//!   [`Ring`] strategy, so `rbcast` data dissemination, the sequence
//!   of Chandra–Toueg ♦S [`consensus`] instances with the
//!   coordinator-renumbering optimisation, the stall probe and the
//!   node shell are the FD algorithm's own code. This crate holds
//!   only what differs: the [`IdBatch`] value, the wire format, and
//!   the payload repair. In suspicion-free runs the message *pattern*
//!   is therefore identical to the FD algorithm — the simulator's
//!   cost model charges per message, not per byte, so the compact ids
//!   change what crosses the wire, not when.
//! * The ring is the repair path: [`ring_members`] picks the f+1
//!   acceptors from the failure detector's current output (rotated by
//!   the same `coord_first` the renumbering maintains, so coordinator
//!   and acceptor suspicion both reconfigure it), and a
//!   [`RingMsg::Fetch`] hops unicast from acceptor to acceptor — the
//!   `DestSet::as_single` fast path — until a holder answers the
//!   requester directly with a [`RingMsg::Fwd`].
//!
//! ```
//! use abcast::AbcastEvent;
//! use neko::{Pid, SimBuilder, Time};
//! use ringpaxos::RingNode;
//!
//! let suspects = fdet::SuspectSet::new();
//! let mut sim = SimBuilder::new(3).build_with(|p| RingNode::<u64>::new(p, 3, &suspects));
//! sim.schedule_command(Time::ZERO, Pid::new(0), 42);
//! sim.run_until(Time::from_millis(50));
//! let delivered = sim.take_outputs();
//! assert_eq!(delivered.len(), 3); // every process A-delivered it
//! ```

// Protocol state machines must be bit-deterministic and free of
// ambient effects; this attribute is determinism rule D5 (no
// `unsafe`), the rest are in the root clippy.toml.
#![forbid(unsafe_code)]

mod ring;
mod strategy;

pub use ring::{ring_members, ring_size, ring_successor};
pub use strategy::{IdBatch, Ring, RingAbcast, RingAction, RingMsg, RingNode};
