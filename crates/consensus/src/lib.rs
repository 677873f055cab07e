//! # consensus — Chandra–Toueg ♦S consensus
//!
//! The rotating-coordinator consensus algorithm of Chandra & Toueg
//! (*Unreliable failure detectors for reliable distributed systems*,
//! JACM 1996), tolerating `f < n/2` crashes with a ♦S failure
//! detector, implemented as a pure state machine with the
//! optimizations the DSN 2003 paper uses (round-1 fast path,
//! suspicion-driven round changes, decisions via reliable broadcast).
//!
//! The atomic-broadcast layer runs a *sequence* of instances of this
//! type; the GM algorithm's view change runs one per view. See
//! [`Consensus`] for the API and a usage sketch.
//!
//! ```
//! use consensus::{Consensus, ConsensusAction, ConsensusConfig, ConsensusMsg};
//! use fdet::SuspectSet;
//! use neko::Pid;
//!
//! // Failure-free instance over 3 processes, driven by hand.
//! let mut coord = Consensus::new(ConsensusConfig::ring(Pid::new(0), 3), &SuspectSet::new());
//! let mut out = Vec::new();
//! coord.propose(7u32, &mut out);
//! // The coordinator multicasts Propose{round: 1, value: 7} and will
//! // decide once one more ack arrives (2 of 3 including itself).
//! coord.on_message(Pid::new(1), ConsensusMsg::Ack { round: 1 }, &mut out);
//! assert!(out.iter().any(|a| matches!(a, ConsensusAction::Decided(7))));
//! ```

// Protocol state machines must be bit-deterministic and free of
// ambient effects; this attribute is determinism rule D5 (no
// `unsafe`), the rest are in the root clippy.toml.
#![forbid(unsafe_code)]

mod machine;
mod msg;

pub use machine::{Consensus, ConsensusConfig};
pub use msg::{ConsensusAction, ConsensusMsg, Decision, Value};
