//! # membership — views and wire messages of group membership
//!
//! The vocabulary of the paper's Section 4.3 group-membership service:
//! the *view* (the agreed list of group members, [`View`] / [`ViewId`]),
//! the messages a view change exchanges ([`GmMsg`]) and the pair
//! `(P, U)` its consensus decides ([`ViewProposal`]: next membership,
//! union of unstable messages).
//!
//! The view-change protocol itself — flushes, the per-view consensus,
//! exclusion, joins and readmission — runs inside the GM atomic
//! broadcast (`abcast`'s `GmAbcast`), which decides what "unstable"
//! means and delivers the agreed set at the view boundary.

// Protocol state machines must be bit-deterministic and free of
// ambient effects; this attribute is determinism rule D5 (no
// `unsafe`), the rest are in the root clippy.toml.
#![forbid(unsafe_code)]

mod msg;
mod view;

pub use msg::{GmMsg, ViewProposal};
pub use view::{View, ViewId};
