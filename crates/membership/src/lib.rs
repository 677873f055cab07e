//! # membership — primary-partition group membership with view synchrony
//!
//! The group-membership service of the paper's Section 4.3: it
//! maintains the *view* (the agreed list of group members), changes it
//! when a member is suspected, excluded, or (re)joins, and guarantees
//! **View Synchrony** and **Same View Delivery** — correct, unsuspected
//! processes deliver the same set of messages in each view, and every
//! delivery of a message happens in the same view.
//!
//! View changes are driven by failure detectors and agreed by
//! [`consensus`] on `(P, U)` pairs (next membership, union of unstable
//! messages). The service is generic over the [`Unstable`] bundle so
//! the atomic-broadcast layer on top decides what "unstable" means.
//!
//! See [`Membership`] for the per-process state machine and its
//! driving contract, [`View`]/[`ViewId`] for views, [`GmMsg`] /
//! [`GmAction`] for the wire protocol and outputs.

// Protocol state machines must be bit-deterministic and free of
// ambient effects; this attribute is determinism rule D5 (no
// `unsafe`), the rest are in the root clippy.toml.
#![forbid(unsafe_code)]

mod machine;
mod msg;
mod view;

pub use machine::{Membership, UnstableSupplier, VcProgress};
pub use msg::{GmAction, GmMsg, Unstable, ViewProposal};
pub use view::{View, ViewId};
