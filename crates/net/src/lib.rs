//! # ff-net — the emulated wireless uplink
//!
//! Reproduces the paper's NetEm-degraded network (§IV-C.1) inside the
//! discrete-event simulation: FIFO rate limiting with a bounded buffer,
//! per-packet Bernoulli loss with ARQ retransmission rounds, and one-way
//! propagation delay. Conditions ([`NetworkConditions`]) are mutable
//! mid-run, which is how the Table V schedule is applied. A link is its
//! own state ([`LinkState`]) driven with parameters ([`LinkParams`]) that
//! a fleet shares between devices; [`Link`] owns one of each.

#![warn(missing_docs)]

mod conditions;
mod link;
mod loss;

pub use conditions::NetworkConditions;
pub use link::{DropReason, Link, LinkConfig, LinkParams, LinkState, LinkStats, SendOutcome};
pub use loss::{GilbertElliott, LossModel};
