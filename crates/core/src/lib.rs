//! # ff-core — the FrameFeedback controller
//!
//! The paper's primary contribution: a closed-loop PD controller that
//! finds the optimal offload rate for a real-time edge-inference device
//! using only the measured end-to-end timeout rate — no model of network
//! conditions, server load, or application cost (§III).
//!
//! * [`Controller`] — the policy abstraction shared with the baselines in
//!   `ff-baselines`,
//! * [`FrameFeedback`] — the PD controller with the piecewise process
//!   variable of Eq. 4/5 and the Table IV settings ([`PidConfig`]),
//! * [`tune`] — the §III-B gain-tuning procedure.
//!
//! ```
//! use ff_core::{Controller, FrameFeedback, Measurement};
//!
//! let mut ctl = FrameFeedback::new(); // Table IV settings
//! let decision = ctl.update(&Measurement {
//!     fs: 30.0,
//!     po_achieved: 0.0,
//!     pl_achieved: 13.0,
//!     timeout_rate: 0.0,
//!     heartbeat_ok: true,
//!     dt_secs: 1.0,
//! });
//! // Clean interval: the controller raises the offload target, but never
//! // faster than +0.1·F_s per step.
//! assert!(decision.po_target > 0.0 && decision.po_target <= 3.0);
//! ```

#![warn(missing_docs)]

mod controller;
mod pid;
mod tuning;

pub use controller::{Controller, Decision, Measurement};
pub use pid::{FrameFeedback, PidConfig};
pub use tuning::{oscillation_index, tune, TuningOutcome, TAIL_FRACTION};
