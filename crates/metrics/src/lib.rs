//! # ff-metrics — telemetry for the FrameFeedback reproduction
//!
//! Measurement primitives shared by the device, server, and experiment
//! harness:
//!
//! * [`WindowedRate`] — trailing-window event-rate estimation (the
//!   controller's `T` and `P_o` inputs),
//! * [`LatencyStats`] / [`LogHistogram`] — latency order statistics,
//! * [`QosRecord`] / [`QosLog`] — per-interval QoS in the paper's Table I
//!   notation, including the headline throughput `P = P_o + P_l − T`.

#![warn(missing_docs)]

mod chart;
mod histogram;
mod qos;
mod rate;
mod series;
mod stats;

pub use chart::{render_chart, ChartConfig, ChartSeries};
pub use histogram::LogHistogram;
pub use qos::{QosAggregate, QosLog, QosRecord};
pub use rate::WindowedRate;
pub use series::{LatencyStats, LatencySummary};
pub use stats::{bootstrap_mean_ci, ConfidenceInterval};
