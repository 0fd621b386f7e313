//! # ff-models — model zoo and hardware profiles
//!
//! Static performance/accuracy characteristics of the classification
//! models (paper Table III), the Raspberry Pi edge devices (Table II), the
//! server GPU batch-latency model, and the JPEG compression / accuracy
//! trade-off model of §II-D.
//!
//! Inference itself is **simulated**: the FrameFeedback controller only
//! ever observes rates and latencies, so profiles calibrated to the
//! paper's measured numbers reproduce the system's behaviour without
//! running tensors (see DESIGN.md, substitution table).

#![warn(missing_docs)]

mod accuracy;
mod compression;
mod device;
mod gpu;
mod zoo;

pub use accuracy::{predicted_top1, tradeoff_frontier, TradeoffPoint};
pub use compression::Compression;
pub use device::{DeviceKind, DeviceProfile};
pub use gpu::GpuProfile;
pub use zoo::{ModelKind, ModelProfile};
