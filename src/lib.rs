//! # framefeedback — facade crate
//!
//! Reproduction of *FrameFeedback: A Closed-Loop Control System for
//! Dynamic Offloading Real-Time Edge Inference* (IPPS 2024). This crate
//! re-exports the whole workspace behind stable module names; the
//! runnable examples under `examples/` use only this facade.
//!
//! ```
//! use framefeedback::controller::{Controller, FrameFeedback, Measurement};
//!
//! let mut ctl = FrameFeedback::new();
//! let d = ctl.update(&Measurement {
//!     fs: 30.0,
//!     po_achieved: 0.0,
//!     pl_achieved: 13.0,
//!     timeout_rate: 0.0,
//!     heartbeat_ok: true,
//!     dt_secs: 1.0,
//! });
//! assert!(d.po_target > 0.0);
//! ```

/// The FrameFeedback PD controller and the `Controller` trait (`ff-core`).
pub mod controller {
    pub use ff_core::*;
}

/// The §IV-B baseline policies (`ff-baselines`).
pub mod baselines {
    pub use ff_baselines::*;
}

/// The edge device model and experiment runner (`ff-device`), including
/// the shared `DeviceRuntime` control loop that both the simulator and
/// the reactor's live client drive.
pub mod device {
    pub use ff_device::*;
}

/// The emulated uplink (`ff-net`).
pub mod net {
    pub use ff_net::*;
}

/// The multi-tenant batching server and the N-server tier (`ff-server`):
/// routing policies (static shard, stale-gossip JSQ, power-of-two
/// choices) and per-tenant token-bucket admission in front of
/// heterogeneous `EdgeServer`s.
pub mod server {
    pub use ff_server::*;
}

/// Model/device/GPU profiles and the compression model (`ff-models`).
pub mod models {
    pub use ff_models::*;
}

/// Frame streams and the Table V / VI schedules (`ff-workload`).
pub mod workload {
    pub use ff_workload::*;
}

/// Telemetry primitives (`ff-metrics`).
pub mod metrics {
    pub use ff_metrics::*;
}

/// The structured observability pipeline (`ff-telemetry`): lock-free
/// recorders, the windowed snapshot collector, and pluggable sinks.
pub mod telemetry {
    pub use ff_telemetry::*;
}

/// The discrete-event simulation engine (`ff-sim`).
pub mod sim {
    pub use ff_sim::*;
}

/// Live-mode helpers beside the reactor (`ff-live`): the telemetry TCP
/// export sink and the request direction of the legacy wire codec. The
/// live tier itself is [`reactor`].
pub mod live {
    pub use ff_live::*;
}

/// The live tier (`ff-reactor`): real sockets in real time, one epoll thread
/// multiplexing thousands of `DeviceRuntime`s and server connections,
/// length-prefixed `FFLP` binary framing, bounded write buffers with
/// backpressure verdicts, and the in-process fleet client.
pub mod reactor {
    pub use ff_reactor::*;
}

/// Binary record/replay traces of the device control loop (`ff-trace`):
/// the schema-versioned event codec, the `TraceWriter` the runtime
/// records through, and the decoded `Trace` that `device::replay_verify`
/// re-executes bit-for-bit.
pub mod trace {
    pub use ff_trace::*;
}

/// The parallel deterministic sweep engine (`ff-sweep`): one declarative
/// `(scenario × seed × routing × admission × controller)` grid type over
/// experiments or whole fleets (`FleetSweepSpec`, one controller lineup
/// per cell), shared-cursor execution, order-independent aggregation,
/// and the content-hash result cache (experiment grids only).
pub mod sweep {
    pub use ff_sweep::*;
}
