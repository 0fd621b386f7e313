//! # ff-device — the measured edge device and the experiment runner
//!
//! Models the Raspberry Pi of the paper's evaluation: a 30 fps frame
//! source, a credit-based `FrameSplitter` actuating the controller's
//! offload rate, a no-buffer [`LocalEngine`] calibrated to Table II, a
//! [`FlightTable`] enforcing the 250 ms end-to-end deadline with
//! `T_n`/`T_l` cause attribution, and the `CpuModel` reproducing the
//! §II-A CPU-usage observation.
//!
//! The per-frame control loop itself lives in `runtime.rs`: a
//! [`DeviceRuntime`] that is clock- and transport-agnostic, driven here by
//! the discrete-event fleet engines and in `ff-reactor` by the wall-clock
//! fleet client — one loop, every host.
//!
//! [`run_experiment`] wires the device, the `ff-net` uplink, the
//! `ff-server` batching server, background tenants, and any
//! `ff_core::Controller` into one deterministic discrete-event run — the
//! substitution for the paper's physical testbed that every figure and
//! table regeneration is built on. It runs as a fleet of one on
//! [`run_fleet`]'s engine, with fleet options and one watched row.

#![warn(missing_docs)]

/// Dependencies re-exported for crates with no edge of their own to
/// them (`ff-reactor` reaches the batcher and the uplink here). The
/// benchmark's frozen `Cargo.lock` records direct edges only: a new
/// `[dependencies]` edge would rewrite it, a path through this one does
/// not. Real edges replace this module once the benchmark builds
/// `--locked` (ROADMAP item 9(g)). It holds only crates a caller names.
#[doc(hidden)]
pub mod deps {
    pub use ff_models;
    pub use ff_net;
    pub use ff_server;
}

mod controller;
mod cpu;
mod experiment;
mod fleet;
mod flight;
mod local;
mod offload;
mod quality;
mod replay;
mod runtime;
mod scenario;
mod selection;
mod selector;
pub mod shard;
mod splitter;
mod tags;
mod trace;
mod watch;

pub use controller::ControllerSpec;
pub use cpu::EnergyModel;
pub use experiment::{
    run_experiment, run_experiment_traced, run_experiment_with_telemetry, ExperimentConfig,
    ExperimentResult, ServerOutage,
};
#[doc(hidden)]
pub use fleet::testhooks as fleet_testhooks;
pub use fleet::{
    run_fleet, EngineOptions, FleetConfig, FleetDeviceConfig, FleetDeviceResult, FleetResult,
    TierOutage,
};
pub use flight::FlightTable;
#[doc(hidden)]
pub use local::testhooks as local_testhooks;
pub use local::{LocalEngine, LocalOutcome};
#[doc(hidden)]
pub use offload::testhooks as offload_testhooks;
pub use offload::{LatencyBreakdown, OffloadResolution, TimeoutCause};
pub use quality::QualityConfig;
pub use replay::{replay_verify, replay_verify_with, ReplayMismatch, ReplayReport};
pub use runtime::{
    DeviceRuntime, FrameOutcome, IntervalCounters, OffloadSubmission, RuntimeConfig, SubmitOutcome,
    TickOutput, Transport, WallClock,
};
pub use scenario::{content_scenarios, scenario, SCENARIO_NAMES};
pub use selection::ModelSelection;
pub use selector::SelectorConfig;
pub use shard::run_fleet_sharded;
pub use splitter::Route;

pub use trace::{FrameFate, FrameRecord, TraceSummary};
