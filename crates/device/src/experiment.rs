//! The end-to-end experiment: one measured edge device, the emulated
//! uplink, the multi-tenant server, background load, and a pluggable
//! controller — wired into the discrete-event simulation.
//!
//! This is the substitution for the paper's physical testbed (§IV-A).
//! Every evaluation artifact (Figures 2–4, Tables V & VI, the CPU-usage
//! observation) is produced by configuring and running this model.
//!
//! An experiment is one setting of the fleet host, not a host of its own:
//! [`run_experiment`] lowers its [`ExperimentConfig`] into a one-device
//! [`FleetConfig`] and runs it on the single-threaded fleet engine. Its
//! features are fleet options of the same names; the background schedule
//! plus the constant peer tenants becomes the tier's
//! [`BackgroundConfig`]; the whole-tier `outage` becomes one
//! [`TierOutage`] per server. The result's latency summaries, means and
//! per-frame trace come from a `Watch` on row 0.

use crate::fleet::{
    run_fleet_recording, EngineOptions, FleetConfig, FleetDeviceConfig, TierOutage,
};
use crate::quality::QualityConfig;
use crate::selection::ModelSelection;
use crate::selector::SelectorConfig;
use crate::trace::FrameRecord;
use ff_core::Controller;
use ff_metrics::{LatencySummary, QosLog};
use ff_models::{DeviceKind, GpuProfile, ModelKind};
use ff_net::{LinkConfig, LinkStats, LossModel, NetworkConditions};
use ff_server::{BackgroundConfig, OverflowPolicy, ServerStats, TierConfig};
use ff_sim::{QueueBackend, SimDuration};
use ff_telemetry::Telemetry;
use ff_workload::{
    FilterConfig, FilterStats, ReplayFrames, SceneScript, StepSchedule, StreamConfig,
};
use serde::{Deserialize, Serialize};

/// Full configuration of one experiment run.
///
/// Serializable: the `ffexp` CLI accepts a JSON file with this exact
/// shape (`ffexp --dump-config` emits the defaults as a template).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Master seed; every stochastic component derives its own stream.
    pub seed: u64,
    /// The measured edge device (paper: the Pis of Table II).
    pub device: DeviceKind,
    /// The classification model (paper: MobileNetV3Small for Figs. 2–4).
    pub model: ModelKind,
    /// Frame stream parameters (30 fps, 4,000 frames).
    pub stream: StreamConfig,
    /// End-to-end deadline (250 ms, §II-B).
    pub deadline: SimDuration,
    /// Static link parameters.
    pub link: LinkConfig,
    /// Network schedule (Table V, Fig. 2 injection, or ideal).
    pub network: StepSchedule<NetworkConditions>,
    /// Optional loss-process override (e.g. Gilbert–Elliott bursts). When
    /// set, it replaces the schedule's Bernoulli loss at every phase; the
    /// schedule's bandwidth still applies.
    pub loss_model: Option<LossModel>,
    /// Background offered load schedule in requests/s (Table VI or zero).
    pub background: StepSchedule<f64>,
    /// Controller measurement period (1 s, Table IV).
    pub controller_period: SimDuration,
    /// Trailing window for the timeout-rate input `T` ("the average of T
    /// from the last few seconds", §III-A.1).
    pub timeout_window: SimDuration,
    /// Server GPU profile (batch limit 15).
    pub gpu: GpuProfile,
    /// Constant additional tenants sharing the server (the paper runs
    /// three Pis concurrently; the two unmeasured ones are peers).
    pub peer_devices: u32,
    /// Offered offload rate of each peer in frames/s.
    pub peer_rate_fps: f64,
    /// Enable the §II-D adaptive-quality extension: JPEG quality steps
    /// down under network-attributed timeouts and recovers when clean.
    pub adaptive_quality: Option<QualityConfig>,
    /// Record the fate of every individual frame (memory ∝ stream length).
    pub record_trace: bool,
    /// Enable the adaptive local-model ladder: sustained offloading
    /// upgrades the local model to a slower, more accurate one.
    pub adaptive_local_model: Option<SelectorConfig>,
    /// Optional server outage window: the server process crashes at
    /// `from_secs` (losing its queue and running batch) and a fresh
    /// process returns at `until_secs`. While down, nothing that enters
    /// the uplink ever reaches the server — offloads and probes resolve
    /// only by their deadlines, so the controller sees `T` equal to the
    /// attempted rate and must fall back to the §III-A.1 probe floor.
    pub outage: Option<ServerOutage>,
    /// Replace the generative frame source with a recorded capture
    /// schedule (e.g. extracted from a binary trace via
    /// `ReplayFrames::from_trace`): same capture instants, same raw
    /// sizes, no frame-stream RNG. `stream` still supplies `fps` and
    /// compression parameters.
    #[serde(default)]
    pub replay: Option<ReplayFrames>,
    /// Explicit server-tier topology (N servers, routing policy,
    /// admission policy). `None` — the default, so existing JSON
    /// configs still parse — means the legacy single server built from
    /// `gpu`, which is bit-identical to the pre-tier path. The legacy
    /// `outage` window takes the whole tier down at once.
    #[serde(default)]
    pub tier: Option<TierConfig>,
    /// Scene-change script scoring each generated frame's information
    /// content on a dedicated RNG stream ("scene"). `None` — the default
    /// — draws nothing and is bit-identical to the pre-scene source.
    /// Rejected with `replay`: a replayed frame carries no information
    /// score (recorded sizes already embed any content structure).
    #[serde(default)]
    pub scene: Option<SceneScript>,
    /// Semantic frame filter (skip/shrink/pass). Only acts on frames
    /// that carry an information score, i.e. requires `scene`; `None`
    /// passes every frame untouched.
    #[serde(default)]
    pub filter: Option<FilterConfig>,
    /// Accuracy-aware model selection. The default `AlwaysPaper` is the
    /// paper's always-remote policy, bit-identical to the pre-selection
    /// runtime (`tests/content_inert.rs`).
    #[serde(default)]
    pub selection: ModelSelection,
    /// The model served remotely. `None` — the default — means the
    /// device model `model` runs on the server too (the paper's setup);
    /// `Some` enables the small-local / large-remote split whose
    /// accuracies feed [`ModelSelection::ExpectedAccuracy`].
    #[serde(default)]
    pub remote_model: Option<ModelKind>,
}

/// A server crash-and-restart window (see [`ExperimentConfig::outage`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerOutage {
    /// Crash instant in seconds from the start of the run.
    pub from_secs: f64,
    /// Recovery instant in seconds; must be after `from_secs`.
    pub until_secs: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 42,
            device: DeviceKind::Pi4BRev12,
            model: ModelKind::MobileNetV3Small,
            stream: StreamConfig::default(),
            deadline: SimDuration::from_millis(250),
            link: LinkConfig::default(),
            network: ff_workload::ideal_network(),
            loss_model: None,
            background: StepSchedule::constant(0.0),
            controller_period: SimDuration::from_secs(1),
            timeout_window: SimDuration::from_secs(3),
            gpu: GpuProfile::default(),
            peer_devices: 2,
            peer_rate_fps: 13.0,
            adaptive_quality: None,
            record_trace: false,
            adaptive_local_model: None,
            outage: None,
            replay: None,
            tier: None,
            scene: None,
            filter: None,
            selection: ModelSelection::AlwaysPaper,
            remote_model: None,
        }
    }
}

/// Everything an experiment run produces.
///
/// `Deserialize` + `Clone` make the result round-trippable through the
/// `ff-sweep` content-hash cache (a cached cell is read back from JSON
/// instead of re-simulated).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Name of the controller that produced this run.
    pub controller: String,
    /// Per-second QoS records (Table I notation).
    pub qos: QosLog,
    /// Latency order statistics over successful offloads.
    pub offload_latency: Option<LatencySummary>,
    /// Breakdown: capture -> server arrival (uplink share).
    pub uplink_latency: Option<LatencySummary>,
    /// Breakdown: server arrival -> response at the device.
    pub server_latency: Option<LatencySummary>,
    /// Uplink counters (drops, retransmissions).
    pub link_stats: LinkStats,
    /// Server counters (batches, rejections).
    pub server_stats: ServerStats,
    /// Modeled mean device CPU usage over the run (percent).
    pub cpu_usage_pct: f64,
    /// Fraction of the run the local inference engine spent computing.
    pub local_busy_fraction: f64,
    /// Frames the source produced.
    pub frames_generated: u64,
    /// Frames routed to the uplink.
    pub frames_offloaded: u64,
    /// Frames routed to the local engine (including skipped ones).
    pub frames_local: u64,
    /// Offloads whose response beat the deadline.
    pub offload_successes: u64,
    /// Offloads that missed the deadline (`T`).
    pub offload_timeouts: u64,
    /// Mean total throughput `P` over the run (frames/s).
    pub mean_throughput: f64,
    /// Mean predicted top-1 accuracy over offloaded frames, reflecting
    /// any adaptive-quality downgrades (`None` when nothing offloaded).
    pub mean_offload_accuracy: Option<f64>,
    /// Mean JPEG quality at which frames were offloaded.
    pub mean_offload_quality: Option<f64>,
    /// Per-frame records (only when `record_trace` was set).
    pub trace: Option<Vec<FrameRecord>>,
    /// Mean predicted top-1 accuracy over locally inferred frames
    /// (reflects adaptive-local-model upgrades).
    pub mean_local_accuracy: Option<f64>,
    /// Per-server counters, in tier order (defaulted for results cached
    /// before the tier existed).
    #[serde(default)]
    pub per_server_stats: Vec<ServerStats>,
    /// Requests turned away by the tier's admission policy.
    #[serde(default)]
    pub admission_rejections: u64,
    /// Semantic-filter verdict counts (`None` when no filter ran).
    /// Conservation is structural: `passed + shrunk + skipped ==
    /// captured`, and skipped frames appear in no other frame counter.
    #[serde(default)]
    pub filter_stats: Option<FilterStats>,
    /// Mean accuracy-weighted throughput over intervals that completed
    /// at least one frame (Table III weighting; see `QosAggregate`).
    #[serde(default)]
    pub mean_accuracy_weighted_throughput: f64,
}

/// Run one experiment with the given controller.
pub fn run_experiment(
    config: ExperimentConfig,
    controller: Box<dyn Controller>,
) -> ExperimentResult {
    run_experiment_with_telemetry(config, controller, &Telemetry::disabled())
}

/// Like [`run_experiment`], but reporting into an observability
/// pipeline. Results are bit-identical to a telemetry-off run (the
/// pipeline is strictly write-only with respect to the simulation);
/// the final partial window stays open until the caller's
/// [`Telemetry::finish`], so one pipeline can span several runs.
///
/// Telemetry is a parameter rather than an [`ExperimentConfig`] field
/// because the config is the serializable `ffexp` CLI surface, while a
/// pipeline handle is inherently process-local.
pub fn run_experiment_with_telemetry(
    config: ExperimentConfig,
    controller: Box<dyn Controller>,
    telemetry: &Telemetry,
) -> ExperimentResult {
    run_as_fleet(config, controller, telemetry, false).0
}

/// Like [`run_experiment`], but also recording the run into a binary
/// `ff-trace` event log, returned alongside the result. Recording is
/// strictly write-only: the [`ExperimentResult`] is bit-identical to an
/// untraced run (see `tests/trace_inert.rs`), and the trace replay-
/// verifies against a fresh runtime (`crate::replay_verify`).
pub fn run_experiment_traced(
    config: ExperimentConfig,
    controller: Box<dyn Controller>,
) -> (ExperimentResult, Vec<u8>) {
    let (result, trace) = run_as_fleet(config, controller, &Telemetry::disabled(), true);
    (result, trace.expect("recording was requested"))
}

/// Lower `config` into a one-device fleet and run it, recording the
/// device's `ff-trace` when `traced`.
fn run_as_fleet(
    config: ExperimentConfig,
    controller: Box<dyn Controller>,
    telemetry: &Telemetry,
    traced: bool,
) -> (ExperimentResult, Option<Vec<u8>>) {
    let tier = config
        .tier
        .unwrap_or_else(|| TierConfig::single(config.gpu, OverflowPolicy::default()));
    // The whole tier goes dark at once: one window per server.
    let outages = match config.outage {
        Some(o) => (0..tier.servers.len())
            .map(|server| TierOutage {
                server,
                from_secs: o.from_secs,
                until_secs: o.until_secs,
            })
            .collect(),
        None => Vec::new(),
    };
    // The peers run the device's model, and so are billed as it.
    let peers_fps = config.peer_devices as f64 * config.peer_rate_fps;
    let schedule = &config.background;
    let background = BackgroundConfig {
        steps: schedule
            .steps()
            .iter()
            .map(|&(t, _)| (t, schedule.value_at(t) + peers_fps))
            .collect(),
        model: config.model,
    };
    let fleet = FleetConfig {
        seed: config.seed,
        devices: vec![FleetDeviceConfig {
            device: config.device,
            model: config.model,
        }],
        stream: config.stream,
        deadline: config.deadline,
        link: config.link,
        network: config.network,
        per_device_network: None,
        controller_period: config.controller_period,
        timeout_window: config.timeout_window,
        gpu: config.gpu,
        policy: OverflowPolicy::default(),
        tier: Some(tier),
        outages,
        // A fleet of one keeps a near-empty calendar, where the heap
        // still beats the wheel (ROADMAP item 4(c)).
        engine: EngineOptions {
            backend: QueueBackend::Heap,
            ..EngineOptions::default()
        },
        telemetry: telemetry.clone(),
        scene: config.scene,
        filter: config.filter,
        selection: config.selection,
        remote_model: config.remote_model,
        adaptive_quality: config.adaptive_quality,
        adaptive_local_model: config.adaptive_local_model,
        loss_model: config.loss_model,
        replay: config.replay,
        background: Some(background),
    };
    let watched = Some((0, config.record_trace));
    let (mut fleet, trace, watch) =
        run_fleet_recording(fleet, vec![controller], traced.then_some(0), watched);
    let device = fleet.devices.pop().expect("a fleet of one");
    let watch = watch.expect("row 0 is watched");
    (watch.into_result(device, fleet), trace)
}
