//! The end-to-end experiment: one measured edge device, the emulated
//! uplink, the multi-tenant server, background load, and a pluggable
//! controller — wired into the discrete-event simulation.
//!
//! This is the substitution for the paper's physical testbed (§IV-A).
//! Every evaluation artifact (Figures 2–4, Tables V & VI, the CPU-usage
//! observation) is produced by configuring and running this model.
//!
//! The device control loop itself (splitting, deadline tracking, probes,
//! interval aggregation, `Controller::update`) lives in the shared
//! [`DeviceRuntime`](crate::runtime::DeviceRuntime); this module is the
//! discrete-event **adapter**: it turns simulation events into runtime
//! calls and implements [`Transport`] over the emulated `ff-net` uplink.
//! The wall-clock TCP fleet client in `ff-reactor` is another adapter
//! over the very same runtime.

use crate::cpu::CpuModel;
use crate::fleet::{lane, observe_device_tick, FleetObs, LinkTransport};
use crate::local::{LocalEngine, LocalOutcome};
use crate::quality::{QualityAdapter, QualityConfig};
use crate::runtime::{
    trace_header, DeviceRuntime, FrameOutcome, RuntimeConfig, TickOutput, BACKGROUND_TAG_BASE,
};
use crate::selection::ModelSelection;
use crate::selector::{ModelSelector, SelectorConfig};
use crate::splitter::Route;
use crate::trace::{timeout_fate, FrameFate, FrameRecord, FrameTrace};
use ff_core::Controller;
use ff_metrics::{LatencyStats, LatencySummary, QosLog};
use ff_models::{DeviceKind, GpuProfile, ModelKind};
use ff_net::{Link, LinkConfig, LinkStats, LossModel, NetworkConditions};
use ff_server::{
    BatchOutput, OverflowPolicy, PoissonArrivals, Request, ServerStats, ServerTier, TenantId,
    TierConfig, TierSubmit,
};
use ff_sim::{Ctx, RngFactory, SimDuration, SimModel, SimTime, Simulation};
use ff_telemetry::Telemetry;
use ff_trace::TraceHandle;
use ff_workload::{
    FilterConfig, FilterStats, FilterVerdict, FrameSource, FrameStream, ReplayCursor, ReplayFrames,
    SceneScript, SemanticFilter, StepSchedule, StreamConfig,
};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The measured device's tenant id; background tenants start at 1000.
const DEVICE_TENANT: TenantId = TenantId(0);
const BACKGROUND_TENANT: TenantId = TenantId(1000);

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
    /// Ignored for replayed capture schedules (recorded sizes already
    /// embed any content structure).
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

impl ServerOutage {
    fn validate(&self) {
        assert!(
            self.from_secs.is_finite() && self.from_secs >= 0.0,
            "outage start must be finite and >= 0"
        );
        assert!(
            self.until_secs.is_finite() && self.until_secs > self.from_secs,
            "outage must end after it starts"
        );
    }
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

enum Event {
    Capture,
    LocalDone,
    Uplinked {
        tag: u64,
    },
    /// Server `server`'s running batch completes. `epoch` guards against
    /// batch-done events scheduled by a server process that has since
    /// crashed: a stale epoch means the batch was lost with the crash
    /// and the event must be ignored.
    BatchDone {
        server: usize,
        epoch: u64,
    },
    Response {
        tag: u64,
    },
    Deadline {
        tag: u64,
    },
    Tick,
    NetworkChange(usize),
    LoadChange(usize),
    BackgroundArrival,
    ServerCrash,
    ServerRecover,
}

struct World {
    config: ExperimentConfig,
    controller: Box<dyn Controller>,
    runtime: DeviceRuntime,
    source: FrameStream<ChaCha8Rng>,
    engine: LocalEngine<ChaCha8Rng>,
    link: Link<ChaCha8Rng>,
    tier: ServerTier,
    /// The tier's routing stream ("routing"); consumed only by
    /// power-of-two-choices routing with two or more live servers, so
    /// legacy single-server runs never advance it.
    routing_rng: ChaCha8Rng,
    /// Reused batch-completion buffers: one allocation for the whole run
    /// instead of three fresh `Vec`s per finished batch.
    batch_out: BatchOutput,
    bg_arrivals: PoissonArrivals<ChaCha8Rng>,
    bg_rate: f64,
    bg_pending: bool,
    bg_seq: u64,
    latencies: LatencyStats,
    uplink_latencies: LatencyStats,
    server_latencies: LatencyStats,
    frames_local: u64,
    filter: Option<SemanticFilter>,
    /// The model classifying offloaded frames (`remote_model` when set,
    /// else the device model — the paper's single-model setup).
    offload_model: ModelKind,
    quality: Option<QualityAdapter>,
    accuracy_sum: f64,
    quality_sum: f64,
    trace: FrameTrace,
    local_running: Option<u64>,
    local_pending: Option<u64>,
    selector: Option<ModelSelector>,
    current_local_accuracy: f64,
    local_accuracy_sum: f64,
    local_done_total: u64,
    end_at: SimTime,
    /// Telemetry is process-local, so it is threaded in beside the
    /// serializable config ([`run_experiment_with_telemetry`]).
    obs: FleetObs,
}

impl World {
    fn offload_frame(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        tag: u64,
        captured_at: SimTime,
        bytes: u64,
    ) {
        let mut transport = LinkTransport {
            link: &mut self.link,
            deliver: |_, at, tag| ctx.schedule_lane(lane::UPLINK, at, Event::Uplinked { tag }),
        };
        let submission = self
            .runtime
            .offload(&mut transport, tag, bytes, captured_at);
        ctx.schedule_lane(
            lane::DEADLINE,
            submission.deadline_at,
            Event::Deadline { tag },
        );
    }

    fn submit_to_server(&mut self, ctx: &mut Ctx<'_, Event>, request: Request) -> TierSubmit {
        // The measured device's real frames are subject to admission
        // control; probes and the modeled background tenants are not.
        let regulated =
            request.tenant == DEVICE_TENANT && !crate::runtime::is_probe_tag(request.tag);
        let outcome = self
            .tier
            .submit(ctx.now(), request, regulated, &mut self.routing_rng);
        if let TierSubmit::BatchStarted { server, done_at } = outcome {
            ctx.schedule_lane(
                lane::BATCH,
                done_at,
                Event::BatchDone {
                    server,
                    epoch: self.tier.epoch(server),
                },
            );
        }
        outcome
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Event>) {
        let now = ctx.now();
        let mut transport = LinkTransport {
            link: &mut self.link,
            deliver: |_, at, tag| ctx.schedule_lane(lane::UPLINK, at, Event::Uplinked { tag }),
        };
        let out = self
            .runtime
            .tick(now, self.controller.as_mut(), &mut transport);
        if let Some(adapter) = &mut self.quality {
            adapter.update(out.record.timeouts_network);
        }
        if let Some(selector) = &mut self.selector {
            let before = selector.model();
            let after = selector.update(out.record.po_target / self.config.stream.fps);
            if before != after {
                self.engine.set_rate_fps(selector.local_rate_fps());
                self.current_local_accuracy = after.profile().top1_accuracy;
            }
        }
        let deadline = Event::Deadline { tag: out.probe_tag };
        ctx.schedule_lane(lane::DEADLINE, out.probe_deadline_at, deadline);

        let next = now + self.config.controller_period;
        if next <= self.end_at {
            ctx.schedule_lane(lane::TICK, next, Event::Tick);
        }

        self.observe_tick(ctx, &out);
    }

    /// Report the controller-period observations to telemetry, then
    /// poll the collector. Purely observational (see `FleetObs`).
    fn observe_tick(&mut self, ctx: &Ctx<'_, Event>, out: &TickOutput) {
        if !self.obs.recorder.is_enabled() {
            return;
        }
        let (t, fs) = (ctx.now().as_micros(), self.config.stream.fps);
        observe_device_tick(&mut self.obs.recorder, self.obs.devices[0], t, fs, out);
        self.obs.observe_shared(ctx, &self.tier, 0);
    }

    fn schedule_background(&mut self, ctx: &mut Ctx<'_, Event>) {
        if self.bg_pending {
            return;
        }
        if let Some(at) = self.bg_arrivals.next_after(ctx.now(), self.bg_rate) {
            self.bg_pending = true;
            ctx.schedule_lane(lane::BACKGROUND, at, Event::BackgroundArrival);
        }
    }

    fn total_background_rate(&self, t_secs: f64) -> f64 {
        self.config.background.value_at(t_secs)
            + self.config.peer_devices as f64 * self.config.peer_rate_fps
    }
}

impl SimModel for World {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Ctx<'_, Event>, event: Event) {
        match event {
            Event::Capture => {
                let Some(frame) = self.source.next_frame() else {
                    return;
                };
                let now = ctx.now();
                debug_assert_eq!(frame.captured_at, now, "capture event out of sync");
                // The semantic filter sits between capture and the
                // splitter; it only sees frames with an information
                // score (generated streams with a scene script).
                let mut frame_bytes = frame.bytes;
                if let (Some(filter), Some(info)) = (&mut self.filter, self.source.last_info()) {
                    match filter.verdict(info, frame.bytes) {
                        FilterVerdict::Pass => {}
                        FilterVerdict::Shrink { bytes } => frame_bytes = bytes,
                        FilterVerdict::Skip => {
                            // Never reaches the splitter; counted only in
                            // the filter stats and the per-frame trace.
                            self.trace.captured(
                                frame.id.0,
                                now,
                                frame.bytes,
                                FrameFate::FilteredOut,
                            );
                            if !self.source.exhausted() {
                                let next = self.source.next_capture_time();
                                ctx.schedule_lane(lane::CAPTURE, next, Event::Capture);
                            }
                            return;
                        }
                    }
                }
                match self.runtime.route_frame(frame.id.0, frame_bytes, now) {
                    Route::Offload => {
                        let resolution = self.config.stream.compression.resolution;
                        let (bytes, quality) = match &self.quality {
                            Some(adapter) => (
                                (frame_bytes as f64 * adapter.byte_scale(resolution)).round()
                                    as u64,
                                adapter.quality(),
                            ),
                            None => (frame_bytes, self.config.stream.compression.quality),
                        };
                        self.accuracy_sum += ff_models::predicted_top1(
                            self.offload_model,
                            ff_models::Compression::new(quality, resolution),
                        );
                        self.quality_sum += quality as f64;
                        self.trace
                            .captured(frame.id.0, now, bytes.max(1), FrameFate::Unresolved);
                        self.offload_frame(ctx, frame.id.0, now, bytes.max(1));
                    }
                    Route::Local => {
                        self.trace
                            .captured(frame.id.0, now, frame_bytes, FrameFate::Unresolved);
                        match self.engine.offer(now) {
                            LocalOutcome::Started { done_at } => {
                                ctx.schedule_lane(lane::LOCAL, done_at, Event::LocalDone);
                                self.local_running = Some(frame.id.0);
                            }
                            LocalOutcome::Queued => {
                                self.local_pending = Some(frame.id.0);
                            }
                            LocalOutcome::Replaced => {
                                if let Some(skipped) = self.local_pending.replace(frame.id.0) {
                                    self.trace.resolve(skipped, FrameFate::LocalSkipped);
                                }
                            }
                        }
                        self.frames_local += 1;
                    }
                }
                if !self.source.exhausted() {
                    let next = self.source.next_capture_time();
                    ctx.schedule_lane(lane::CAPTURE, next, Event::Capture);
                }
            }

            // This host still files its completions (the handler settles
            // per-frame fates); the engine applies the one that is due.
            Event::LocalDone => {
                let runtime = &mut self.runtime;
                self.engine
                    .apply_due(ctx.now(), false, |at| runtime.note_local_done(1, at));
                self.local_done_total += 1;
                self.local_accuracy_sum += self.current_local_accuracy;
                if let Some(finished) = self.local_running.take() {
                    self.trace.resolve(finished, FrameFate::LocalCompleted);
                }
                if let Some(next_done) = self.engine.busy_until() {
                    ctx.schedule_lane(lane::LOCAL, next_done, Event::LocalDone);
                    self.local_running = self.local_pending.take();
                }
            }

            Event::Uplinked { tag } => {
                let now = ctx.now();
                let request = Request {
                    tenant: DEVICE_TENANT,
                    model: self.config.model,
                    submitted_at: now,
                    tag,
                };
                match self.submit_to_server(ctx, request) {
                    // The packet crossed the link into a dead endpoint.
                    // The frame stays un-arrived, so its timeout is
                    // attributed to the network side (no server saw it).
                    TierSubmit::Lost => {}
                    // Turned away at the door: the tier saw it, so the
                    // timeout is attributed to server load, exactly like
                    // a batch-formation rejection.
                    TierSubmit::AdmissionRejected => {
                        self.runtime.frame_arrived_at_server(tag, now);
                        self.runtime.frame_rejected_by_server(tag, now);
                    }
                    TierSubmit::Queued { .. } | TierSubmit::BatchStarted { .. } => {
                        self.runtime.frame_arrived_at_server(tag, now);
                    }
                }
            }

            Event::BatchDone { server, epoch } => {
                if epoch != self.tier.epoch(server) {
                    // Scheduled by a server process that has since crashed;
                    // the batch died with it.
                    return;
                }
                let now = ctx.now();
                self.tier.batch_done_into(server, now, &mut self.batch_out);
                for c in &self.batch_out.completions {
                    if c.request.tenant == DEVICE_TENANT {
                        let at = now + self.config.link.propagation;
                        let response = Event::Response { tag: c.request.tag };
                        ctx.schedule_lane(lane::RESPONSE, at, response);
                    }
                }
                for r in &self.batch_out.rejections {
                    if r.request.tenant == DEVICE_TENANT && r.request.tag < BACKGROUND_TAG_BASE {
                        self.runtime.frame_rejected_by_server(r.request.tag, now);
                    }
                }
                if let Some(done_at) = self.batch_out.next_done {
                    ctx.schedule_lane(lane::BATCH, done_at, Event::BatchDone { server, epoch });
                }
            }

            Event::Response { tag } => {
                let now = ctx.now();
                match self.runtime.on_response(tag, now, true) {
                    FrameOutcome::Success { latency, breakdown } => {
                        let latency_ms = latency.as_secs_f64() * 1_000.0;
                        self.latencies.record_ms(latency_ms);
                        self.trace
                            .resolve(tag, FrameFate::OffloadSucceeded { latency_ms });
                        if let (Some(up), Some(srv)) = (breakdown.uplink, breakdown.server_and_down)
                        {
                            self.uplink_latencies.record_ms(up.as_secs_f64() * 1_000.0);
                            self.server_latencies.record_ms(srv.as_secs_f64() * 1_000.0);
                        }
                    }
                    FrameOutcome::Timeout { cause } => {
                        self.trace.resolve(tag, timeout_fate(cause));
                    }
                    // Probes are absorbed by the runtime; `Stale` means the
                    // deadline event already resolved this frame. Sim
                    // responses always carry `ok = true` (rejections arrive
                    // through the batch path), so `Rejected` cannot occur.
                    FrameOutcome::Probe | FrameOutcome::Stale | FrameOutcome::Rejected => {}
                }
            }

            Event::Deadline { tag } => {
                if let Some(cause) = self.runtime.on_deadline(tag, ctx.now()) {
                    self.trace.resolve(tag, timeout_fate(cause));
                }
            }

            Event::Tick => self.tick(ctx),

            Event::NetworkChange(step) => {
                let conditions = self.config.network.steps()[step].1;
                self.link.set_conditions(conditions);
                if let Some(model) = self.config.loss_model {
                    self.link.set_loss_model(model);
                }
            }

            Event::LoadChange(step) => {
                let t = self.config.background.steps()[step].0;
                self.bg_rate = self.total_background_rate(t);
                self.schedule_background(ctx);
            }

            Event::BackgroundArrival => {
                self.bg_pending = false;
                let now = ctx.now();
                let tag = BACKGROUND_TAG_BASE + self.bg_seq;
                self.bg_seq += 1;
                let request = Request {
                    tenant: BACKGROUND_TENANT,
                    model: self.config.model,
                    submitted_at: now,
                    tag,
                };
                self.submit_to_server(ctx, request);
                self.schedule_background(ctx);
            }

            Event::ServerCrash => {
                // The legacy outage semantics: the whole tier goes dark
                // at once (for N = 1 this is exactly the old behaviour).
                for i in 0..self.tier.len() {
                    self.tier.crash(i);
                }
            }

            Event::ServerRecover => {
                for i in 0..self.tier.len() {
                    self.tier.recover(i);
                }
            }
        }
    }
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
    run_experiment_inner(config, controller, telemetry, false).0
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
    let (result, trace) = run_experiment_inner(config, controller, &Telemetry::disabled(), true);
    (result, trace.expect("recording was requested"))
}

fn run_experiment_inner(
    config: ExperimentConfig,
    mut controller: Box<dyn Controller>,
    telemetry: &Telemetry,
    record_binary_trace: bool,
) -> (ExperimentResult, Option<Vec<u8>>) {
    let rng = RngFactory::new(config.seed);
    let fs = config.stream.fps;
    if let Some(outage) = &config.outage {
        outage.validate();
    }

    // Run-constant Table III accuracies: the device model answers local
    // frames, `remote_model` (when set) answers offloaded ones.
    let local_accuracy = config.model.profile().top1_accuracy;
    let offload_model = config.remote_model.unwrap_or(config.model);
    let remote_accuracy = offload_model.profile().top1_accuracy;

    // The runtime makes the bootstrap decision at t = 0 so policies with
    // static targets (e.g. always-offload) act from the first frame.
    let mut runtime = DeviceRuntime::new(
        RuntimeConfig {
            fs,
            deadline: config.deadline,
            controller_period: config.controller_period,
            timeout_window: config.timeout_window,
            probe_bytes: config.stream.compression.mean_frame_bytes(),
            selection: config.selection,
            local_accuracy,
            remote_accuracy,
        },
        controller.as_mut(),
    );
    if record_binary_trace {
        let header = trace_header(runtime.config(), config.seed, controller.name());
        runtime.set_trace(TraceHandle::recording(&header));
    }

    // A replayed schedule ends at its recorded last capture; a generated
    // one at `total_frames` intervals. Both get the deadline tail so the
    // final offloads can resolve.
    let stream_end = match &config.replay {
        Some(replay) => replay.duration() + config.stream.frame_interval(),
        None => config.stream.stream_duration(),
    };
    let end_at = SimTime::ZERO + stream_end + config.deadline;
    let initial_conditions = *config.network.value_at(0.0);
    let initial_bg =
        config.background.value_at(0.0) + config.peer_devices as f64 * config.peer_rate_fps;

    let mut link = Link::new(config.link, initial_conditions, rng.stream("link"));
    if let Some(model) = config.loss_model {
        link.set_loss_model(model);
    }
    let source = match (&config.replay, &config.scene) {
        (Some(replay), _) => FrameStream::Replay(ReplayCursor::new(replay.clone())),
        (None, Some(script)) => FrameStream::Generated(FrameSource::with_scene(
            config.stream,
            rng.stream("frames"),
            script.clone(),
            rng.stream("scene"),
        )),
        (None, None) => {
            FrameStream::Generated(FrameSource::new(config.stream, rng.stream("frames")))
        }
    };
    let tier_config = config
        .tier
        .clone()
        .unwrap_or_else(|| TierConfig::single(config.gpu, OverflowPolicy::default()));
    let tier = ServerTier::new(&tier_config);
    let n_servers = tier.len();
    let world = World {
        runtime,
        source,
        engine: LocalEngine::new(config.device, config.model, rng.stream("local")),
        link,
        tier,
        routing_rng: rng.stream("routing"),
        batch_out: BatchOutput::default(),
        bg_arrivals: PoissonArrivals::new(rng.stream("background")),
        bg_rate: initial_bg,
        bg_pending: false,
        bg_seq: 0,
        latencies: LatencyStats::new(),
        uplink_latencies: LatencyStats::new(),
        server_latencies: LatencyStats::new(),
        frames_local: 0,
        filter: config.filter.map(SemanticFilter::new),
        offload_model,
        quality: config.adaptive_quality.map(QualityAdapter::new),
        accuracy_sum: 0.0,
        quality_sum: 0.0,
        trace: FrameTrace::with_capacity(config.record_trace, config.stream.total_frames as usize),
        local_running: None,
        local_pending: None,
        selector: config
            .adaptive_local_model
            .clone()
            .map(|c| ModelSelector::new(c, config.device)),
        current_local_accuracy: config.model.profile().top1_accuracy,
        local_accuracy_sum: 0.0,
        local_done_total: 0,
        end_at,
        obs: FleetObs::new(telemetry, 1, n_servers),
        controller,
        config,
    };

    let controller_period = world.config.controller_period;
    let outage = world.config.outage;
    let network_steps: Vec<f64> = world
        .config
        .network
        .steps()
        .iter()
        .map(|&(t, _)| t)
        .collect();
    let background_steps: Vec<f64> = world
        .config
        .background
        .steps()
        .iter()
        .map(|&(t, _)| t)
        .collect();

    // Every recurring event rides a lane, so the calendar itself holds
    // only the network/load steps and the outage, all filed here.
    let mut sim = Simulation::new(world);
    let first_capture = sim.model().source.next_capture_time();
    sim.schedule_lane(lane::CAPTURE, first_capture, Event::Capture);
    sim.schedule_lane(lane::TICK, SimTime::ZERO + controller_period, Event::Tick);
    for (i, &t) in network_steps.iter().enumerate().skip(1) {
        sim.schedule_at(SimTime::from_secs_f64(t), Event::NetworkChange(i));
    }
    for (i, &t) in background_steps.iter().enumerate().skip(1) {
        sim.schedule_at(SimTime::from_secs_f64(t), Event::LoadChange(i));
    }
    // Kick off the initial background process.
    sim.schedule_at(SimTime::ZERO, Event::LoadChange(0));
    if let Some(outage) = outage {
        sim.schedule_at(SimTime::from_secs_f64(outage.from_secs), Event::ServerCrash);
        sim.schedule_at(
            SimTime::from_secs_f64(outage.until_secs),
            Event::ServerRecover,
        );
    }

    sim.run_until(end_at);
    let now = sim.now();
    let mut world = sim.into_model();
    world.obs.telemetry.poll();

    let local_busy_fraction = world.engine.busy_fraction(now);
    let frames_generated = world.source.generated();
    let frames_offloaded = world.runtime.frames_offloaded();
    let offload_share = if frames_generated == 0 {
        0.0
    } else {
        (frames_offloaded as f64 / frames_generated as f64).min(1.0)
    };
    let cpu_usage_pct = CpuModel::default().usage_pct(local_busy_fraction, offload_share);
    let offload_successes = world.runtime.successes();
    let offload_timeouts = world.runtime.timeouts();
    let binary_trace = world.runtime.finish_trace(now);
    let qos = world.runtime.into_qos();

    let result = ExperimentResult {
        controller: world.controller.name().to_string(),
        offload_latency: world.latencies.summary(),
        uplink_latency: world.uplink_latencies.summary(),
        server_latency: world.server_latencies.summary(),
        link_stats: world.link.stats(),
        server_stats: world.tier.total_stats(),
        per_server_stats: world.tier.per_server_stats(),
        admission_rejections: world.tier.admission_rejections(),
        cpu_usage_pct,
        local_busy_fraction,
        frames_generated,
        frames_offloaded,
        frames_local: world.frames_local,
        offload_successes,
        offload_timeouts,
        mean_throughput: qos.mean_throughput(),
        mean_offload_accuracy: (frames_offloaded > 0)
            .then(|| world.accuracy_sum / frames_offloaded as f64),
        mean_offload_quality: (frames_offloaded > 0)
            .then(|| world.quality_sum / frames_offloaded as f64),
        mean_local_accuracy: (world.local_done_total > 0)
            .then(|| world.local_accuracy_sum / world.local_done_total as f64),
        trace: world.trace.is_enabled().then(|| world.trace.into_records()),
        filter_stats: world.filter.as_ref().map(|f| f.stats()),
        mean_accuracy_weighted_throughput: qos.mean_accuracy_weighted(),
        qos,
    };
    (result, binary_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_baselines::{AllOrNothing, AlwaysOffload, LocalOnly};
    use ff_core::FrameFeedback;

    fn short_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::default();
        c.stream.total_frames = 900; // 30 s at 30 fps
        c.peer_devices = 0;
        c
    }

    #[test]
    fn local_only_throughput_is_the_table_ii_rate() {
        let result = run_experiment(short_config(), Box::new(LocalOnly::new()));
        assert_eq!(result.controller, "local-only");
        assert_eq!(result.frames_offloaded, 0);
        let p = result.mean_throughput;
        assert!(
            (p - 13.0).abs() < 1.5,
            "local-only throughput {p:.1}, expected ~13 (Pi 4B r1.2, MNv3Small)"
        );
        assert_eq!(result.offload_timeouts, 0);
    }

    #[test]
    fn always_offload_on_ideal_network_reaches_fs() {
        let result = run_experiment(short_config(), Box::new(AlwaysOffload::new()));
        let p = result.mean_throughput;
        assert!(
            p > 27.0,
            "always-offload under ideal conditions got {p:.1}, expected ~30"
        );
        assert!(result.offload_latency.unwrap().p95_ms < 250.0);
    }

    #[test]
    fn framefeedback_ramps_to_full_offload_on_ideal_network() {
        let result = run_experiment(short_config(), Box::new(FrameFeedback::new()));
        // Ramp at +0.1·F_s per second: full offloading from ~t=10 s.
        let late = result.qos.aggregate(15.0, 30.0).unwrap();
        assert!(
            late.mean_po_target > 28.0,
            "P_o target after ramp {:.1}, expected ~30",
            late.mean_po_target
        );
        assert!(late.mean_throughput > 26.0);
    }

    #[test]
    fn all_or_nothing_offloads_when_heartbeats_succeed() {
        let result = run_experiment(short_config(), Box::new(AllOrNothing::new()));
        let late = result.qos.aggregate(5.0, 30.0).unwrap();
        assert!(
            late.mean_po > 25.0,
            "heartbeats succeed on the ideal network; got P_o {:.1}",
            late.mean_po
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_experiment(short_config(), Box::new(FrameFeedback::new()));
        let b = run_experiment(short_config(), Box::new(FrameFeedback::new()));
        assert_eq!(a.frames_offloaded, b.frames_offloaded);
        assert_eq!(a.offload_timeouts, b.offload_timeouts);
        assert_eq!(a.qos.records().len(), b.qos.records().len());
        for (ra, rb) in a.qos.records().iter().zip(b.qos.records()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = short_config();
        cfg.seed = 1;
        let a = run_experiment(cfg.clone(), Box::new(FrameFeedback::new()));
        cfg.seed = 2;
        let b = run_experiment(cfg, Box::new(FrameFeedback::new()));
        // Same macro behaviour, different micro trace: frame-size jitter
        // and service jitter shift individual latencies.
        assert_ne!(
            a.offload_latency.unwrap().mean_ms,
            b.offload_latency.unwrap().mean_ms
        );
    }

    #[test]
    fn server_outage_drives_target_to_probe_floor_and_recovers() {
        let mut cfg = short_config();
        cfg.stream.total_frames = 2700; // 90 s at 30 fps
        cfg.outage = Some(ServerOutage {
            from_secs: 20.0,
            until_secs: 70.0,
        });
        let result = run_experiment(cfg, Box::new(FrameFeedback::new()));

        // Before the crash the controller is ramping normally.
        let before = result.qos.aggregate(15.0, 20.0).unwrap();
        assert!(
            before.mean_po_target > 20.0,
            "pre-outage target {:.1} should be near F_s",
            before.mean_po_target
        );

        // §III-A.1: with every offload failing, P_o settles at 0.1·F_s.
        let floor = 0.1 * 30.0;
        let during = result.qos.aggregate(50.0, 70.0).unwrap();
        assert!(
            (during.mean_po_target - floor).abs() <= 0.5,
            "outage target {:.2} should sit at the {floor:.1} fps probe floor",
            during.mean_po_target
        );

        // Recovery within 5 controller intervals of the server's return.
        let recovered_at = result
            .qos
            .records()
            .iter()
            .find(|r| r.t_secs >= 70.0 && r.po_target > floor + 0.5)
            .map(|r| r.t_secs)
            .expect("target never left the probe floor after recovery");
        assert!(
            recovered_at <= 75.0,
            "target recovered only at t={recovered_at:.0}s"
        );
        let after = result.qos.aggregate(82.0, 90.0).unwrap();
        assert!(
            after.mean_po_target > 25.0,
            "post-recovery target {:.1} should be back near F_s",
            after.mean_po_target
        );

        // Throughput never collapses below the local floor (§II-A.5).
        assert!(during.mean_throughput > 10.0);
    }

    #[test]
    fn outage_requests_vanish_rather_than_complete() {
        let mut cfg = short_config();
        cfg.outage = Some(ServerOutage {
            from_secs: 5.0,
            until_secs: 25.0,
        });
        let down = run_experiment(cfg, Box::new(AlwaysOffload::new()));
        let up = run_experiment(short_config(), Box::new(AlwaysOffload::new()));
        assert!(down.offload_timeouts > 200, "the outage must cost timeouts");
        assert!(
            down.server_stats.completions < up.server_stats.completions / 2,
            "a 20 s outage in a 30 s run must slash completions ({} vs {})",
            down.server_stats.completions,
            up.server_stats.completions
        );
    }

    #[test]
    #[should_panic(expected = "outage must end after it starts")]
    fn inverted_outage_window_is_rejected() {
        let mut cfg = short_config();
        cfg.outage = Some(ServerOutage {
            from_secs: 10.0,
            until_secs: 10.0,
        });
        run_experiment(cfg, Box::new(FrameFeedback::new()));
    }

    #[test]
    fn bad_network_drives_framefeedback_to_the_probe_floor() {
        let mut cfg = short_config();
        cfg.stream.total_frames = 1800; // 60 s
        cfg.network = StepSchedule::constant(NetworkConditions::new(1.0, 30.0));
        let result = run_experiment(cfg, Box::new(FrameFeedback::new()));
        let late = result.qos.aggregate(30.0, 60.0).unwrap();
        // §III-A.1: P_o stabilizes at ~0.1·F_s when offloading always fails.
        assert!(
            late.mean_po_target < 6.0,
            "P_o target {:.1} should sit near the 3 fps probe floor",
            late.mean_po_target
        );
        // Throughput stays near the local rate: the controller protects
        // P >= P_l (§II-A.5).
        assert!(
            late.mean_throughput > 10.0,
            "throughput {:.1} collapsed below the local floor",
            late.mean_throughput
        );
    }

    #[test]
    fn always_offload_collapses_on_a_bad_network() {
        let mut cfg = short_config();
        cfg.network = StepSchedule::constant(NetworkConditions::new(1.0, 30.0));
        let ff = run_experiment(cfg.clone(), Box::new(FrameFeedback::new()));
        let ao = run_experiment(cfg, Box::new(AlwaysOffload::new()));
        assert!(
            ff.mean_throughput > 1.5 * ao.mean_throughput,
            "FrameFeedback {:.1} must beat always-offload {:.1} on a bad network",
            ff.mean_throughput,
            ao.mean_throughput
        );
    }

    #[test]
    fn cpu_usage_drops_when_offloading() {
        let local = run_experiment(short_config(), Box::new(LocalOnly::new()));
        let offload = run_experiment(short_config(), Box::new(AlwaysOffload::new()));
        assert!(
            local.cpu_usage_pct > 45.0,
            "local-only CPU {:.1}%, paper ~50.2%",
            local.cpu_usage_pct
        );
        assert!(
            offload.cpu_usage_pct < 30.0,
            "offloading CPU {:.1}%, paper ~22.3%",
            offload.cpu_usage_pct
        );
    }

    #[test]
    fn background_load_produces_server_pressure() {
        let mut cfg = short_config();
        cfg.background = StepSchedule::constant(170.0); // beyond saturation (~150)
        let result = run_experiment(cfg, Box::new(AlwaysOffload::new()));
        assert!(
            result.server_stats.rejections > 0,
            "overloaded server must reject"
        );
        assert!(
            result.offload_timeouts > 0,
            "saturation must cause timeouts"
        );
    }

    #[test]
    fn frame_trace_accounts_for_every_frame() {
        use crate::trace::TraceSummary;
        let mut cfg = short_config();
        cfg.record_trace = true;
        cfg.network = StepSchedule::constant(NetworkConditions::new(4.0, 3.0));
        let result = run_experiment(cfg, Box::new(FrameFeedback::new()));
        let trace = result.trace.as_ref().expect("trace was requested");
        assert_eq!(trace.len() as u64, result.frames_generated);
        let summary = TraceSummary::of(trace);
        assert_eq!(summary.total(), result.frames_generated);
        // Cross-check against the aggregate counters.
        assert_eq!(
            summary.offload_succeeded + summary.offload_timed_out + summary.unresolved,
            result.frames_offloaded,
            "offload fates must match the offload count"
        );
        assert_eq!(summary.offload_succeeded, result.offload_successes);
        assert!(summary.local_completed > 0);
        assert!(
            summary.unresolved <= 20,
            "only horizon stragglers may stay unresolved"
        );
        // Capture times are monotone at the frame cadence.
        for w in trace.windows(2) {
            assert!(w[1].captured_secs > w[0].captured_secs);
        }
    }

    #[test]
    fn trace_is_absent_unless_requested() {
        let result = run_experiment(short_config(), Box::new(LocalOnly::new()));
        assert!(result.trace.is_none());
    }

    #[test]
    fn qos_log_has_one_record_per_second() {
        let result = run_experiment(short_config(), Box::new(LocalOnly::new()));
        // 30 s stream → ~30 ticks.
        let n = result.qos.records().len();
        assert!((29..=31).contains(&n), "got {n} records");
    }
}
