//! Multi-device (fleet) simulation.
//!
//! The paper's testbed runs *three Raspberry Pis concurrently* against
//! one server (§IV-A). [`run_fleet`] simulates exactly that: every device
//! has its own frame source, uplink, local engine, and controller, and
//! they all contend for the shared batching server. This is also the
//! substrate for the fairness ablation (§II-A.3 / `OverflowPolicy`):
//! per-device outcomes expose how the server splits saturated capacity.
//!
//! Devices now submit through a [`ServerTier`] — N servers behind a
//! routing policy and an admission policy (`FleetConfig::tier`). The
//! paper's topology is the `N = 1` default, which is bit-identical to
//! the pre-tier single-server path; per-server maintenance windows
//! ([`TierOutage`]) fold the crash/epoch machinery in at fleet scale
//! for rolling-restart scenarios. Both engines drive the tier through
//! one [`TierDriver`]: it turns a delivered uplink into a tier request
//! and the device's arrival verdict, and a finished batch into the
//! responses and rejections its host delivers.
//!
//! The device control loop is [`crate::runtime`]'s, the same one the
//! live clients and the replayer run: this module is a host adapter. The
//! single-device experiment is this host too: its features are fleet
//! options, its accounting a [`Watch`] on one row. [`FleetCore`] owns
//! each device's frame source, uplink, local engine and option columns,
//! turns simulation events into runtime calls and schedules what they
//! ask for; the only difference between the single-threaded engine and a
//! shard ([`crate::shard`]) is where a delivered uplink goes (see
//! [`FleetCore`]).
//!
//! What reaches the calendar: an event is filed only if something other
//! than its own device can observe its instant. Captures, ticks,
//! deadlines and responses are each filed a constant distance ahead, so
//! they wait on the event queue's FIFO lanes ([`lane`]); a finished
//! batch's responses share one entry; a local inference's completion
//! is not filed at all — the engine applies it when its device next looks
//! ([`EngineState::apply_due`]); and a shard applies a device's local
//! captures up to its next offload or tick in place
//! ([`FleetCore::capture`]). DESIGN.md §"What is a calendar event".
//!
//! Per-device state lives in structure-of-arrays form ([`FleetDevices`]),
//! indexed by the device id packed into each tag ([`crate::tags`] defines
//! the layout). The runtime's state is two of those columns — the
//! cache line every capture touches, and everything only an offload
//! touches ([`RuntimeColumns`]) — so a device parked at the probe floor
//! is served from a small array while its flight table stays cold.

use crate::local::{EngineState, Service};
use crate::quality::QualityAdapter;
use crate::runtime::{
    bootstrap, trace_header, DeviceLoop, FrameState, OffloadState, RuntimeConfig, SubmitOutcome,
    TickOutput, Transport,
};
use crate::selection::ModelSelection;
use crate::selector::ModelSelector;
use crate::splitter::Route;
use crate::watch::Watch;
use ff_core::Controller;
use ff_metrics::QosLog;
use ff_models::{DeviceKind, ModelKind};
use ff_net::{
    LinkConfig, LinkParams, LinkState, LinkStats, LossModel, NetworkConditions, SendOutcome,
};
use ff_server::{
    jain_fairness_index, Background, BackgroundConfig, BatchOutput, Request, ServerStats,
    ServerTier, TenantId, TierConfig, TierSubmit,
};
use ff_sim::{
    Ctx, EventQueue, IndexedStream, QueueBackend, RngFactory, SimDuration, SimModel, SimTime,
    Simulation, LANES, LANE_RUN_MAX,
};
use ff_telemetry::{Metric, Recorder, Scope, Telemetry};
use ff_trace::TraceHandle;
use ff_workload::{
    FilterConfig, FilterStats, FilterVerdict, ReplayCursor, ReplayFrames, SceneScript,
    SemanticFilter, SourceState, StepSchedule, StreamConfig, StreamParams,
};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use crate::tags::{
    fleet_tag as make_tag, fleet_tag_device as tag_device, is_background_tag,
    is_probe_tag as tag_is_probe, BACKGROUND_TAG_BASE, FLEET_MAX_DEVICES,
};

/// The event queue's lanes ([`ff_sim::LANES`]), one per class of event
/// the fleet host files in time order. The first four are filed a
/// constant distance ahead of `now` (a shard's captures excepted, see
/// [`CAPTURE`]); the last three are FIFO per link,
/// per server and per background process, so with one device and one
/// server they stay in step, while in a larger fleet an out-of-order push
/// falls through to the backend under its own sequence number (pop order
/// never changes). A shard files only the first four.
pub(crate) mod lane {
    /// The next capture: one frame interval ahead, except in a shard,
    /// which applies a device's local captures in place and files only
    /// its next offloaded one or the first at or after its next tick
    /// ([`FleetCore::capture`](super::FleetCore::capture)). Those are
    /// filed further ahead, and fall through when out of step.
    pub(crate) const CAPTURE: usize = 0;
    /// The next controller tick, one period ahead.
    pub(crate) const TICK: usize = 1;
    /// A frame's or a probe's deadline.
    pub(crate) const DEADLINE: usize = 2;
    /// A response, one propagation delay after its batch.
    pub(crate) const RESPONSE: usize = 3;
    /// One link's deliveries to the server, probes included: FIFO, but a
    /// frame that overtakes one a retransmission round holds back falls
    /// through.
    pub(crate) const UPLINK: usize = 4;
    /// One server's successive batch completions (with several servers,
    /// out-of-order ones fall through to the backend).
    pub(crate) const BATCH: usize = 5;
    /// The single pending background arrival.
    pub(crate) const BACKGROUND: usize = 6;
}

/// Engine tuning knobs for a fleet run. These change **how fast** the
/// simulation executes, never **what** it computes: every combination
/// produces bit-identical QoS logs and server stats (pinned by
/// `tests/shard_determinism.rs` and this module's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Event-queue backend driving the simulation calendar.
    pub backend: QueueBackend,
    /// Reuse one [`BatchOutput`] across all batch completions instead of
    /// allocating a fresh completions vector per batch. Disabling this
    /// exists only to measure the allocating baseline.
    pub reuse_batch_buffers: bool,
    /// Number of device shards to simulate in parallel (each on its own
    /// thread with a private event queue). `1` (or `0`) runs the
    /// single-threaded engine; any value is bit-identical to any other
    /// (pinned by `tests/shard_determinism.rs`). Shard counts above the
    /// device count are clamped.
    pub shards: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            backend: QueueBackend::Wheel,
            reuse_batch_buffers: true,
            shards: 1,
        }
    }
}

/// One server's maintenance window inside a fleet run: server `server`
/// crashes at `from_secs` (queue and running batch lost, epoch bumped)
/// and comes back — empty and idle — at `until_secs`. Several windows
/// staggered across servers model a rolling restart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierOutage {
    /// Index of the server that goes down.
    pub server: usize,
    /// Crash instant, in seconds of simulated time.
    pub from_secs: f64,
    /// Recovery instant, in seconds of simulated time.
    pub until_secs: f64,
}

impl TierOutage {
    /// Why this window cannot run on a tier of `servers`, if it cannot:
    /// it names a server the tier lacks, starts negative or ends before
    /// it starts.
    pub(crate) fn check(&self, servers: usize) -> Result<(), String> {
        let (server, from, until) = (self.server, self.from_secs, self.until_secs);
        let why = if server >= servers {
            format!("outage names server {server} but the tier has {servers}")
        } else if !(from.is_finite() && from >= 0.0) {
            format!("outage start must be finite and >= 0, got {from}")
        } else if !(until.is_finite() && until > from) {
            format!("outage must end after it starts: [{from}, {until})")
        } else {
            return Ok(());
        };
        Err(why)
    }
}

/// Per-device configuration inside a fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetDeviceConfig {
    /// Hardware profile of this device.
    pub device: DeviceKind,
    /// Classification model it runs (locally and via offloading).
    pub model: ModelKind,
}

/// Fleet-wide configuration. The adaptive-quality and local-model
/// ladders are switched on by flag; their settings are constants of
/// `quality.rs` and `selector.rs`.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master seed for all of the fleet's RNG streams.
    pub seed: u64,
    /// One entry per device (the paper uses the three Pis of Table II).
    pub devices: Vec<FleetDeviceConfig>,
    /// Shared stream parameters (every device captures the same cadence).
    pub stream: StreamConfig,
    /// End-to-end offload deadline.
    pub deadline: SimDuration,
    /// Static uplink parameters (shared by all devices).
    pub link: LinkConfig,
    /// Network schedule applied to every device's uplink (unless
    /// overridden per device below).
    pub network: StepSchedule<NetworkConditions>,
    /// Optional per-device schedules (e.g. independent mobility traces);
    /// when set, must have one entry per device and replaces `network`.
    pub per_device_network: Option<Vec<StepSchedule<NetworkConditions>>>,
    /// Controller measurement period (1 s in the paper).
    pub controller_period: SimDuration,
    /// Trailing window for the timeout-rate controller input.
    pub timeout_window: SimDuration,
    /// The server tier: N servers plus routing and admission policies.
    /// `None` means `TierConfig::default()`, the paper's single server
    /// (default GPU profile, reject-newest overflow).
    pub tier: Option<TierConfig>,
    /// Per-server maintenance windows (rolling restarts). Empty by
    /// default; scheduling none keeps the event stream unchanged.
    pub outages: Vec<TierOutage>,
    /// Engine tuning (queue backend, buffer reuse, shard count).
    /// Results are independent of this choice.
    pub engine: EngineOptions,
    /// Observability pipeline. Disabled by default; enabling it leaves
    /// fleet results bit-identical (asserted by `telemetry_inert.rs`) —
    /// recorders never schedule events or touch an RNG stream.
    pub telemetry: Telemetry,
    /// Optional scene script modulating every device's per-frame
    /// information (each device gets its own `"fleet-scene"` indexed
    /// stream, so enabling this never perturbs the existing streams).
    /// `None` keeps the fleet bit-identical to the pre-scene path.
    pub scene: Option<SceneScript>,
    /// Optional semantic frame filter applied per device before
    /// routing. Inert without `scene` (frames carry no information
    /// score otherwise); `None` is bit-identical to no filtering.
    pub filter: Option<FilterConfig>,
    /// Model-selection policy shared by all devices. The default
    /// `AlwaysPaper` reproduces the paper's fixed split bit-for-bit.
    pub selection: ModelSelection,
    /// Model served by the tier for offloaded frames. `None` means each
    /// device's own `model` (the paper's symmetric setup).
    pub remote_model: Option<ModelKind>,
    /// Adaptive JPEG quality on every device; like the next three, the
    /// `ExperimentConfig` field of the same name, fleet-wide. Off leaves
    /// the `quality` column empty.
    pub adaptive_quality: bool,
    /// The adaptive local-model ladder on every device.
    pub adaptive_local_model: bool,
    /// A loss process replacing every link's Bernoulli loss.
    pub loss_model: Option<LossModel>,
    /// A capture schedule every device replays; not with `scene`.
    pub replay: Option<ReplayFrames>,
    /// Poisson load from tenants outside the fleet, billed to tenant
    /// `devices.len()`; `None` files no event. Single-threaded only.
    pub background: Option<BackgroundConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            devices: vec![
                FleetDeviceConfig {
                    device: DeviceKind::Pi3BRev12,
                    model: ModelKind::MobileNetV3Small,
                },
                FleetDeviceConfig {
                    device: DeviceKind::Pi4BRev12,
                    model: ModelKind::MobileNetV3Small,
                },
                FleetDeviceConfig {
                    device: DeviceKind::Pi4BRev14,
                    model: ModelKind::MobileNetV3Small,
                },
            ],
            stream: StreamConfig::default(),
            deadline: SimDuration::from_millis(250),
            link: LinkConfig::default(),
            network: ff_workload::ideal_network(),
            per_device_network: None,
            controller_period: SimDuration::from_secs(1),
            timeout_window: SimDuration::from_secs(3),
            tier: None,
            outages: Vec::new(),
            engine: EngineOptions::default(),
            telemetry: Telemetry::disabled(),
            scene: None,
            filter: None,
            selection: ModelSelection::AlwaysPaper,
            remote_model: None,
            adaptive_quality: false,
            adaptive_local_model: false,
            loss_model: None,
            replay: None,
            background: None,
        }
    }
}

impl FleetConfig {
    /// Why this fleet cannot run, if it cannot: every rule a run
    /// enforces on its configuration (by panicking, before the first
    /// event), as a `Result`, so that a configuration read from a file
    /// can be refused before anything runs.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.devices.is_empty() {
            return Err("fleet needs at least one device".into());
        }
        if self.devices.len() > FLEET_MAX_DEVICES {
            return Err(format!(
                "a fleet holds at most {FLEET_MAX_DEVICES} devices (a tag's device \
                 index has 21 bits), got {}",
                self.devices.len()
            ));
        }
        self.stream
            .check()
            .map_err(|why| format!("stream: {why}"))?;
        check_network_schedule(&self.network, None)?;
        if let Some(schedules) = &self.per_device_network {
            if schedules.len() != self.devices.len() {
                return Err("one network schedule per device".into());
            }
            for (dev, schedule) in schedules.iter().enumerate() {
                check_network_schedule(schedule, Some(dev))?;
            }
        }
        if let Some(loss) = &self.loss_model {
            loss.check().map_err(|why| format!("loss_model: {why}"))?;
        }
        if let Some(load) = &self.background {
            load.check()?;
        }
        if self.replay.is_some() && self.scene.is_some() {
            return Err(
                "`replay` cannot be combined with `scene`: a replayed frame carries \
                 no information score, so the scene (and any `filter`) would be ignored"
                    .into(),
            );
        }
        // `None` is the default tier: one valid server.
        if let Some(tier) = &self.tier {
            tier.check()?;
        }
        let servers = self.tier.as_ref().map_or(1, |tier| tier.servers.len());
        self.outages
            .iter()
            .try_for_each(|outage| outage.check(servers))?;
        if self.engine.shards > 1 {
            self.check_sharded()?;
        }
        Ok(())
    }

    /// Why the sharded engine cannot run this fleet, at any shard count,
    /// if it cannot.
    pub(crate) fn check_sharded(&self) -> Result<(), String> {
        // Why: DESIGN.md §"Sharded engine", "Background load stays on one thread".
        if self.background.is_some() {
            return Err(
                "`background` load needs the single-threaded engine (shards: 1): \
                 the shard coordinator cannot order its arrivals among same-instant \
                 device deliveries"
                    .into(),
            );
        }
        if self.link.propagation.is_zero() {
            return Err(
                "sharded execution derives its lookahead window from the link \
                 propagation floor, which must be at least 1µs"
                    .into(),
            );
        }
        Ok(())
    }

    /// The tier request a delivered uplink becomes on arrival at `now`:
    /// billed to the sending device, for the model the tier runs for it
    /// (`remote_model`, else the device's own).
    pub(crate) fn request_for(&self, tag: u64, now: SimTime) -> Request {
        let dev = tag_device(tag);
        Request {
            tenant: TenantId(dev as u32),
            model: self.remote_model.unwrap_or(self.devices[dev].model),
            submitted_at: now,
            tag,
        }
    }

    /// The instant the run ends: the stream's duration (a replay's plus
    /// one frame interval) plus one deadline of drain time.
    pub(crate) fn end_at(&self) -> SimTime {
        let stream = match &self.replay {
            Some(replay) => replay.duration() + self.stream.frame_interval(),
            None => self.stream.stream_duration(),
        };
        SimTime::ZERO + stream + self.deadline
    }

    /// The instant of every device's first capture: a replayed
    /// schedule's first, else the start of the run.
    pub(crate) fn first_capture(&self) -> SimTime {
        let first = |replay| ReplayCursor::default().next_capture_time(replay);
        self.replay.as_ref().map_or(SimTime::ZERO, first)
    }
}

/// Per-device outcome of a fleet run.
#[derive(Debug, Serialize)]
pub struct FleetDeviceResult {
    /// Controller name driving this device.
    pub controller: &'static str,
    /// Device profile name (Table II column).
    pub device: &'static str,
    /// Classification model name.
    pub model: &'static str,
    /// Per-second QoS records for this device.
    pub qos: QosLog,
    /// Frames routed to the uplink.
    pub frames_offloaded: u64,
    /// Frames routed to the local engine.
    pub frames_local: u64,
    /// Offloads that beat the deadline.
    pub offload_successes: u64,
    /// Offloads that missed the deadline.
    pub offload_timeouts: u64,
    /// Mean total throughput `P` for this device.
    pub mean_throughput: f64,
    /// Mean accuracy-weighted throughput (correct classifications per
    /// second) over intervals that completed frames.
    pub mean_accuracy_weighted_throughput: f64,
    /// Semantic-filter accounting for this device (`None` when the
    /// fleet runs without a filter).
    pub filter_stats: Option<FilterStats>,
}

/// Outcome of a fleet run.
#[derive(Debug, Serialize)]
pub struct FleetResult {
    /// Per-device outcomes, in configuration order.
    pub devices: Vec<FleetDeviceResult>,
    /// Tier-wide server counters (sum over all servers).
    pub server_stats: ServerStats,
    /// Per-server counters, in tier order (one entry for the legacy
    /// single-server topology).
    pub per_server_stats: Vec<ServerStats>,
    /// Requests turned away by the admission policy (0 under
    /// `AdmitAll`).
    pub admission_rejections: u64,
    /// Jain fairness index over per-device successful-offload counts.
    pub offload_fairness: f64,
    /// Total throughput summed over devices, per paper Fig. 3 ("evaluated
    /// their total inference throughput").
    pub total_mean_throughput: f64,
    /// Server-side rejections per device index (fairness diagnostics).
    pub rejections_by_device: Vec<u64>,
    /// Events of the model handled during the run: one per capture,
    /// tick, deadline, uplink arrival, batch completion, response,
    /// local-inference completion, outage edge and network-schedule
    /// step that fired at or before the end of the run — whether the
    /// engine popped it from its calendar or applied it some cheaper way
    /// (a response inside a batch entry, a completion applied by its
    /// engine, a response handed over by the shard coordinator).
    /// Independent of backend and shard count.
    pub events_handled: u64,
}

/// The device runtime's state for every device of a [`FleetDevices`],
/// in columns: what [`crate::runtime::DeviceRuntime`] owns per device,
/// laid out so that each event pulls in only the part it needs.
pub(crate) struct RuntimeColumns {
    /// The loop's parameters, shared: devices differ only in the Table
    /// III accuracies of their model, so there is one configuration per
    /// model (indexed by `ModelKind as usize`), not one per row.
    configs: [RuntimeConfig; ModelKind::ALL.len()],
    model: Vec<ModelKind>,
    frame: Vec<FrameState>,
    offload: Vec<OffloadState>,
    qos: Vec<QosLog>,
    /// The one row (by local index) recording an `ff-trace`, if any; a
    /// row carries no handle of its own.
    recording: Option<(usize, TraceHandle)>,
    /// What every other row lends as its trace handle.
    untraced: TraceHandle,
    /// The accounting of the one row a caller watches, if this range of
    /// the fleet has it.
    watch: Option<Watch>,
}

impl RuntimeColumns {
    /// Row `i` as the runtime sees it.
    #[inline]
    pub(crate) fn lend(&mut self, i: usize) -> DeviceLoop<'_> {
        DeviceLoop {
            config: &self.configs[self.model[i] as usize],
            frame: &mut self.frame[i],
            offload: &mut self.offload[i],
            qos: &mut self.qos[i],
            trace: match &mut self.recording {
                Some((row, handle)) if *row == i => handle,
                _ => &mut self.untraced,
            },
            watch: self.watch.as_mut().filter(|watch| watch.row == i),
        }
    }

    /// Whether row `i` records a trace or keeps a [`Watch`]: a row whose
    /// every capture is observed, so never applied ahead.
    fn observes(&self, i: usize) -> bool {
        self.recording.as_ref().is_some_and(|&(row, _)| row == i)
            || self.watch.as_ref().is_some_and(|watch| watch.row == i)
    }

    /// Close the recording row's trace at `now`, if this range of the
    /// fleet has one.
    pub(crate) fn finish_trace(&mut self, now: SimTime) -> Option<Vec<u8>> {
        let row = self.recording.as_ref()?.0;
        self.lend(row).finish_trace(now)
    }
}

/// Structure-of-arrays per-device state. Every column is indexed by
/// the **local** device index (`global - base`); the single-threaded
/// engine has `base == 0`, a shard owns the contiguous global range
/// `[base, base + len)`. Each per-frame handler touches only the
/// columns it needs — a capture never drags the controller or QoS log
/// into cache, a completion only the engine column.
///
/// A row holds what its own next event reads: the source's, the
/// engine's and the link's own state. What devices share — the stream
/// configuration, the service time of a (device, model) pair, the link
/// configuration, the conditions in force and the loss model — is held
/// once per range, and what only the watched row reports (link and
/// engine counters) lives in its [`Watch`].
pub(crate) struct FleetDevices {
    /// Global index of local device 0.
    pub(crate) base: usize,
    pub(crate) controller: Vec<Box<dyn Controller>>,
    pub(crate) stream: StreamParams,
    /// The service of each (device, model) pair, indexed by
    /// `DeviceKind as usize`, then `ModelKind as usize`.
    services: [[Service; ModelKind::ALL.len()]; DeviceKind::ALL.len()],
    /// The links' parameters: one entry all rows share, or one per row
    /// when `FleetConfig::per_device_network` is set ([`params_of`]).
    link_params: Vec<LinkParams>,
    pub(crate) rows: Vec<DeviceRow>,
    /// One filter per device, or empty when `FleetConfig::filter` is
    /// `None`; likewise the next three for their options.
    pub(crate) filter: Vec<SemanticFilter>,
    pub(crate) quality: Vec<QualityAdapter>,
    pub(crate) ladder: Vec<Ladder>,
    /// Each device's position in `FleetConfig::replay`.
    pub(crate) replay: Vec<ReplayCursor>,
    pub(crate) frames_local: Vec<u64>,
    pub(crate) runtime: RuntimeColumns,
}

/// One device's source, engine and link state, driven with the range's
/// shared parameters. One column rather than three: no result reads
/// them, so the run frees them before allocating its results, and as one
/// block per range that space can take the result vector.
pub(crate) struct DeviceRow {
    pub(crate) source: SourceState<IndexedStream>,
    pub(crate) engine: EngineState<IndexedStream>,
    pub(crate) link: LinkState<IndexedStream>,
}

/// A device on the local-model ladder: its selector, and the service its
/// engine runs at — its own model's until the selector first moves.
pub(crate) struct Ladder {
    selector: ModelSelector,
    service: Service,
}

// One row of each per device: a field added to any of them costs a
// 100k-device fleet 100 000× its size. (Checked here, where the RNG the
// fleet instantiates them with is known.)
const _: () = assert!(std::mem::size_of::<SourceState<IndexedStream>>() == 104);
const _: () = assert!(std::mem::size_of::<EngineState<IndexedStream>>() == 104);
const _: () = assert!(std::mem::size_of::<LinkState<IndexedStream>>() == 104);
const _: () = assert!(std::mem::size_of::<DeviceRow>() == 312);

/// Row `i`'s link parameters, out of a range's `link_params`.
#[inline]
fn params_of(params: &[LinkParams], i: usize) -> &LinkParams {
    match params {
        [shared] => shared,
        own => &own[i],
    }
}

/// The link parameters a fleet's device starts on under `schedule`.
fn initial_link_params(
    config: &FleetConfig,
    schedule: &StepSchedule<NetworkConditions>,
) -> LinkParams {
    let mut params = LinkParams::new(config.link, *schedule.value_at(0.0));
    if let Some(model) = config.loss_model {
        params.set_loss_model(model);
    }
    params
}

impl FleetDevices {
    /// Build the state for global devices `[base, base + controllers.len())`,
    /// with global devices `traced` and `watched.0` (if in that range)
    /// recording an `ff-trace` and keeping a [`Watch`].
    ///
    /// Every RNG stream is derived from the **global** device index, so
    /// the same device gets bit-identical randomness regardless of how
    /// the fleet is partitioned into shards.
    pub(crate) fn build(
        config: &FleetConfig,
        controllers: Vec<Box<dyn Controller>>,
        base: usize,
        traced: Option<usize>,
        watched: Option<(usize, bool)>,
    ) -> FleetDevices {
        let rng = RngFactory::new(config.seed);
        let n = controllers.len();
        let column = |on: bool| if on { n } else { 0 };
        // One QoS record per controller tick, the last at or before the
        // end of the run.
        let ticks = (config.end_at().as_micros() / config.controller_period.as_micros()) as usize;
        let mut configs = [RuntimeConfig {
            fs: config.stream.fps,
            deadline: config.deadline,
            controller_period: config.controller_period,
            timeout_window: config.timeout_window,
            probe_bytes: config.stream.compression.mean_frame_bytes(),
            selection: config.selection,
            local_accuracy: 0.0,
            remote_accuracy: 0.0,
        }; ModelKind::ALL.len()];
        for model in ModelKind::ALL {
            let rc = &mut configs[model as usize];
            rc.local_accuracy = model.profile().top1_accuracy;
            let remote = config.remote_model.unwrap_or(model);
            rc.remote_accuracy = remote.profile().top1_accuracy;
        }
        let mut services = [[Service::with_rate(1.0); ModelKind::ALL.len()]; DeviceKind::ALL.len()];
        for device in DeviceKind::ALL {
            for model in ModelKind::ALL {
                services[device as usize][model as usize] = Service::of(device, model);
            }
        }
        let link_params = match &config.per_device_network {
            Some(schedules) => schedules[base..base + n]
                .iter()
                .map(|schedule| initial_link_params(config, schedule))
                .collect(),
            None => vec![initial_link_params(config, &config.network)],
        };
        // The run frees the rows before it allocates the result vector
        // (see `DeviceRow`), so the range that starts the fleet gets a
        // block the results fit in: as rows of a sharded fleet alone
        // they would not, and the result vector would grow the heap by
        // its whole size instead of reusing them.
        let results = config.devices.len() * std::mem::size_of::<FleetDeviceResult>();
        let rows = match base {
            0 => n.max(results.div_ceil(std::mem::size_of::<DeviceRow>())),
            _ => n,
        };
        let mut devs = FleetDevices {
            base,
            controller: controllers,
            stream: StreamParams::new(config.stream),
            services,
            link_params,
            rows: Vec::with_capacity(rows),
            filter: Vec::with_capacity(column(config.filter.is_some())),
            quality: Vec::with_capacity(column(config.adaptive_quality)),
            ladder: Vec::with_capacity(column(config.adaptive_local_model)),
            replay: Vec::with_capacity(column(config.replay.is_some())),
            frames_local: vec![0; n],
            runtime: RuntimeColumns {
                configs,
                model: Vec::with_capacity(n),
                frame: Vec::with_capacity(n),
                offload: Vec::with_capacity(n),
                qos: Vec::with_capacity(n),
                recording: None,
                untraced: TraceHandle::disabled(),
                watch: watched
                    .filter(|&(g, _)| (base..base + n).contains(&g))
                    .map(|(g, frame_trace)| Watch::new(config, g - base, g, frame_trace)),
            },
        };
        for (local, controller) in devs.controller.iter_mut().enumerate() {
            let g = base + local;
            let dc = &config.devices[g];
            let frames_rng = rng.indexed_stream("fleet-frames", g as u64);
            let source = match &config.scene {
                // The scene draws from its own indexed stream, so the
                // frame/local/link streams are untouched by enabling it.
                Some(script) => SourceState::with_scene(
                    frames_rng,
                    script.clone(),
                    rng.indexed_stream("fleet-scene", g as u64),
                ),
                None => SourceState::new(frames_rng),
            };
            devs.rows.push(DeviceRow {
                source,
                engine: EngineState::new(rng.indexed_stream("fleet-local", g as u64)),
                link: LinkState::new(rng.indexed_stream("fleet-link", g as u64)),
            });
            devs.filter.extend(config.filter.map(SemanticFilter::new));
            if config.adaptive_quality {
                devs.quality.push(QualityAdapter::new());
            }
            if config.adaptive_local_model {
                devs.ladder.push(Ladder {
                    selector: ModelSelector::new(),
                    service: services[dc.device as usize][dc.model as usize],
                });
            }
            devs.replay
                .extend(config.replay.as_ref().map(|_| ReplayCursor::default()));

            let rc = &devs.runtime.configs[dc.model as usize];
            let (frame, offload) = bootstrap(rc, controller.as_mut(), make_tag(g, 0, true));
            if traced == Some(g) {
                let header = trace_header(rc, config.seed, controller.name());
                devs.runtime.recording = Some((local, TraceHandle::recording(&header)));
            }
            devs.runtime.model.push(dc.model);
            devs.runtime.frame.push(frame);
            devs.runtime.offload.push(offload);
            devs.runtime.qos.push(QosLog::with_capacity(ticks));
        }
        devs
    }

    /// Consume the state into per-device results (local order, which is
    /// global order for `base == 0`), yielded one by one so a caller
    /// concatenating shards allocates one result vector.
    pub(crate) fn into_results(
        self,
        config: &FleetConfig,
    ) -> impl Iterator<Item = FleetDeviceResult> + '_ {
        // Yields `None` for every device of a fleet without a filter.
        let mut filters = self.filter.into_iter();
        let RuntimeColumns {
            frame,
            offload,
            qos,
            ..
        } = self.runtime;
        let devices = &config.devices[self.base..];
        self.controller
            .into_iter()
            .zip(devices)
            .zip(frame.into_iter().zip(offload))
            .zip(qos.into_iter().zip(self.frames_local))
            .map(
                move |(((controller, dc), (frame, offload)), (qos, frames_local))| {
                    FleetDeviceResult {
                        controller: controller.name(),
                        device: dc.device.name(),
                        model: dc.model.name(),
                        mean_throughput: qos.mean_throughput(),
                        mean_accuracy_weighted_throughput: qos.mean_accuracy_weighted(),
                        filter_stats: filters.next().map(|f| f.stats()),
                        frames_offloaded: frame.frames_offloaded(),
                        frames_local,
                        offload_successes: offload.successes(),
                        offload_timeouts: offload.timeouts(),
                        qos,
                    }
                },
            )
    }
}

pub(crate) enum FleetEvent {
    Capture(usize),
    Uplinked {
        tag: u64,
    },
    /// Server `server`'s running batch completes. `epoch` pins the
    /// event to the server process that scheduled it: a crash bumps the
    /// tier-side epoch, so completions of a dead process are discarded.
    BatchDone {
        server: u32,
        epoch: u64,
    },
    /// The responses of one finished batch reach their devices: the next
    /// this many tags of `FleetWorld::responses`.
    Responses(u32),
    Deadline {
        tag: u64,
    },
    Tick(usize),
    /// Server `server` goes down for maintenance (a `TierOutage` start).
    ServerCrash(usize),
    /// Server `server` comes back, empty and idle.
    ServerRecover(usize),
    /// Apply schedule step `step` (shared schedule: to all devices;
    /// per-device schedules: to device `dev`).
    NetworkChange {
        dev: Option<u32>,
        step: u32,
    },
    /// Background rate step `step` takes effect (single-threaded only).
    LoadChange(usize),
    /// The next background request arrives (likewise).
    Background,
}

// Every calendar and lane entry carries one: 16 bytes, not the 32 that
// word-sized server, device and step indices would take; a lane entry is
// 32 with its instant and its packed sequence number and count.
const _: () = assert!(std::mem::size_of::<FleetEvent>() <= 16);
const _: () = assert!(ff_sim::testhooks::lane_entry_bytes::<FleetEvent>() == 32);

/// The simulated side of the runtime's [`Transport`] seam: frames and
/// probes enter the device's emulated uplink, and `deliver(sent_at, at,
/// tag)` says where a delivery goes — an `Uplinked` event on the host's
/// calendar, or a shard's outbox. `stats` counts what this transport
/// sent, for a watched row to keep.
pub(crate) struct LinkTransport<'a, F> {
    link: &'a mut LinkState<IndexedStream>,
    params: &'a LinkParams,
    stats: LinkStats,
    deliver: F,
}

impl<'a, F> LinkTransport<'a, F> {
    fn new(link: &'a mut LinkState<IndexedStream>, params: &'a LinkParams, deliver: F) -> Self {
        LinkTransport {
            link,
            params,
            stats: LinkStats::default(),
            deliver,
        }
    }
}

impl<F: FnMut(SimTime, SimTime, u64)> Transport for LinkTransport<'_, F> {
    fn send(&mut self, tag: u64, bytes: u64, now: SimTime) -> SubmitOutcome {
        match self.link.send(self.params, now, bytes, &mut self.stats) {
            SendOutcome::Delivered { at } => {
                (self.deliver)(now, at, tag);
                SubmitOutcome::Accepted
            }
            SendOutcome::Dropped(_) => SubmitOutcome::DroppedInNetwork,
        }
    }
}

/// The device-side simulation core shared by [`FleetWorld`] (single
/// thread, `base == 0`, all devices) and [`crate::shard`]'s per-shard
/// worlds (a contiguous device range each). Handlers take **global**
/// device indices / tags and translate through `devs.base`.
///
/// The handlers that send take `uplinked(ctx, sent_at, at, tag)`: where a
/// delivered uplink goes. The single-threaded engine schedules an
/// [`FleetEvent::Uplinked`] on its own calendar; a shard appends a
/// timestamped submission to its outbox for the tier shard to merge.
/// This is the only seam between the two execution modes — everything
/// else in the device handlers is shared code.
pub(crate) struct FleetCore {
    /// Shared, not cloned, by the shards of one run.
    pub(crate) config: Arc<FleetConfig>,
    pub(crate) devs: FleetDevices,
    pub(crate) end_at: SimTime,
    /// Local-inference completions applied so far: events of the model
    /// that never were calendar entries.
    pub(crate) local_completions: u64,
    /// Whether a capture applies its device's next local captures in
    /// place, up to its next offload or tick ([`FleetCore::capture`]).
    run_ahead: bool,
    /// Captures applied that way: events of the model, like
    /// `local_completions`, that never were calendar entries.
    pub(crate) captures_ahead: u64,
}

impl FleetCore {
    /// The core over `devs`; `sharded` for a shard's, which runs local
    /// captures ahead wherever routing reads only the splitter (see
    /// [`FleetCore::capture`]).
    pub(crate) fn new(config: Arc<FleetConfig>, devs: FleetDevices, sharded: bool) -> FleetCore {
        let run_ahead = sharded
            && config.selection == ModelSelection::AlwaysPaper
            && config.replay.is_none()
            && config.filter.is_none();
        FleetCore {
            end_at: config.end_at(),
            config,
            devs,
            local_completions: 0,
            run_ahead,
            captures_ahead: 0,
        }
    }

    /// Events of the model this core applied without a calendar entry.
    pub(crate) fn unfiled_events(&self) -> u64 {
        self.local_completions + self.captures_ahead
    }

    /// The runtime row of the device `tag` belongs to: where the hosts
    /// deliver a response, a deadline or a batch rejection.
    #[inline]
    pub(crate) fn row_of(&mut self, tag: u64) -> DeviceLoop<'_> {
        self.devs.runtime.lend(tag_device(tag) - self.devs.base)
    }

    /// Device `g` captures a frame now: route it, send or offer it, and
    /// file the next capture. In a shard, the device's next captures that
    /// the splitter routes locally and that come before its next tick are
    /// applied here, each at its own instant, and the first that is not
    /// is filed (DESIGN.md §"Sharded engine", "Run-ahead").
    pub(crate) fn capture(
        &mut self,
        ctx: &mut Ctx<'_, FleetEvent>,
        mut uplinked: impl FnMut(&mut Ctx<'_, FleetEvent>, SimTime, SimTime, u64),
        g: usize,
    ) {
        let now = ctx.now();
        let config = &*self.config;
        let FleetDevices {
            base,
            stream,
            services,
            link_params,
            rows,
            filter,
            quality,
            ladder,
            replay,
            frames_local,
            runtime,
            ..
        } = &mut self.devs;
        let i = g - *base;
        let run_ahead = self.run_ahead && !runtime.observes(i);
        let DeviceRow {
            source: src,
            engine,
            link,
        } = &mut rows[i];
        let mut replay = config.replay.as_ref().zip(replay.get_mut(i));
        let (frame, info) = match &mut replay {
            Some((frames, cursor)) => (cursor.next_frame(frames), None),
            None => (src.next_frame(stream), src.last_info()),
        };
        let Some(frame) = frame else {
            return;
        };
        let replay = replay.map(|(frames, cursor)| (frames, &*cursor));
        let mut rt = runtime.lend(i);
        // Semantic filter: drop or shrink low-information frames
        // before they cost routing, uplink, or local compute.
        let mut frame_bytes = frame.bytes;
        if let (Some(filter), Some(info)) = (filter.get_mut(i), info) {
            match filter.verdict(info, frame.bytes) {
                FilterVerdict::Pass => {}
                FilterVerdict::Shrink { bytes } => frame_bytes = bytes,
                FilterVerdict::Skip => {
                    if let Some(watch) = rt.watch {
                        watch.filtered_out(frame.id.0, now, frame.bytes);
                    }
                    if let Some(next) = next_capture(src, stream, replay) {
                        ctx.schedule_lane(lane::CAPTURE, next, FleetEvent::Capture(g));
                    }
                    return;
                }
            }
        }
        match rt.route_frame(frame.id.0, frame_bytes, now) {
            Route::Offload => {
                let mut jpeg = config.stream.compression;
                let bytes = match quality.get(i) {
                    Some(adapter) => {
                        jpeg.quality = adapter.quality();
                        let scaled = frame_bytes as f64 * adapter.byte_scale(jpeg.resolution);
                        (scaled.round() as u64).max(1)
                    }
                    None => frame_bytes,
                };
                if let Some(watch) = rt.watch.as_deref_mut() {
                    let model = config.remote_model.unwrap_or(config.devices[g].model);
                    watch.offloaded(frame.id.0, now, bytes, jpeg, model);
                }
                let tag = make_tag(g, frame.id.0, false);
                let deliver = |sent_at, at, tag| uplinked(ctx, sent_at, at, tag);
                let mut transport = LinkTransport::new(link, params_of(link_params, i), deliver);
                let submission = rt.offload(&mut transport, tag, bytes, now);
                if let Some(watch) = rt.watch.as_deref_mut() {
                    watch.link_stats += transport.stats;
                }
                let deadline = FleetEvent::Deadline { tag };
                ctx.schedule_lane(lane::DEADLINE, submission.deadline_at, deadline);
            }
            Route::Local => {
                let service = service_of(services, ladder, &config.devices[g], i);
                let (id, bytes) = (frame.id.0, frame_bytes);
                self.local_completions += offer_local(engine, &service, &mut rt, id, bytes, now);
                frames_local[i] += 1;
            }
        }
        let mut next = next_capture(src, stream, replay);
        if run_ahead {
            // Nothing outside the device reads what a local capture
            // writes, and only the tick writes what routing reads.
            let period = config.controller_period.as_micros();
            let tick = SimTime::from_micros((now.as_micros() / period + 1) * period);
            let service = service_of(services, ladder, &config.devices[g], i);
            while let Some(at) = next.filter(|&at| at < tick && !rt.offloads_next()) {
                let frame = src.next_frame(stream).expect("a capture is due");
                let route = rt.route_frame(frame.id.0, frame.bytes, at);
                debug_assert_eq!(route, Route::Local, "the peek and the splitter disagree");
                let (id, bytes) = (frame.id.0, frame.bytes);
                self.local_completions += offer_local(engine, &service, &mut rt, id, bytes, at);
                frames_local[i] += 1;
                self.captures_ahead += 1;
                next = next_capture(src, stream, None);
            }
        }
        if let Some(next) = next {
            ctx.schedule_lane(lane::CAPTURE, next, FleetEvent::Capture(g));
        }
    }

    pub(crate) fn tick(
        &mut self,
        ctx: &mut Ctx<'_, FleetEvent>,
        mut uplinked: impl FnMut(&mut Ctx<'_, FleetEvent>, SimTime, SimTime, u64),
        g: usize,
    ) -> TickOutput {
        let now = ctx.now();
        let devs = &mut self.devs;
        let i = g - devs.base;
        let dc = &self.config.devices[g];
        // The heartbeat probe leaves through this device's own link.
        let deliver = |sent_at, at, tag| uplinked(ctx, sent_at, at, tag);
        let params = params_of(&devs.link_params, i);
        let DeviceRow { engine, link, .. } = &mut devs.rows[i];
        let mut transport = LinkTransport::new(link, params, deliver);
        let controller = devs.controller[i].as_mut();
        let service = service_of(&devs.services, &devs.ladder, dc, i);
        let mut rt = devs.runtime.lend(i);
        self.local_completions += apply_local(engine, &service, &mut rt, now, true);
        let out = rt.tick(now, controller, &mut transport);
        if let Some(watch) = rt.watch.as_deref_mut() {
            watch.link_stats += transport.stats;
        }
        if let Some(adapter) = devs.quality.get_mut(i) {
            adapter.update(out.record.timeouts_network);
        }
        if let Some(ladder) = devs.ladder.get_mut(i) {
            let before = ladder.selector.model();
            let after = ladder
                .selector
                .update(out.record.po_target / self.config.stream.fps);
            if before != after {
                ladder.service = devs.services[dc.device as usize][after as usize];
                if let Some(watch) = rt.watch {
                    watch.local_model_changed(after);
                }
            }
        }
        engine.tick_passed();
        let deadline = FleetEvent::Deadline { tag: out.probe_tag };
        ctx.schedule_lane(lane::DEADLINE, out.probe_deadline_at, deadline);
        let next = now + self.config.controller_period;
        if next <= self.end_at {
            ctx.schedule_lane(lane::TICK, next, FleetEvent::Tick(g));
        }
        out
    }

    /// The run is over at `now`: apply the local completions due by
    /// `end_at` (the calendar would have popped each), let the [`Watch`]
    /// read its row, close the trace, and free the columns no result
    /// reads — before the caller allocates the results, so that teardown
    /// does not set the run's peak memory. Returns the trace and the
    /// watch, if this range of the fleet has them.
    pub(crate) fn finish(&mut self, now: SimTime) -> (Option<Vec<u8>>, Option<Watch>) {
        let devs = &mut self.devs;
        let devices = &self.config.devices[devs.base..];
        for (i, (row, dc)) in devs.rows.iter_mut().zip(devices).enumerate() {
            let service = service_of(&devs.services, &devs.ladder, dc, i);
            let mut rt = devs.runtime.lend(i);
            let engine = &mut row.engine;
            self.local_completions += apply_local(engine, &service, &mut rt, self.end_at, false);
        }
        let mut watch = devs.runtime.watch.take();
        if let Some(watch) = &mut watch {
            let i = watch.row;
            watch.local_busy_fraction = watch.engine.busy_fraction(now);
            watch.frames_generated = devs
                .replay
                .get(i)
                .map_or_else(|| devs.rows[i].source.generated(), ReplayCursor::generated);
        }
        devs.rows = Vec::new();
        (devs.runtime.finish_trace(now), watch)
    }

    /// The request reached the tier at `at` (and, when
    /// `admission_rejected`, was turned away at the door). Never called
    /// for probes — a probe's only feedback is its response.
    pub(crate) fn apply_arrival(&mut self, tag: u64, at: SimTime, admission_rejected: bool) {
        let mut rt = self.row_of(tag);
        rt.frame_arrived_at_server(tag, at);
        if admission_rejected {
            rt.frame_rejected_by_server(tag, at);
        }
    }

    /// Apply a network step, re-imposing any loss override it reset: one
    /// write to the parameters the stepped links share, and a restart of
    /// each one's burst chain if the model keeps one.
    pub(crate) fn network_change(&mut self, dev: Option<usize>, step: usize) {
        let config = &*self.config;
        let devs = &mut self.devs;
        let (params, rows, conditions) = match dev {
            None => {
                let conditions = config.network.steps()[step].1;
                (&mut devs.link_params[0], &mut devs.rows[..], conditions)
            }
            Some(dev) => {
                let schedules = config
                    .per_device_network
                    .as_ref()
                    .expect("per-device event requires per-device schedules");
                let i = dev - devs.base;
                let conditions = schedules[dev].steps()[step].1;
                (&mut devs.link_params[i], &mut devs.rows[i..=i], conditions)
            }
        };
        params.set_conditions(conditions);
        if let Some(model) = config.loss_model {
            params.set_loss_model(model);
        }
        if let LossModel::GilbertElliott(_) = params.loss_model() {
            rows.iter_mut().for_each(|row| row.link.restart_loss());
        }
    }
}

/// The service row `i`'s engine runs at: its rung of the ladder, or its
/// device's own model's.
#[inline]
fn service_of(
    services: &[[Service; ModelKind::ALL.len()]; DeviceKind::ALL.len()],
    ladder: &[Ladder],
    dc: &FleetDeviceConfig,
    i: usize,
) -> Service {
    match ladder.get(i) {
        Some(ladder) => ladder.service,
        None => services[dc.device as usize][dc.model as usize],
    }
}

/// Apply the local completions due at `now` ([`EngineState::apply_due`])
/// to the device's runtime row and its [`Watch`], if any. Returns how
/// many were applied.
fn apply_local(
    engine: &mut EngineState<IndexedStream>,
    service: &Service,
    rt: &mut DeviceLoop<'_>,
    now: SimTime,
    before_tick: bool,
) -> u64 {
    engine.apply_due(service, now, before_tick, |done_at, next| {
        rt.note_local_done(1, done_at);
        if let Some(watch) = rt.watch.as_deref_mut() {
            watch.local_completed(done_at, next);
        }
    })
}

/// Frame `frame_id` (`bytes`), captured at `now`, is routed `Local`:
/// apply the completions due first, then offer it to the engine. Returns
/// the completions applied.
fn offer_local(
    engine: &mut EngineState<IndexedStream>,
    service: &Service,
    rt: &mut DeviceLoop<'_>,
    frame_id: u64,
    bytes: u64,
    now: SimTime,
) -> u64 {
    let done = apply_local(engine, service, rt, now, false);
    let outcome = engine.offer(service, now);
    if let Some(watch) = rt.watch.as_deref_mut() {
        watch.offered_locally(frame_id, now, bytes, outcome);
    }
    done
}

/// When the device captures next, if it does: from its generated stream,
/// or from its cursor over the replayed schedule.
fn next_capture(
    source: &SourceState<IndexedStream>,
    stream: &StreamParams,
    replay: Option<(&ReplayFrames, &ReplayCursor)>,
) -> Option<SimTime> {
    match replay {
        Some((frames, cursor)) => {
            (!cursor.exhausted(frames)).then(|| cursor.next_capture_time(frames))
        }
        None => (!source.exhausted(stream)).then(|| source.next_capture_time(stream)),
    }
}

/// Emit one device's controller-period metrics. Shared by the
/// single-threaded fleet and the shard worlds, so a "device/{i}" scope
/// carries the same gauges and counters in every engine.
pub(crate) fn observe_device_tick(
    rec: &mut Recorder,
    scope: Scope,
    t: u64,
    fs: f64,
    out: &TickOutput,
) {
    let record = &out.record;
    rec.gauge(scope, Metric::Po, record.po, t);
    rec.gauge(scope, Metric::Pl, record.pl, t);
    rec.gauge(scope, Metric::TimeoutRate, out.timeout_rate, t);
    rec.gauge(scope, Metric::PoTarget, record.po_target, t);
    let error = fs - (record.po + record.pl);
    rec.gauge(scope, Metric::ControllerError, error, t);
    rec.gauge(scope, Metric::InFlight, out.in_flight as f64, t);
    let probes = out.probes_in_flight as f64;
    rec.gauge(scope, Metric::ProbesInFlight, probes, t);
    let interval = &out.interval;
    rec.counter(scope, Metric::FramesOffloaded, interval.sent, t);
    rec.counter(scope, Metric::FramesLocal, interval.local_done, t);
    rec.counter(scope, Metric::TimeoutsNetwork, interval.timeouts_network, t);
    rec.counter(scope, Metric::TimeoutsLoad, interval.timeouts_load, t);
    rec.counter(scope, Metric::HeartbeatOk, out.heartbeat_ok as u64, t);
}

/// The "device/{g}" telemetry scopes of global devices `range`, or none
/// on a disabled pipeline: a 100k-device fleet should not format 100k
/// names for a recorder that drops everything.
pub(crate) fn device_scopes(telemetry: &Telemetry, range: std::ops::Range<usize>) -> Vec<Scope> {
    if !telemetry.is_enabled() {
        return Vec::new();
    }
    range
        .map(|g| telemetry.scope(&format!("device/{g}")))
        .collect()
}

/// Tier-side observability: the aggregate "server" scope plus
/// per-server scopes (N > 1 only), with previous-tick counter values
/// for delta emission. Used by the single-threaded engine from device
/// 0's tick and by the sharded driver's coordinator at each controller
/// period.
pub(crate) struct TierObs {
    /// Tier-aggregate scope; stays named "server" so single-server
    /// dashboards and pinned scope ids keep working at any N.
    server: ServerScope,
    /// Per-server scopes ("server/{i}"), interned only for N > 1 tiers.
    servers: Vec<ServerScope>,
    last_admission: u64,
}

/// One scope the tier reports under, with the counters it last read.
struct ServerScope {
    scope: Scope,
    last: ServerStats,
}

impl TierObs {
    pub(crate) fn new(telemetry: &Telemetry, n_servers: usize) -> TierObs {
        let scope = |name: &str| ServerScope {
            scope: telemetry.scope(name),
            last: ServerStats::default(),
        };
        let per_server = if n_servers > 1 { n_servers } else { 0 };
        TierObs {
            server: scope("server"),
            servers: (0..per_server)
                .map(|i| scope(&format!("server/{i}")))
                .collect(),
            last_admission: 0,
        }
    }

    /// Report the tier at `t`: each server's readings under its own
    /// scope (N > 1 only), their sums under "server", and the admission
    /// rejections.
    pub(crate) fn report(&mut self, rec: &mut Recorder, tier: &ServerTier, t: u64) {
        let (mut queue_depth, mut occupancy) = (0, 0);
        for i in 0..tier.len() {
            let s = tier.server(i).batcher();
            let (queue, running) = (s.queue_len(), s.running_batch_size().unwrap_or(0));
            queue_depth += queue;
            occupancy += running;
            if let Some(server) = self.servers.get_mut(i) {
                let up = tier.is_up(i) as u64 as f64;
                rec.gauge(server.scope, Metric::ServerUp, up, t);
                server.report(rec, t, (queue, running), s.stats());
            }
        }
        let server = &mut self.server;
        server.report(rec, t, (queue_depth, occupancy), tier.total_stats());
        let admission = tier.admission_rejections();
        let d = admission - self.last_admission;
        rec.counter(server.scope, Metric::AdmissionRejections, d, t);
        self.last_admission = admission;
    }
}

impl ServerScope {
    /// The queue-depth and batch-occupancy gauges at `t`, and the
    /// counters of `stats` since the last report.
    fn report(&mut self, rec: &mut Recorder, t: u64, gauges: (usize, usize), stats: ServerStats) {
        let (scope, last) = (self.scope, self.last);
        rec.gauge(scope, Metric::ServerQueueDepth, gauges.0 as f64, t);
        rec.gauge(scope, Metric::BatchOccupancy, gauges.1 as f64, t);
        let d = stats.requests_received - last.requests_received;
        rec.counter(scope, Metric::ServerRequests, d, t);
        let d = stats.completions - last.completions;
        rec.counter(scope, Metric::ServerCompletions, d, t);
        let d = stats.rejections - last.rejections;
        rec.counter(scope, Metric::ServerRejections, d, t);
        let d = stats.batches_executed - last.batches_executed;
        rec.counter(scope, Metric::ServerBatches, d, t);
        self.last = stats;
    }
}

/// Host-side observability state of the single-threaded fleet engine:
/// one recorder for the simulation thread, plus the interned scopes it
/// reports under.
///
/// Strictly write-only with respect to the simulation: nothing here
/// schedules events, advances RNG streams, or feeds back into routing
/// decisions, which is what keeps telemetry-on runs bit-identical to
/// telemetry-off runs.
pub(crate) struct FleetObs {
    pub(crate) telemetry: Telemetry,
    pub(crate) recorder: Recorder,
    engine: Scope,
    /// "device/{i}" scopes (empty while telemetry is disabled).
    pub(crate) devices: Vec<Scope>,
    tier_obs: TierObs,
}

impl FleetObs {
    pub(crate) fn new(telemetry: &Telemetry, n_devices: usize, n_servers: usize) -> FleetObs {
        FleetObs {
            recorder: telemetry.recorder(),
            engine: telemetry.scope("engine"),
            devices: device_scopes(telemetry, 0..n_devices),
            tier_obs: TierObs::new(telemetry, n_servers),
            telemetry: telemetry.clone(),
        }
    }

    /// Report the state all devices share — the engine's calendar and
    /// the tier — then poll the collector. Once per controller period.
    /// `off_calendar` is how many events the host has applied without
    /// filing them, so the gauge keeps counting events of the model.
    pub(crate) fn observe_shared<E>(
        &mut self,
        ctx: &Ctx<'_, E>,
        tier: &ServerTier,
        off_calendar: u64,
    ) {
        let t = ctx.now().as_micros();
        let rec = &mut self.recorder;
        let events = (ctx.events_handled() + off_calendar) as f64;
        rec.gauge(self.engine, Metric::EventsHandled, events, t);
        let pending = ctx.pending_events() as f64;
        rec.gauge(self.engine, Metric::PendingEvents, pending, t);
        self.tier_obs.report(rec, tier, t);
        self.telemetry.poll();
    }
}

/// A batch the tier started: server `server`'s completion, due at `at`
/// and stamped with the epoch of the server process that runs it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchStarted {
    pub(crate) at: SimTime,
    pub(crate) server: u32,
    pub(crate) epoch: u64,
}

/// How both fleet engines drive the [`ServerTier`]: what a delivered
/// uplink and a finished batch mean to the tier and to the devices.
/// Each batch the tier starts comes back as a [`BatchStarted`] for the
/// host to file: on its lanes, or in the shard coordinator's order.
pub(crate) struct TierDriver {
    pub(crate) tier: ServerTier,
    /// The tier's routing stream ("routing"); consumed only by
    /// power-of-two-choices routing with two or more live servers, so
    /// single-server runs never advance it.
    routing_rng: ChaCha8Rng,
    /// The finished batch's completions (its `rejections` stay empty:
    /// the overflow is delivered where it stands in the queue).
    batch_out: BatchOutput,
    reuse_batch_buffers: bool,
    /// The tier's background load (`FleetConfig::background`); only the
    /// single-threaded engine files its events.
    background: Option<Background<ChaCha8Rng>>,
}

impl TierDriver {
    /// The tier `config` describes, with its routing stream and its
    /// background process, billed to the tenant one above every device.
    pub(crate) fn new(config: &FleetConfig) -> TierDriver {
        let tier = ServerTier::new(config.tier.as_ref().unwrap_or(&TierConfig::default()));
        let rng = RngFactory::new(config.seed);
        let routing_rng = rng.stream("routing");
        let tenant = TenantId(config.devices.len() as u32);
        let background = (config.background.clone())
            .map(|load| Background::new(load, rng.stream("background"), tenant));
        TierDriver {
            tier,
            routing_rng,
            batch_out: BatchOutput::default(),
            reuse_batch_buffers: config.engine.reuse_batch_buffers,
            background,
        }
    }

    /// Hand `request` to the tier at `now`, and say which batch it
    /// started, if any. `regulated` requests face admission control (a
    /// device's frames; not its probes or background tenants).
    #[inline]
    fn submit(
        &mut self,
        now: SimTime,
        request: Request,
        regulated: bool,
    ) -> (TierSubmit, Option<BatchStarted>) {
        let outcome = (self.tier).submit(now, request, regulated, &mut self.routing_rng);
        let TierSubmit::BatchStarted {
            server,
            done_at: at,
        } = outcome
        else {
            return (outcome, None);
        };
        let (epoch, server) = (self.tier.epoch(server), server as u32);
        (outcome, Some(BatchStarted { at, server, epoch }))
    }

    /// The uplink `tag` reaches the tier at `now`. Returns the batch it
    /// started, if any, and what its device learns on arrival: nothing
    /// for a probe (its only feedback is its response) or for a frame
    /// the routed server lost (down: its deadline fires as a
    /// network-cause timeout); else whether admission turned it away
    /// (the server saw it: a load-cause timeout at the deadline).
    #[inline]
    pub(crate) fn uplinked(
        &mut self,
        config: &FleetConfig,
        tag: u64,
        now: SimTime,
    ) -> (Option<BatchStarted>, Option<bool>) {
        let probe = tag_is_probe(tag);
        let (outcome, started) = self.submit(now, config.request_for(tag, now), !probe);
        let arrival = match outcome {
            _ if probe => None,
            TierSubmit::Lost => None,
            TierSubmit::AdmissionRejected => Some(true),
            TierSubmit::Queued { .. } | TierSubmit::BatchStarted { .. } => Some(false),
        };
        (started, arrival)
    }

    /// Server `server`'s batch started under `epoch` finishes at `now`:
    /// `deliver(tag, false)` each device completion in batch order, then
    /// `deliver(tag, true)` each frame batch formation rejected. Returns
    /// the server's next batch, if any. A stale epoch delivers nothing:
    /// the batch belonged to a server process that has since crashed.
    pub(crate) fn batch_done(
        &mut self,
        server: u32,
        epoch: u64,
        now: SimTime,
        mut deliver: impl FnMut(u64, bool),
    ) -> Option<BatchStarted> {
        let i = server as usize;
        if epoch != self.tier.epoch(i) {
            return None;
        }
        if !self.reuse_batch_buffers {
            // Fresh result vectors for every batch. Kept only because
            // the benchmark names `reuse_batch_buffers` (ROADMAP item 9).
            self.batch_out = BatchOutput::default();
        }
        let completions = &mut self.batch_out.completions;
        completions.clear();
        self.tier.finish_batch(i, now, completions);
        // A background tenant's completion goes nowhere; a probe or a
        // background request learns nothing of its rejection.
        for c in completions.iter().filter(|c| !is_background_tag(c.tag)) {
            deliver(c.tag, false);
        }
        // The overflow goes to its devices straight from the queue.
        let next = self.tier.start_next(i, now, |r| {
            if r.tag < BACKGROUND_TAG_BASE {
                deliver(r.tag, true);
            }
        });
        next.map(|at| BatchStarted { at, server, epoch })
    }

    /// The background process, for its rate steps.
    pub(crate) fn background(&mut self) -> &mut Background<ChaCha8Rng> {
        let background = self.background.as_mut();
        background.expect("background events are filed only with background load")
    }

    /// The pending background request arrives at `now`. Returns the batch
    /// it started, if any, and when the next one arrives, if it does.
    pub(crate) fn background_arrival(
        &mut self,
        now: SimTime,
    ) -> (Option<BatchStarted>, Option<SimTime>) {
        let (request, next) = self.background().arrive(now);
        (self.submit(now, request, false).1, next)
    }
}

/// File the first capture and the first tick of global devices
/// `devices`, and the network-schedule steps that apply to them, on a
/// fleet engine's calendar: each of the shared schedule's steps, or
/// each step of these devices' own schedules.
pub(crate) fn seed_devices<M: SimModel<Event = FleetEvent>>(
    sim: &mut Simulation<M>,
    config: &FleetConfig,
    devices: Range<usize>,
) {
    let first_capture = config.first_capture();
    let first_tick = SimTime::ZERO + config.controller_period;
    sim.reserve_lane(lane::CAPTURE, devices.len());
    sim.reserve_lane(lane::TICK, devices.len());
    for g in devices.clone() {
        sim.schedule_lane(lane::CAPTURE, first_capture, FleetEvent::Capture(g));
        sim.schedule_lane(lane::TICK, first_tick, FleetEvent::Tick(g));
    }
    let mut file = |steps: &StepSchedule<NetworkConditions>, dev: Option<usize>| {
        let dev = dev.map(|d| d as u32);
        for (step, &(t, _)) in steps.steps().iter().enumerate().skip(1) {
            let step = step as u32;
            sim.schedule_at(
                SimTime::from_secs_f64(t),
                FleetEvent::NetworkChange { dev, step },
            );
        }
    };
    match &config.per_device_network {
        Some(schedules) => devices.for_each(|g| file(&schedules[g], Some(g))),
        None => file(&config.network, None),
    }
}

/// The single-threaded engine's uplink seam: an `Uplinked` event on the
/// link's lane.
fn schedule_uplink(ctx: &mut Ctx<'_, FleetEvent>, _sent_at: SimTime, at: SimTime, tag: u64) {
    ctx.schedule_lane(lane::UPLINK, at, FleetEvent::Uplinked { tag });
}

/// File the completion of the batch the tier started, if it did, on
/// its server's lane.
fn schedule_batch(ctx: &mut Ctx<'_, FleetEvent>, started: Option<BatchStarted>) {
    if let Some(BatchStarted { at, server, epoch }) = started {
        ctx.schedule_lane(lane::BATCH, at, FleetEvent::BatchDone { server, epoch });
    }
}

struct FleetWorld {
    core: FleetCore,
    driver: TierDriver,
    /// Tags of the responses in flight to their devices, in the order of
    /// the [`FleetEvent::Responses`] entries that will deliver them (each
    /// is due one fixed propagation delay after it was filed, so the
    /// entries fire in filing order).
    responses: VecDeque<u64>,
    obs: FleetObs,
}

impl FleetWorld {
    /// Report this device's controller-period observations (and, from
    /// device 0, the shared engine and server state), then poll the
    /// collector. Purely observational: emits into the recorder's ring
    /// and never schedules events, so it cannot perturb the run.
    fn observe_tick(&mut self, ctx: &Ctx<'_, FleetEvent>, dev: usize, out: &TickOutput) {
        if !self.obs.recorder.is_enabled() {
            return;
        }
        let t = ctx.now().as_micros();
        let rec = &mut self.obs.recorder;
        let fs = self.core.config.stream.fps;
        observe_device_tick(rec, self.obs.devices[dev], t, fs, out);

        // Shared state is reported once per controller period, by the
        // first device to tick in it.
        if dev == 0 {
            let wheel = self.core.config.engine.backend == QueueBackend::Wheel;
            let engine = self.obs.engine;
            rec.gauge(engine, Metric::QueueBackendWheel, wheel as u64 as f64, t);
            let tier = &self.driver.tier;
            self.obs
                .observe_shared(ctx, tier, self.core.local_completions);
        }
    }
}

impl SimModel for FleetWorld {
    type Event = FleetEvent;

    fn handle(&mut self, ctx: &mut Ctx<'_, FleetEvent>, event: FleetEvent) {
        match event {
            FleetEvent::Capture(dev) => self.core.capture(ctx, schedule_uplink, dev),

            FleetEvent::Uplinked { tag } => {
                let now = ctx.now();
                let (started, arrival) = self.driver.uplinked(&self.core.config, tag, now);
                schedule_batch(ctx, started);
                if let Some(admission_rejected) = arrival {
                    self.core.apply_arrival(tag, now, admission_rejected);
                }
            }

            FleetEvent::BatchDone { server, epoch } => {
                let now = ctx.now();
                let (responses, core) = (&mut self.responses, &mut self.core);
                let queued = responses.len();
                let next = self.driver.batch_done(server, epoch, now, |tag, rejected| {
                    if rejected {
                        core.row_of(tag).frame_rejected_by_server(tag, now);
                    } else {
                        responses.push_back(tag);
                    }
                });
                // One response per device completion, all `propagation`
                // from now: one lane entry delivers them in this order
                // (consecutive ones, if there are more than an entry
                // counts, which pop back to back).
                let mut left = responses.len() - queued;
                let at = now + core.config.link.propagation;
                while left > 0 {
                    let n = left.min(LANE_RUN_MAX as usize) as u32;
                    ctx.schedule_lane_batch(lane::RESPONSE, at, n, FleetEvent::Responses(n));
                    left -= n as usize;
                }
                schedule_batch(ctx, next);
            }

            FleetEvent::Responses(n) => {
                for tag in self.responses.drain(..n as usize) {
                    self.core.row_of(tag).on_response(tag, ctx.now(), true);
                }
            }

            FleetEvent::Deadline { tag } => {
                self.core.row_of(tag).on_deadline(tag, ctx.now());
            }

            FleetEvent::Tick(dev) => {
                let out = self.core.tick(ctx, schedule_uplink, dev);
                self.observe_tick(ctx, dev, &out);
            }

            FleetEvent::ServerCrash(server) => self.driver.tier.crash(server),

            FleetEvent::ServerRecover(server) => self.driver.tier.recover(server),

            FleetEvent::NetworkChange { dev, step } => self
                .core
                .network_change(dev.map(|d| d as usize), step as usize),

            FleetEvent::LoadChange(step) => {
                if let Some(at) = self.driver.background().load_change(step, ctx.now()) {
                    ctx.schedule_lane(lane::BACKGROUND, at, FleetEvent::Background);
                }
            }

            FleetEvent::Background => {
                let (started, next) = self.driver.background_arrival(ctx.now());
                schedule_batch(ctx, started);
                if let Some(at) = next {
                    ctx.schedule_lane(lane::BACKGROUND, at, FleetEvent::Background);
                }
            }
        }
    }
}

/// Panic on a run that cannot start: a controller count that is not the
/// device count, or what [`FleetConfig::check`] refuses.
pub(crate) fn validate_fleet(config: &FleetConfig, controllers: &[Box<dyn Controller>]) {
    assert_eq!(
        config.devices.len(),
        controllers.len(),
        "one controller per device"
    );
    config.check().unwrap_or_else(|why| panic!("{why}"));
}

/// Why no link can run under some step of `steps`, naming the schedule
/// (device `dev`'s, or the shared one) and the step: a step that
/// bypassed `NetworkConditions::new`, as a schedule read from JSON does.
fn check_network_schedule(
    steps: &StepSchedule<NetworkConditions>,
    dev: Option<usize>,
) -> Result<(), String> {
    for (step, (t, conditions)) in steps.steps().iter().enumerate() {
        if let Err(why) = conditions.check() {
            return Err(match dev {
                Some(dev) => {
                    format!("device {dev}'s network schedule, step {step} (t = {t} s): {why}")
                }
                None => format!("the shared network schedule, step {step} (t = {t} s): {why}"),
            });
        }
    }
    Ok(())
}

/// Assemble the fleet-wide result from per-device results plus the
/// tier's final state. Shared by the single-threaded and sharded
/// drivers so the aggregation is one piece of code.
pub(crate) fn finish_fleet(
    devices: Vec<FleetDeviceResult>,
    tier: &ServerTier,
    events_handled: u64,
) -> FleetResult {
    let successes: Vec<f64> = devices.iter().map(|d| d.offload_successes as f64).collect();
    let rejections_by_device = tier.rejections_by_tenant(devices.len());
    FleetResult {
        offload_fairness: jain_fairness_index(&successes),
        total_mean_throughput: devices.iter().map(|d| d.mean_throughput).sum(),
        server_stats: tier.total_stats(),
        per_server_stats: tier.per_server_stats(),
        admission_rejections: tier.admission_rejections(),
        rejections_by_device,
        events_handled,
        devices,
    }
}

/// Run a fleet of devices, one controller per device (same order as
/// `config.devices`).
///
/// `config.engine.shards > 1` dispatches to the sharded driver
/// ([`run_fleet_sharded`](crate::shard::run_fleet_sharded)); results
/// are bit-identical at any shard count.
pub fn run_fleet(config: FleetConfig, controllers: Vec<Box<dyn Controller>>) -> FleetResult {
    run_fleet_recording(config, controllers, None, None).result
}

/// What one fleet run returns: its result, what its traced and watched
/// rows recorded, and what it cost.
pub(crate) struct FleetRun {
    pub(crate) result: FleetResult,
    pub(crate) trace: Option<Vec<u8>>,
    pub(crate) watch: Option<Watch>,
    pub(crate) counts: RunCounts,
}

/// What a fleet run did, counted exactly: plain counters that the event
/// queues and the shard coordinator keep anyway, read once at the end of
/// the run (`tests/cost_ledger.rs` pins them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Calendar entries filed on each of the fleet's lanes (capture, tick,
    /// deadline, response, uplink, batch, background), over all of the
    /// run's queues.
    pub lane_entries: [u64; LANES],
    /// Calendar entries filed on the queues' backends (heap or wheel).
    pub backend_entries: u64,
    /// Shard windows the coordinator ran (0 unsharded).
    pub windows_run: u64,
    /// Shard windows the run spans (0 unsharded).
    pub windows: u64,
    /// Feedback records the shard coordinator sent its shards, by kind:
    /// arrivals, batch-formation rejection runs (one per formation and
    /// shard at most), responses (all 0 unsharded).
    pub feedback: [u64; 3],
    /// Rounds, counted once per shard, in which a shard's rejections came
    /// at two or more instants, so in as many runs (0 unsharded).
    pub split_rejections: u64,
    /// Locally routed captures a shard applied ahead, in place, instead
    /// of filing them (0 unsharded).
    pub captures_ahead: u64,
}

impl RunCounts {
    /// Add the entries `sim`'s queue filed.
    pub(crate) fn add_filed<M: SimModel>(&mut self, sim: &Simulation<M>) {
        let (lanes, backend) = ff_sim::testhooks::entries_filed(sim);
        for (sum, filed) in self.lane_entries.iter_mut().zip(lanes) {
            *sum += filed;
        }
        self.backend_entries += backend;
    }
}

/// [`run_fleet`] with global device `traced`, if any, recording an
/// `ff-trace`, and device `watched.0` keeping a [`Watch`] (with a frame
/// trace when `watched.1`), both returned beside the result and the
/// run's counts. Both are write-only, so the result is that of the
/// plain run.
pub(crate) fn run_fleet_recording(
    config: FleetConfig,
    controllers: Vec<Box<dyn Controller>>,
    traced: Option<usize>,
    watched: Option<(usize, bool)>,
) -> FleetRun {
    validate_fleet(&config, &controllers);
    if config.engine.shards > 1 {
        let shards = config.engine.shards;
        return crate::shard::run_sharded(config, controllers, shards, traced, watched);
    }
    let n = controllers.len();
    let driver = TierDriver::new(&config);
    let obs = FleetObs::new(&config.telemetry, n, driver.tier.len());
    let devs = FleetDevices::build(&config, controllers, 0, traced, watched);
    let config = Arc::new(config);
    // Per-frame captures: here same-instant ties break by insertion
    // order, which a capture filed ahead would move (DESIGN.md §"Sharded
    // engine", "Run-ahead").
    let core = FleetCore::new(Arc::clone(&config), devs, false);
    let end_at = core.end_at;
    let world = FleetWorld {
        core,
        driver,
        responses: VecDeque::new(),
        obs,
    };
    let queue = EventQueue::with_backend(config.engine.backend);
    let mut sim = Simulation::with_queue(world, queue);
    seed_devices(&mut sim, &config, 0..n);
    if let Some(load) = &config.background {
        for (step, &(t, _)) in load.steps.iter().enumerate().skip(1) {
            sim.schedule_at(SimTime::from_secs_f64(t), FleetEvent::LoadChange(step));
        }
        // Start the background process.
        sim.schedule_at(SimTime::ZERO, FleetEvent::LoadChange(0));
    }
    for outage in &config.outages {
        sim.schedule_at(
            SimTime::from_secs_f64(outage.from_secs),
            FleetEvent::ServerCrash(outage.server),
        );
        sim.schedule_at(
            SimTime::from_secs_f64(outage.until_secs),
            FleetEvent::ServerRecover(outage.server),
        );
    }
    sim.run_until(end_at);
    let mut counts = RunCounts::default();
    counts.add_filed(&sim);
    let dispatched = sim.events_handled();
    let now = sim.now();
    // Dropping the simulation frees its calendar.
    let mut world = sim.into_model();
    // Drain whatever the final ticks recorded. The last (partial) window
    // stays open until the caller's `Telemetry::finish`, so one pipeline
    // can span several runs (e.g. a sweep).
    world.obs.telemetry.poll();

    let (trace, watch) = world.core.finish(now);
    counts.captures_ahead = world.core.captures_ahead;
    let events_handled = dispatched + world.core.unfiled_events();
    let device_results = world.core.devs.into_results(&world.core.config).collect();
    FleetRun {
        result: finish_fleet(device_results, &world.driver.tier, events_handled),
        trace,
        watch,
        counts,
    }
}

/// Test hooks for the cost ledger (`tests/cost_ledger.rs`): a fleet run
/// with its counters, and the bytes each per-device column costs.
#[doc(hidden)]
pub mod testhooks {
    pub use super::RunCounts;
    use super::{run_fleet_recording, DeviceRow, FleetConfig, FleetEvent, FleetResult};
    use crate::runtime::{FrameState, OffloadState};
    use ff_core::Controller;
    use ff_metrics::QosLog;
    use ff_models::ModelKind;
    use std::mem::size_of;

    /// [`run_fleet`](super::run_fleet), with what it counted.
    pub fn run_counted(
        config: FleetConfig,
        controllers: Vec<Box<dyn Controller>>,
    ) -> (FleetResult, RunCounts) {
        let run = run_fleet_recording(config, controllers, None, None);
        (run.result, run.counts)
    }

    /// Each column every fleet row has, with the size of one element:
    /// what a device costs before anything it allocates.
    pub fn column_bytes() -> [(&'static str, usize); 7] {
        [
            ("controller", size_of::<Box<dyn Controller>>()),
            ("rows (DeviceRow)", size_of::<DeviceRow>()),
            ("frames_local", size_of::<u64>()),
            ("runtime.model", size_of::<ModelKind>()),
            ("runtime.frame (FrameState)", size_of::<FrameState>()),
            ("runtime.offload (OffloadState)", size_of::<OffloadState>()),
            ("runtime.qos (QosLog)", size_of::<QosLog>()),
        ]
    }

    /// The bytes one lane entry of the fleet's event costs.
    pub const LANE_ENTRY_BYTES: usize = ff_sim::testhooks::lane_entry_bytes::<FleetEvent>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_core::FrameFeedback;
    use ff_models::GpuProfile;
    use ff_server::{AdmissionPolicy, OverflowPolicy, RoutingPolicy, ServerSpec};
    use ff_sim::RngFactory;

    fn short_fleet() -> FleetConfig {
        let mut c = FleetConfig::default();
        c.stream.total_frames = 900; // 30 s
        c
    }

    fn ff_controllers(n: usize) -> Vec<Box<dyn Controller>> {
        (0..n)
            .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
            .collect()
    }

    #[test]
    fn check_refuses_background_load_on_shards() {
        let mut config = short_fleet();
        config.background = Some(BackgroundConfig {
            steps: vec![(0.0, 10.0)],
            model: ModelKind::MobileNetV3Small,
        });
        assert_eq!(config.check(), Ok(()), "one shard runs background load");
        config.engine.shards = 2;
        let why = config.check().expect_err("two shards cannot");
        assert!(why.contains("`background` load"), "{why}");
    }

    #[test]
    fn check_refuses_a_propagation_floor_under_a_microsecond_on_shards() {
        let mut config = short_fleet();
        config.link.propagation = SimDuration::ZERO;
        assert_eq!(config.check(), Ok(()), "one shard needs no lookahead");
        config.engine.shards = 2;
        let why = config.check().expect_err("two shards need a window");
        assert!(why.contains("at least 1µs"), "{why}");
    }

    #[test]
    fn check_refuses_a_fleet_past_the_tag_space() {
        let device = FleetDeviceConfig {
            device: DeviceKind::Pi4BRev12,
            model: ModelKind::MobileNetV3Small,
        };
        let mut config = FleetConfig {
            devices: vec![device; FLEET_MAX_DEVICES],
            ..FleetConfig::default()
        };
        assert_eq!(config.check(), Ok(()), "the largest fleet the tags hold");
        config.devices.push(device);
        let why = config.check().expect_err("one device past the tag space");
        assert!(why.contains("at most 2097152 devices"), "{why}");
    }

    #[test]
    fn three_pis_share_the_server_on_an_ideal_network() {
        let result = run_fleet(short_fleet(), ff_controllers(3));
        assert_eq!(result.devices.len(), 3);
        // 3 devices * 30 fps = 90 rps offered at full offload — well below
        // the ~145 rps saturation point, so everyone converges near F_s.
        for d in &result.devices {
            let late = d.qos.aggregate(15.0, 30.0).unwrap();
            assert!(
                late.mean_throughput > 25.0,
                "{}: throughput {:.1}",
                d.device,
                late.mean_throughput
            );
        }
        assert!(result.total_mean_throughput > 75.0);
        assert!(
            result.offload_fairness > 0.95,
            "uncontended fleet should be fair, index {:.3}",
            result.offload_fairness
        );
    }

    #[test]
    fn sharded_engine_option_reproduces_the_serial_fleet() {
        // The full differential suite lives in tests/shard_determinism.rs;
        // this is the in-module smoke: three devices on three shards,
        // dispatched through the public `run_fleet` entry point.
        let mut sharded = short_fleet();
        sharded.engine.shards = 3;
        let a = run_fleet(short_fleet(), ff_controllers(3));
        let b = run_fleet(sharded, ff_controllers(3));
        for (da, db) in a.devices.iter().zip(&b.devices) {
            assert_eq!(da.qos.records(), db.qos.records());
            assert_eq!(da.frames_offloaded, db.frames_offloaded);
            assert_eq!(da.frames_local, db.frames_local);
            assert_eq!(da.offload_successes, db.offload_successes);
            assert_eq!(da.offload_timeouts, db.offload_timeouts);
        }
        assert_eq!(a.server_stats, b.server_stats);
        assert_eq!(a.rejections_by_device, b.rejections_by_device);
        assert_eq!(a.events_handled, b.events_handled);
    }

    #[test]
    fn a_fleet_row_records_a_trace_that_replays_on_a_fresh_device_runtime() {
        // The direct proof that the fleet engines drive the loop the
        // replayer does: device 1 of a Table V fleet (fleet-packed frame
        // and probe tags) records its runtime calls, unsharded and on
        // two shards, and a freshly built `DeviceRuntime` reproduces
        // every recorded decision — while recording changes nothing.
        for shards in [1, 2] {
            let mut config = FleetConfig {
                network: ff_workload::table_v(),
                ..FleetConfig::default()
            };
            config.stream.total_frames = 3_600; // Table V's 120 s
            config.engine.shards = shards;
            let untraced = run_fleet(config.clone(), ff_controllers(3));
            let run = run_fleet_recording(config, ff_controllers(3), Some(1), None);
            let (traced, bytes) = (run.result, run.trace);
            assert_eq!(
                format!("{traced:?}"),
                format!("{untraced:?}"),
                "recording perturbed the {shards}-shard run"
            );
            let bytes = bytes.expect("device 1 was recording");
            let trace = ff_trace::Trace::decode(&bytes).expect("the recording decodes");
            let report = crate::replay_verify(&trace).expect("replay diverged");
            assert_eq!(report.captures, 3_600);
            assert_eq!(report.ticks as usize, traced.devices[1].qos.len());
            assert!(traced.devices[1].offload_timeouts > 0, "Table V bites");
        }
    }

    #[test]
    fn a_watched_row_reads_the_same_on_one_and_two_shards() {
        // Row 4 of five: on two shards it is the second row of the second
        // shard, so the watch must find it by its local index there.
        let watched_run = |shards| {
            let mut config = FleetConfig {
                network: ff_workload::table_v(),
                adaptive_quality: true,
                adaptive_local_model: true,
                ..FleetConfig::default()
            };
            config.devices = vec![config.devices[0]; 5];
            config.stream.total_frames = 1_800;
            config.engine.shards = shards;
            let run = run_fleet_recording(config, ff_controllers(5), None, Some((4, true)));
            let (mut fleet, watch) = (run.result, run.watch);
            let device = fleet.devices.swap_remove(4);
            watch.expect("row 4 is watched").into_result(device, fleet)
        };
        let one = watched_run(1);
        assert!(one.offload_latency.is_some() && one.mean_local_accuracy.is_some());
        assert_eq!(one.trace.as_ref().map(Vec::len), Some(1_800));
        assert_eq!(format!("{one:?}"), format!("{:?}", watched_run(2)));
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = run_fleet(short_fleet(), ff_controllers(3));
        let b = run_fleet(short_fleet(), ff_controllers(3));
        for (da, db) in a.devices.iter().zip(&b.devices) {
            assert_eq!(da.qos.records(), db.qos.records());
        }
        assert_eq!(a.server_stats, b.server_stats);
    }

    #[test]
    fn devices_see_independent_randomness() {
        // Two identical device kinds on a lossy link: independent RNG
        // streams make their timeout traces diverge.
        let mut config = short_fleet();
        config.devices = vec![
            FleetDeviceConfig {
                device: DeviceKind::Pi4BRev12,
                model: ModelKind::MobileNetV3Small,
            };
            2
        ];
        config.network = StepSchedule::constant(NetworkConditions::new(4.0, 7.0));
        let result = run_fleet(config, ff_controllers(2));
        assert_ne!(
            result.devices[0].offload_timeouts, result.devices[1].offload_timeouts,
            "identical timeout traces imply shared RNG streams"
        );
    }

    #[test]
    fn saturating_fleet_triggers_rejections_and_fair_share_helps() {
        // Nine devices at 30 fps → 270 rps offered at full offload, far
        // beyond the ~145 rps server: heavy contention.
        let mut config = short_fleet();
        config.devices = (0..9)
            .map(|_| FleetDeviceConfig {
                device: DeviceKind::Pi4BRev12,
                model: ModelKind::MobileNetV3Small,
            })
            .collect();

        let gpu = GpuProfile::default();
        config.tier = Some(TierConfig::single(gpu, OverflowPolicy::RejectNewest));
        let newest = run_fleet(config.clone(), ff_controllers(9));
        config.tier = Some(TierConfig::single(gpu, OverflowPolicy::FairShare));
        let fair = run_fleet(config, ff_controllers(9));

        assert!(newest.server_stats.rejections > 0);
        assert!(fair.server_stats.rejections > 0);
        // Both policies keep a symmetric fleet roughly fair.
        assert!(
            newest.offload_fairness > 0.85,
            "{:.3}",
            newest.offload_fairness
        );
        assert!(fair.offload_fairness > 0.85, "{:.3}", fair.offload_fairness);
    }

    #[test]
    fn fair_share_shields_adaptive_tenants_from_a_greedy_one() {
        // Seven adaptive devices plus one that always offloads everything
        // (ignoring feedback). Under FairShare, the greedy tenant — which
        // keeps the most requests queued once the others back off — must
        // absorb a disproportionate share of the rejections.
        let mut config = short_fleet();
        config.devices = (0..8)
            .map(|_| FleetDeviceConfig {
                device: DeviceKind::Pi4BRev12,
                model: ModelKind::MobileNetV3Small,
            })
            .collect();
        let gpu = GpuProfile::default();
        config.tier = Some(TierConfig::single(gpu, OverflowPolicy::FairShare));
        let mut controllers = ff_controllers(7);
        controllers.push(Box::new(ff_baselines::AlwaysOffload::new()));
        let result = run_fleet(config, controllers);

        let greedy_rejections = result.rejections_by_device[7];
        let adaptive_mean: f64 = result.rejections_by_device[..7]
            .iter()
            .map(|&r| r as f64)
            .sum::<f64>()
            / 7.0;
        assert!(
            greedy_rejections as f64 > adaptive_mean,
            "greedy tenant got {greedy_rejections} rejections vs adaptive mean {adaptive_mean:.0}"
        );
    }

    #[test]
    fn fair_share_preserves_jain_fairness_under_a_bursty_tenant() {
        // Fairness regression at ~2x saturation: six devices at 30 fps
        // offer 180 rps against a batch-limit-6 server that completes
        // ~83 rps, and one tenant is bursty (always offloads everything,
        // ignoring feedback). The overflow policy decides who wins:
        // FairShare charges the burst back to its own tenant and keeps the
        // fleet's successful-offload split near-even (Jain >= 0.9), while
        // RejectNewest lets the bursty tenant's standing queue crowd out
        // the adaptive tenants' sparser submissions and fairness collapses
        // below that bar.
        let mut config = short_fleet();
        let gpu = GpuProfile { batch_limit: 6 };
        config.devices = (0..6)
            .map(|_| FleetDeviceConfig {
                device: DeviceKind::Pi4BRev12,
                model: ModelKind::MobileNetV3Small,
            })
            .collect();
        let bursty_fleet = || {
            let mut controllers = ff_controllers(5);
            controllers.push(Box::new(ff_baselines::AlwaysOffload::new()) as Box<dyn Controller>);
            controllers
        };

        config.tier = Some(TierConfig::single(gpu, OverflowPolicy::FairShare));
        let fair = run_fleet(config.clone(), bursty_fleet());
        config.tier = Some(TierConfig::single(gpu, OverflowPolicy::RejectNewest));
        let newest = run_fleet(config, bursty_fleet());

        assert!(
            fair.offload_fairness >= 0.9,
            "FairShare must hold Jain >= 0.9 against a bursty tenant, got {:.3}",
            fair.offload_fairness
        );
        assert!(
            newest.offload_fairness < 0.9,
            "RejectNewest unexpectedly stayed fair ({:.3}) — the bursty \
             tenant should crowd out adaptive tenants",
            newest.offload_fairness
        );
        assert!(
            fair.offload_fairness > newest.offload_fairness,
            "FairShare ({:.3}) must beat RejectNewest ({:.3})",
            fair.offload_fairness,
            newest.offload_fairness
        );
    }

    #[test]
    fn degraded_network_hits_every_device() {
        let mut config = short_fleet();
        config.network = StepSchedule::constant(NetworkConditions::new(1.0, 7.0));
        let result = run_fleet(config, ff_controllers(3));
        for d in &result.devices {
            assert!(
                d.offload_timeouts > 0,
                "{} saw no timeouts on a dead link",
                d.device
            );
            // Controllers back off to the probe floor.
            let late = d.qos.aggregate(20.0, 30.0).unwrap();
            assert!(
                late.mean_po_target < 8.0,
                "{}: {}",
                d.device,
                late.mean_po_target
            );
        }
    }

    #[test]
    #[should_panic(expected = "one controller per device")]
    fn controller_count_mismatch_panics() {
        run_fleet(short_fleet(), ff_controllers(2));
    }

    #[test]
    fn per_device_mobility_schedules_apply_independently() {
        use ff_workload::{mobility_trace, MobilityConfig};
        let mut config = short_fleet();
        // Device 0 wanders; device 1 is pinned at a dead 1 Mbps; device 2
        // enjoys a clean 10 Mbps.
        let mut mobility = MobilityConfig::default();
        mobility.duration_secs = 30.0;
        let trace = mobility_trace(&mobility, &mut RngFactory::new(3).stream("fleet-mobility"));
        config.per_device_network = Some(vec![
            trace,
            StepSchedule::constant(NetworkConditions::new(1.0, 20.0)),
            StepSchedule::constant(NetworkConditions::new(10.0, 0.0)),
        ]);
        let result = run_fleet(config, ff_controllers(3));
        let late = |i: usize| result.devices[i].qos.aggregate(15.0, 30.0).unwrap();
        // The dead-link device falls to its probe floor; the clean device
        // offloads nearly everything.
        assert!(
            late(1).mean_po_target < 8.0,
            "dead link: {}",
            late(1).mean_po_target
        );
        assert!(
            late(2).mean_po_target > 25.0,
            "clean link: {}",
            late(2).mean_po_target
        );
        // The mobile device lands somewhere in between.
        let mobile = late(0).mean_po_target;
        assert!(mobile > 2.0 && mobile < 31.0, "mobile target {mobile}");
    }

    #[test]
    #[should_panic(expected = "`replay` cannot be combined with `scene`")]
    fn a_replayed_schedule_rejects_a_scene() {
        use ff_workload::{ReplayFrame, ScenePhase};
        let mut config = short_fleet();
        let frame = ReplayFrame {
            at_us: 0,
            bytes: 1_000,
        };
        config.replay = Some(ReplayFrames::new(vec![frame]));
        let phase = ScenePhase::new(0.2, 0.15);
        config.scene = Some(SceneScript::new(StepSchedule::constant(phase)));
        run_fleet(config, ff_controllers(3));
    }

    #[test]
    #[should_panic(expected = "`background.steps` is empty")]
    fn an_empty_background_schedule_is_rejected_before_the_run() {
        let mut config = short_fleet();
        config.background = Some(BackgroundConfig {
            steps: Vec::new(),
            model: ModelKind::MobileNetV3Small,
        });
        run_fleet(config, ff_controllers(3));
    }

    #[test]
    #[should_panic(expected = "one network schedule per device")]
    fn per_device_schedule_count_mismatch_panics() {
        let mut config = short_fleet();
        config.per_device_network = Some(vec![ff_workload::ideal_network()]);
        run_fleet(config, ff_controllers(3));
    }

    /// The bursty six-device scenario of
    /// `fair_share_preserves_jain_fairness_under_a_bursty_tenant`, tier
    /// edition: same offered load, same batch-limit-6 server.
    fn bursty_tier_config(admission: AdmissionPolicy) -> FleetConfig {
        let mut config = short_fleet();
        config.devices = (0..6)
            .map(|_| FleetDeviceConfig {
                device: DeviceKind::Pi4BRev12,
                model: ModelKind::MobileNetV3Small,
            })
            .collect();
        config.tier = Some(TierConfig {
            admission,
            ..TierConfig::single(GpuProfile { batch_limit: 6 }, OverflowPolicy::RejectNewest)
        });
        config
    }

    fn bursty_fleet() -> Vec<Box<dyn Controller>> {
        let mut controllers = ff_controllers(5);
        controllers.push(Box::new(ff_baselines::AlwaysOffload::new()) as Box<dyn Controller>);
        controllers
    }

    #[test]
    fn token_bucket_holds_fairness_where_reject_newest_collapses() {
        // The per-tenant token bucket is an *admission-side* fix for the
        // same collapse the FairShare overflow policy repairs on the
        // queue side: at ~2x saturation (180 rps offered vs ~83 rps
        // completed) a bursty tenant's standing queue crowds out the
        // adaptive tenants under RejectNewest. Capping every tenant at
        // its fair share (~83/6 ≈ 14 rps) before the queue keeps Jain
        // over successful offloads at >= 0.9; admit-all collapses below.
        let bucket = run_fleet(
            bursty_tier_config(AdmissionPolicy::TokenBucket {
                rate_rps: 14.0,
                burst: 14.0,
            }),
            bursty_fleet(),
        );
        let open = run_fleet(
            bursty_tier_config(AdmissionPolicy::AdmitAll),
            bursty_fleet(),
        );

        assert!(
            bucket.offload_fairness >= 0.9,
            "token bucket must hold Jain >= 0.9 against a bursty tenant, got {:.3}",
            bucket.offload_fairness
        );
        assert!(
            open.offload_fairness < 0.9,
            "admit-all over RejectNewest unexpectedly stayed fair ({:.3})",
            open.offload_fairness
        );
        assert!(
            bucket.admission_rejections > 0,
            "the bucket never clipped anything at 2x saturation"
        );
        assert_eq!(open.admission_rejections, 0);
    }

    #[test]
    fn po2c_beats_static_shard_on_deadline_misses_with_a_hot_shard() {
        // Hot shard by tenant placement: four devices over two equal
        // batch-limit-2 servers (~41 rps each). The two heavy tenants
        // (always-offload, 30 fps each) are devices 1 and 3 — static
        // sharding (`tenant % n`) lands *both* on server 1, 60 rps vs
        // 41 rps capacity, while server 0 idles next to the two
        // local-only tenants. Power-of-two choices compares live server
        // load per request and spreads the same 60 rps across both
        // servers, well under the tier's combined ~82 rps.
        let hot_shard_config = |routing: RoutingPolicy| {
            let mut config = short_fleet();
            config.devices = (0..4)
                .map(|_| FleetDeviceConfig {
                    device: DeviceKind::Pi4BRev12,
                    model: ModelKind::MobileNetV3Small,
                })
                .collect();
            config.tier = Some(TierConfig {
                routing,
                ..TierConfig::uniform(
                    2,
                    ServerSpec {
                        gpu: GpuProfile { batch_limit: 2 },
                        policy: OverflowPolicy::RejectNewest,
                    },
                )
            });
            config
        };
        let lineup = || {
            vec![
                Box::new(ff_baselines::LocalOnly::new()) as Box<dyn Controller>,
                Box::new(ff_baselines::AlwaysOffload::new()),
                Box::new(ff_baselines::LocalOnly::new()),
                Box::new(ff_baselines::AlwaysOffload::new()),
            ]
        };
        let miss_rate = |r: &FleetResult| {
            let offloaded: u64 = r.devices.iter().map(|d| d.frames_offloaded).sum();
            let timeouts: u64 = r.devices.iter().map(|d| d.offload_timeouts).sum();
            timeouts as f64 / offloaded.max(1) as f64
        };

        let shard = run_fleet(hot_shard_config(RoutingPolicy::StaticShard), lineup());
        let po2c = run_fleet(hot_shard_config(RoutingPolicy::PowerOfTwoChoices), lineup());

        assert!(
            miss_rate(&po2c) < miss_rate(&shard),
            "po2c miss rate {:.3} must beat static shard {:.3} with a hot shard",
            miss_rate(&po2c),
            miss_rate(&shard)
        );
        // The shard really was hot: static routing starved server 0.
        assert!(shard.per_server_stats[0].completions < shard.per_server_stats[1].completions);
    }

    #[test]
    fn rolling_restart_takes_servers_down_one_at_a_time() {
        // PR-1's crash machinery, per server: restart server 0 during
        // [5 s, 10 s) and server 1 during [12 s, 17 s). The tier never
        // loses both at once, so the fleet keeps completing work, and
        // each server's epoch guard discards its stale batch events.
        let mut config = short_fleet();
        config.tier = Some(TierConfig::uniform(2, ServerSpec::default()));
        config.outages = vec![
            TierOutage {
                server: 0,
                from_secs: 5.0,
                until_secs: 10.0,
            },
            TierOutage {
                server: 1,
                from_secs: 12.0,
                until_secs: 17.0,
            },
        ];
        let result = run_fleet(config, ff_controllers(3));

        assert_eq!(result.per_server_stats.len(), 2);
        for (i, s) in result.per_server_stats.iter().enumerate() {
            assert!(
                s.completions > 0,
                "server {i} completed nothing across the rolling restart"
            );
        }
        // Work still flowed overall, and the per-server split accounts
        // for every completion.
        assert!(result.server_stats.completions > 0);
        assert_eq!(
            result
                .per_server_stats
                .iter()
                .map(|s| s.completions)
                .sum::<u64>(),
            result.server_stats.completions
        );
    }

    #[test]
    #[should_panic(expected = "outage names server")]
    fn outage_beyond_tier_size_panics() {
        let mut config = short_fleet();
        config.outages = vec![TierOutage {
            server: 3,
            from_secs: 1.0,
            until_secs: 2.0,
        }];
        run_fleet(config, ff_controllers(3));
    }
}
