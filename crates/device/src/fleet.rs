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
//! for rolling-restart scenarios.
//!
//! The device control loop is [`crate::runtime`]'s, the same one the
//! live clients and the replayer run: this module is a host adapter. The
//! single-device experiment is this host too — a fleet of one carrying
//! a [`Solo`] block for what only the experiment has. [`FleetCore`]
//! owns each device's frame source, uplink, local engine and filter,
//! turns simulation events into runtime calls and schedules what they
//! ask for; the only difference between the single-threaded engine and a
//! shard ([`crate::shard`]) is where a delivered uplink goes (see
//! [`FleetCore`]).
//!
//! What reaches the calendar: an event is filed only if something other
//! than its own device can observe its instant. Captures, ticks,
//! deadlines and responses are each filed a constant distance ahead, so
//! they wait on the event queue's FIFO lanes ([`lane`]); a finished
//! batch's responses share one entry; and a local inference's completion
//! is not filed at all — the engine applies it when its device next looks
//! ([`LocalEngine::apply_due`]). DESIGN.md §"What is a calendar event".
//!
//! Per-device state lives in structure-of-arrays form ([`FleetDevices`]),
//! indexed by the device id packed into each tag ([`crate::tags`] defines
//! the layout). The runtime's state is two of those columns — the
//! cache line every capture touches, and everything only an offload
//! touches ([`RuntimeColumns`]) — so a device parked at the probe floor
//! is served from a small array while its flight table stays cold.

use crate::local::LocalEngine;
use crate::runtime::{
    bootstrap, trace_header, DeviceLoop, FrameState, OffloadState, RuntimeConfig, SubmitOutcome,
    TickOutput, Transport,
};
use crate::selection::ModelSelection;
use crate::solo::Solo;
use crate::splitter::Route;
use ff_core::Controller;
use ff_metrics::QosLog;
use ff_models::{DeviceKind, GpuProfile, ModelKind};
use ff_net::{Link, LinkConfig, NetworkConditions, SendOutcome};
use ff_server::{
    jain_fairness_index, BatchOutput, OverflowPolicy, Request, ServerStats, ServerTier, TenantId,
    TierConfig, TierSubmit,
};
use ff_sim::{
    Ctx, EventQueue, QueueBackend, RngFactory, SimDuration, SimModel, SimTime, Simulation,
};
use ff_telemetry::{Metric, Recorder, Scope, Telemetry};
use ff_trace::TraceHandle;
use ff_workload::{
    FilterConfig, FilterStats, FilterVerdict, FrameSource, ReplayCursor, SceneScript,
    SemanticFilter, StepSchedule, StreamConfig,
};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::tags::{
    fleet_tag as make_tag, fleet_tag_device as tag_device, is_background_tag,
    is_probe_tag as tag_is_probe, BACKGROUND_TAG_BASE,
};

/// The event queue's lanes ([`ff_sim::LANES`]), one per class of event
/// the fleet host files in time order. The first four are filed a
/// constant distance ahead of `now`; the last three are FIFO per link,
/// per server and per background process, so in a fleet of one they stay
/// in step, while in a larger fleet an out-of-order push falls through to
/// the backend under its own sequence number (pop order never changes).
/// A shard files only the first four.
pub(crate) mod lane {
    /// The next capture, one frame interval ahead.
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
    /// The single pending background arrival (a fleet of one's).
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
    /// allocating fresh result vectors per batch. Disabling this exists
    /// only to measure the allocating baseline.
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
    /// Panic on a window that ends before it starts or starts negative.
    pub fn validate(&self, servers: usize) {
        assert!(
            self.server < servers,
            "outage names server {} but the tier has {servers}",
            self.server
        );
        assert!(
            self.from_secs >= 0.0 && self.until_secs > self.from_secs,
            "outage window [{}, {}) is empty or negative",
            self.from_secs,
            self.until_secs
        );
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

/// Fleet-wide configuration.
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
    /// Shared server GPU profile (the `N = 1` legacy knob; ignored when
    /// `tier` is set).
    pub gpu: GpuProfile,
    /// Server overflow policy (the fairness ablation knob; ignored when
    /// `tier` is set).
    pub policy: OverflowPolicy,
    /// Explicit server-tier topology: N servers plus routing and
    /// admission policies. `None` means the legacy single server built
    /// from `gpu` + `policy` — bit-identical to the pre-tier path.
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
            gpu: GpuProfile::default(),
            policy: OverflowPolicy::RejectNewest,
            tier: None,
            outages: Vec::new(),
            engine: EngineOptions::default(),
            telemetry: Telemetry::disabled(),
            scene: None,
            filter: None,
            selection: ModelSelection::AlwaysPaper,
            remote_model: None,
        }
    }
}

impl FleetConfig {
    /// The effective tier topology: the explicit `tier` if set, else the
    /// legacy single server built from `gpu` + `policy`.
    pub fn tier_config(&self) -> TierConfig {
        self.tier
            .clone()
            .unwrap_or_else(|| TierConfig::single(self.gpu, self.policy))
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

    /// The instant the run ends: stream duration plus one deadline of
    /// drain time.
    pub(crate) fn end_at(&self) -> SimTime {
        SimTime::ZERO + self.stream.stream_duration() + self.deadline
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
        }
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
pub(crate) struct FleetDevices {
    /// Global index of local device 0.
    pub(crate) base: usize,
    pub(crate) controller: Vec<Box<dyn Controller>>,
    pub(crate) source: Vec<FrameSource<ChaCha8Rng>>,
    pub(crate) engine: Vec<LocalEngine<ChaCha8Rng>>,
    pub(crate) link: Vec<Link<ChaCha8Rng>>,
    /// One filter per device, or empty when `FleetConfig::filter` is
    /// `None`.
    pub(crate) filter: Vec<SemanticFilter>,
    pub(crate) frames_local: Vec<u64>,
    pub(crate) runtime: RuntimeColumns,
}

// One source per device: a field added to `FrameSource` costs a
// 100k-device fleet 100 000× its size. (Checked here, where the RNG the
// fleet instantiates it with is known.)
const _: () = assert!(std::mem::size_of::<FrameSource<ChaCha8Rng>>() <= 192);
// Likewise one engine per device.
const _: () = assert!(std::mem::size_of::<LocalEngine<ChaCha8Rng>>() <= 176);

impl FleetDevices {
    /// Build the state for global devices `[base, base + controllers.len())`,
    /// with global device `traced` (if it falls in that range) recording
    /// an `ff-trace`.
    ///
    /// Every RNG stream is derived from the **global** device index, so
    /// the same device gets bit-identical randomness regardless of how
    /// the fleet is partitioned into shards.
    pub(crate) fn build(
        config: &FleetConfig,
        controllers: Vec<Box<dyn Controller>>,
        base: usize,
        traced: Option<usize>,
    ) -> FleetDevices {
        let rng = RngFactory::new(config.seed);
        let n = controllers.len();
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
        let mut devs = FleetDevices {
            base,
            controller: controllers,
            source: Vec::with_capacity(n),
            engine: Vec::with_capacity(n),
            link: Vec::with_capacity(n),
            filter: Vec::with_capacity(if config.filter.is_some() { n } else { 0 }),
            frames_local: vec![0; n],
            runtime: RuntimeColumns {
                configs,
                model: Vec::with_capacity(n),
                frame: Vec::with_capacity(n),
                offload: Vec::with_capacity(n),
                qos: Vec::with_capacity(n),
                recording: None,
                untraced: TraceHandle::disabled(),
            },
        };
        for (local, controller) in devs.controller.iter_mut().enumerate() {
            let g = base + local;
            let dc = &config.devices[g];
            let initial_conditions = match &config.per_device_network {
                Some(schedules) => *schedules[g].value_at(0.0),
                None => *config.network.value_at(0.0),
            };
            let source = match &config.scene {
                // The scene draws from its own indexed stream, so the
                // frame/local/link streams are untouched by enabling it.
                Some(script) => FrameSource::with_scene(
                    config.stream,
                    rng.indexed_stream("fleet-frames", g as u64),
                    script.clone(),
                    rng.indexed_stream("fleet-scene", g as u64),
                ),
                None => {
                    FrameSource::new(config.stream, rng.indexed_stream("fleet-frames", g as u64))
                }
            };
            devs.source.push(source);
            devs.engine.push(LocalEngine::new(
                dc.device,
                dc.model,
                rng.indexed_stream("fleet-local", g as u64),
            ));
            devs.link.push(Link::new(
                config.link,
                initial_conditions,
                rng.indexed_stream("fleet-link", g as u64),
            ));
            devs.filter.extend(config.filter.map(SemanticFilter::new));

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
    /// global order for `base == 0`).
    pub(crate) fn into_results(self, config: &FleetConfig) -> Vec<FleetDeviceResult> {
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
            .iter()
            .zip(devices)
            .zip(frame.iter().zip(&offload))
            .zip(qos.into_iter().zip(self.frames_local))
            .map(
                |(((controller, dc), (frame, offload)), (qos, frames_local))| FleetDeviceResult {
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
                },
            )
            .collect()
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
    /// Background schedule step `step` takes effect ([`Solo`] only).
    LoadChange(usize),
    /// The next background request arrives ([`Solo`] only).
    Background,
}

// Every calendar and lane entry carries one: 16 bytes, not the 32 that
// word-sized server, device and step indices would take.
const _: () = assert!(std::mem::size_of::<FleetEvent>() <= 16);

impl FleetEvent {
    /// Step `step` of the shared network schedule (`dev: None`) or of
    /// device `dev`'s own.
    pub(crate) fn network_change(dev: Option<usize>, step: usize) -> FleetEvent {
        FleetEvent::NetworkChange {
            dev: dev.map(|d| d as u32),
            step: step as u32,
        }
    }
}

/// The simulated side of the runtime's [`Transport`] seam: frames and
/// probes enter the device's emulated uplink, and `deliver(sent_at, at,
/// tag)` says where a delivery goes — an `Uplinked` event on the host's
/// calendar, or a shard's outbox.
pub(crate) struct LinkTransport<'a, F> {
    pub(crate) link: &'a mut Link<ChaCha8Rng>,
    pub(crate) deliver: F,
}

impl<F: FnMut(SimTime, SimTime, u64)> Transport for LinkTransport<'_, F> {
    fn send(&mut self, tag: u64, bytes: u64, now: SimTime) -> SubmitOutcome {
        match self.link.send(now, bytes) {
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
    /// The single-device experiment's block, for a fleet of one.
    pub(crate) solo: Option<Box<Solo>>,
}

impl FleetCore {
    pub(crate) fn new(config: Arc<FleetConfig>, devs: FleetDevices) -> FleetCore {
        FleetCore {
            end_at: config.end_at(),
            config,
            devs,
            local_completions: 0,
            solo: None,
        }
    }

    /// Make this fleet of one run `solo`'s features: its end of run and
    /// its loss model, which the link takes before its first send.
    fn attach(&mut self, solo: Box<Solo>) {
        assert_eq!(
            self.devs.link.len(),
            1,
            "a Solo block drives a fleet of one"
        );
        self.end_at = solo.end_at;
        if let Some(model) = solo.loss_model {
            self.devs.link[0].set_loss_model(model);
        }
        self.solo = Some(solo);
    }

    /// The runtime row of the device `tag` belongs to: where the hosts
    /// deliver a response, a deadline or a batch rejection.
    #[inline]
    pub(crate) fn row_of(&mut self, tag: u64) -> DeviceLoop<'_> {
        self.devs.runtime.lend(tag_device(tag) - self.devs.base)
    }

    pub(crate) fn capture(
        &mut self,
        ctx: &mut Ctx<'_, FleetEvent>,
        mut uplinked: impl FnMut(&mut Ctx<'_, FleetEvent>, SimTime, SimTime, u64),
        g: usize,
    ) {
        let now = ctx.now();
        let FleetDevices {
            base,
            source,
            engine,
            link,
            filter,
            frames_local,
            runtime,
            ..
        } = &mut self.devs;
        let i = g - *base;
        let src = &mut source[i];
        let mut solo = self.solo.as_deref_mut();
        let (frame, info) = match solo.as_mut().and_then(|s| s.replay.as_mut()) {
            Some(replay) => (replay.next_frame(), None),
            None => (src.next_frame(), src.last_info()),
        };
        let Some(frame) = frame else {
            return;
        };
        // Semantic filter: drop or shrink low-information frames
        // before they cost routing, uplink, or local compute.
        let mut frame_bytes = frame.bytes;
        if let (Some(filter), Some(info)) = (filter.get_mut(i), info) {
            match filter.verdict(info, frame.bytes) {
                FilterVerdict::Pass => {}
                FilterVerdict::Shrink { bytes } => frame_bytes = bytes,
                FilterVerdict::Skip => {
                    if let Some(solo) = solo.as_deref_mut() {
                        solo.filtered_out(frame.id.0, now, frame.bytes);
                    }
                    if let Some(next) = next_capture(src, solo.as_deref()) {
                        ctx.schedule_lane(lane::CAPTURE, next, FleetEvent::Capture(g));
                    }
                    return;
                }
            }
        }
        let mut rt = runtime.lend(i);
        match rt.route_frame(frame.id.0, frame_bytes, now) {
            Route::Offload => {
                let bytes = match solo.as_deref_mut() {
                    Some(solo) => solo.offloaded(frame.id.0, now, frame_bytes),
                    None => frame_bytes,
                };
                let tag = make_tag(g, frame.id.0, false);
                let mut transport = LinkTransport {
                    link: &mut link[i],
                    deliver: |sent_at, at, tag| uplinked(ctx, sent_at, at, tag),
                };
                let submission = rt.offload(&mut transport, tag, bytes, now);
                let deadline = FleetEvent::Deadline { tag };
                ctx.schedule_lane(lane::DEADLINE, submission.deadline_at, deadline);
            }
            Route::Local => {
                let engine = &mut engine[i];
                self.local_completions +=
                    apply_local(engine, &mut rt, solo.as_deref_mut(), now, false);
                let outcome = engine.offer(now);
                if let Some(solo) = solo.as_deref_mut() {
                    solo.offered_locally(frame.id.0, now, frame_bytes, outcome);
                }
                frames_local[i] += 1;
            }
        }
        if let Some(next) = next_capture(src, solo.as_deref()) {
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
        let i = g - self.devs.base;
        // The heartbeat probe leaves through this device's own link.
        let mut transport = LinkTransport {
            link: &mut self.devs.link[i],
            deliver: |sent_at, at, tag| uplinked(ctx, sent_at, at, tag),
        };
        let controller = self.devs.controller[i].as_mut();
        let engine = &mut self.devs.engine[i];
        let mut rt = self.devs.runtime.lend(i);
        let mut solo = self.solo.as_deref_mut();
        self.local_completions += apply_local(engine, &mut rt, solo.as_deref_mut(), now, true);
        let out = rt.tick(now, controller, &mut transport);
        if let Some(solo) = solo {
            solo.ticked(&out, engine);
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
    /// `end_at` (the calendar would have popped each), let a [`Solo`]
    /// block read its device, close the trace, and free the columns no
    /// result reads — before the caller allocates the results, so that
    /// teardown does not set the run's peak memory.
    pub(crate) fn finish(&mut self, now: SimTime) -> Option<Vec<u8>> {
        let devs = &mut self.devs;
        for (i, engine) in devs.engine.iter_mut().enumerate() {
            let mut rt = devs.runtime.lend(i);
            let solo = self.solo.as_deref_mut();
            self.local_completions += apply_local(engine, &mut rt, solo, self.end_at, false);
        }
        if let Some(solo) = self.solo.as_deref_mut() {
            solo.finish(now, &devs.link[0], &devs.engine[0], &devs.source[0]);
        }
        devs.source = Vec::new();
        devs.engine = Vec::new();
        devs.link = Vec::new();
        devs.runtime.finish_trace(now)
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

    pub(crate) fn network_change(&mut self, dev: Option<usize>, step: usize) {
        match dev {
            None => {
                let conditions = self.config.network.steps()[step].1;
                for link in &mut self.devs.link {
                    link.set_conditions(conditions);
                }
            }
            Some(dev) => {
                let schedules = self
                    .config
                    .per_device_network
                    .as_ref()
                    .expect("per-device event requires per-device schedules");
                let conditions = schedules[dev].steps()[step].1;
                self.devs.link[dev - self.devs.base].set_conditions(conditions);
            }
        }
        if let Some(model) = self.solo.as_ref().and_then(|solo| solo.loss_model) {
            for link in &mut self.devs.link {
                link.set_loss_model(model);
            }
        }
    }
}

/// Apply the local completions due at `now` ([`LocalEngine::apply_due`])
/// to the device's runtime row and, in a fleet of one, its [`Solo`]
/// block. Returns how many were applied.
fn apply_local(
    engine: &mut LocalEngine<ChaCha8Rng>,
    rt: &mut DeviceLoop<'_>,
    mut solo: Option<&mut Solo>,
    now: SimTime,
    before_tick: bool,
) -> u64 {
    engine.apply_due(now, before_tick, |done_at| {
        rt.note_local_done(1, done_at);
        if let Some(solo) = solo.as_deref_mut() {
            solo.local_completed();
        }
    })
}

/// When the device captures next, if it does: from its generated stream,
/// or from a [`Solo`] block's replayed schedule.
fn next_capture(source: &FrameSource<ChaCha8Rng>, solo: Option<&Solo>) -> Option<SimTime> {
    match solo.and_then(|solo| solo.replay.as_ref()) {
        Some(replay) => (!replay.exhausted()).then(|| replay.next_capture_time()),
        None => (!source.exhausted()).then(|| source.next_capture_time()),
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
    server: Scope,
    /// Per-server scopes ("server/{i}"), interned only for N > 1 tiers.
    servers: Vec<Scope>,
    last_server: ServerStats,
    last_servers: Vec<ServerStats>,
    last_admission: u64,
}

impl TierObs {
    pub(crate) fn new(telemetry: &Telemetry, n_servers: usize) -> TierObs {
        let servers: Vec<Scope> = if n_servers > 1 {
            (0..n_servers)
                .map(|i| telemetry.scope(&format!("server/{i}")))
                .collect()
        } else {
            Vec::new()
        };
        TierObs {
            server: telemetry.scope("server"),
            last_servers: vec![ServerStats::default(); servers.len()],
            servers,
            last_server: ServerStats::default(),
            last_admission: 0,
        }
    }

    pub(crate) fn report(&mut self, rec: &mut Recorder, tier: &ServerTier, t: u64) {
        let server = self.server;
        let stats = tier.total_stats();
        let last = self.last_server;
        let queue_depth: usize = (0..tier.len())
            .map(|i| tier.server(i).batcher().queue_len())
            .sum();
        rec.gauge(server, Metric::ServerQueueDepth, queue_depth as f64, t);
        let occupancy: usize = (0..tier.len())
            .map(|i| tier.server(i).batcher().running_batch_size().unwrap_or(0))
            .sum();
        rec.gauge(server, Metric::BatchOccupancy, occupancy as f64, t);
        let d = stats.requests_received - last.requests_received;
        rec.counter(server, Metric::ServerRequests, d, t);
        let d = stats.completions - last.completions;
        rec.counter(server, Metric::ServerCompletions, d, t);
        let d = stats.rejections - last.rejections;
        rec.counter(server, Metric::ServerRejections, d, t);
        let d = stats.batches_executed - last.batches_executed;
        rec.counter(server, Metric::ServerBatches, d, t);
        let admission = tier.admission_rejections();
        let d = admission - self.last_admission;
        rec.counter(server, Metric::AdmissionRejections, d, t);
        self.last_admission = admission;
        self.last_server = stats;

        // Per-server scopes, only interned for multi-server tiers.
        for (i, &scope) in self.servers.iter().enumerate() {
            let s = tier.server(i).batcher();
            let stats = s.stats();
            let last = self.last_servers[i];
            rec.gauge(scope, Metric::ServerUp, tier.is_up(i) as u64 as f64, t);
            rec.gauge(scope, Metric::ServerQueueDepth, s.queue_len() as f64, t);
            let occupancy = s.running_batch_size().unwrap_or(0);
            rec.gauge(scope, Metric::BatchOccupancy, occupancy as f64, t);
            let d = stats.requests_received - last.requests_received;
            rec.counter(scope, Metric::ServerRequests, d, t);
            let d = stats.completions - last.completions;
            rec.counter(scope, Metric::ServerCompletions, d, t);
            let d = stats.rejections - last.rejections;
            rec.counter(scope, Metric::ServerRejections, d, t);
            let d = stats.batches_executed - last.batches_executed;
            rec.counter(scope, Metric::ServerBatches, d, t);
            self.last_servers[i] = stats;
        }
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

/// The single-threaded engine's uplink seam: an `Uplinked` event on the
/// link's lane.
fn schedule_uplink(ctx: &mut Ctx<'_, FleetEvent>, _sent_at: SimTime, at: SimTime, tag: u64) {
    ctx.schedule_lane(lane::UPLINK, at, FleetEvent::Uplinked { tag });
}

struct FleetWorld {
    core: FleetCore,
    tier: ServerTier,
    /// The tier's routing stream ("routing"); consumed only by
    /// power-of-two-choices routing with two or more live servers, so
    /// legacy single-server runs never advance it.
    routing_rng: ChaCha8Rng,
    batch_out: BatchOutput,
    /// Tags of the responses in flight to their devices, in the order of
    /// the [`FleetEvent::Responses`] entries that will deliver them (each
    /// is due one fixed propagation delay after it was filed, so the
    /// entries fire in filing order).
    responses: VecDeque<u64>,
    obs: FleetObs,
}

impl FleetWorld {
    /// Hand `request` to the tier; `regulated` requests face admission
    /// control (a device's frames; not its probes or background tenants).
    fn submit_to_server(
        &mut self,
        ctx: &mut Ctx<'_, FleetEvent>,
        request: Request,
        regulated: bool,
    ) -> TierSubmit {
        let outcome = self
            .tier
            .submit(ctx.now(), request, regulated, &mut self.routing_rng);
        if let TierSubmit::BatchStarted { server, done_at } = outcome {
            let epoch = self.tier.epoch(server);
            let server = server as u32;
            let done = FleetEvent::BatchDone { server, epoch };
            ctx.schedule_lane(lane::BATCH, done_at, done);
        }
        outcome
    }

    /// The block of a fleet of one, for its background events.
    fn solo(&mut self) -> &mut Solo {
        let solo = self.core.solo.as_deref_mut();
        solo.expect("background events are filed only with a Solo block")
    }

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
            self.obs
                .observe_shared(ctx, &self.tier, self.core.local_completions);
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
                let request = self.core.config.request_for(tag, now);
                let outcome = self.submit_to_server(ctx, request, !tag_is_probe(tag));
                if tag_is_probe(tag) {
                    // Probes to a lost/rejecting tier simply never come
                    // back: the heartbeat stays down.
                    return;
                }
                match outcome {
                    // The routed server is down: the frame vanishes in
                    // flight, so its deadline fires as a Network-cause
                    // timeout (same as the single-server outage path).
                    TierSubmit::Lost => {}
                    // Turned away at the door: the server saw it, so
                    // this is a ServerLoad-cause timeout at the
                    // deadline, same as a batch-formation rejection.
                    TierSubmit::AdmissionRejected => self.core.apply_arrival(tag, now, true),
                    TierSubmit::Queued { .. } | TierSubmit::BatchStarted { .. } => {
                        self.core.apply_arrival(tag, now, false)
                    }
                }
            }

            FleetEvent::BatchDone { server, epoch } => {
                // A stale epoch means the batch belonged to a server
                // process that has since crashed: its results are gone.
                let server = server as usize;
                if epoch != self.tier.epoch(server) {
                    return;
                }
                let now = ctx.now();
                let propagation = self.core.config.link.propagation;
                if !self.core.config.engine.reuse_batch_buffers {
                    // Fresh result vectors for every batch. Kept only
                    // because the benchmark names `reuse_batch_buffers`
                    // (ROADMAP item 9).
                    self.batch_out = BatchOutput::default();
                }
                self.tier.batch_done_into(server, now, &mut self.batch_out);
                // One response per device completion, all `propagation`
                // from now: one lane entry delivers them in this order.
                // Background tenants' requests go nowhere.
                let queued = self.responses.len();
                let tags = self.batch_out.completions.iter().map(|c| c.tag);
                self.responses
                    .extend(tags.filter(|&tag| !is_background_tag(tag)));
                let n = (self.responses.len() - queued) as u32;
                if n > 0 {
                    let at = now + propagation;
                    ctx.schedule_lane_batch(lane::RESPONSE, at, n, FleetEvent::Responses(n));
                }
                for r in &self.batch_out.rejections {
                    // Only a device's frames learn of a rejection.
                    let tag = r.tag;
                    if tag < BACKGROUND_TAG_BASE {
                        self.core.row_of(tag).frame_rejected_by_server(tag, now);
                    }
                }
                if let Some(done_at) = self.batch_out.next_done {
                    let server = server as u32;
                    let done = FleetEvent::BatchDone { server, epoch };
                    ctx.schedule_lane(lane::BATCH, done_at, done);
                }
            }

            FleetEvent::Responses(n) => {
                for tag in self.responses.drain(..n as usize) {
                    let outcome = self.core.row_of(tag).on_response(tag, ctx.now(), true);
                    if let Some(solo) = self.core.solo.as_deref_mut() {
                        solo.responded(tag, outcome);
                    }
                }
            }

            FleetEvent::Deadline { tag } => {
                let timed_out = self.core.row_of(tag).on_deadline(tag, ctx.now());
                if let (Some(solo), Some(cause)) = (self.core.solo.as_deref_mut(), timed_out) {
                    solo.timed_out(tag, cause);
                }
            }

            FleetEvent::Tick(dev) => {
                let out = self.core.tick(ctx, schedule_uplink, dev);
                self.observe_tick(ctx, dev, &out);
            }

            FleetEvent::ServerCrash(server) => self.tier.crash(server),

            FleetEvent::ServerRecover(server) => self.tier.recover(server),

            FleetEvent::NetworkChange { dev, step } => self
                .core
                .network_change(dev.map(|d| d as usize), step as usize),

            FleetEvent::LoadChange(step) => {
                if let Some(at) = self.solo().load_change(step, ctx.now()) {
                    ctx.schedule_lane(lane::BACKGROUND, at, FleetEvent::Background);
                }
            }

            FleetEvent::Background => {
                let now = ctx.now();
                let request = self.solo().background_arrival(now);
                self.submit_to_server(ctx, request, false);
                if let Some(at) = self.solo().next_background(now) {
                    ctx.schedule_lane(lane::BACKGROUND, at, FleetEvent::Background);
                }
            }
        }
    }
}

pub(crate) fn validate_fleet(config: &FleetConfig, controllers: &[Box<dyn Controller>]) {
    assert_eq!(
        config.devices.len(),
        controllers.len(),
        "one controller per device"
    );
    assert!(
        !config.devices.is_empty(),
        "fleet needs at least one device"
    );
    if let Some(schedules) = &config.per_device_network {
        assert_eq!(
            schedules.len(),
            config.devices.len(),
            "one network schedule per device"
        );
    }
}

/// The flattened network-change schedule: `(t_secs, device, step)` per
/// applied step, in the order the single-threaded engine schedules them.
pub(crate) fn network_change_events(config: &FleetConfig) -> Vec<(f64, Option<usize>, usize)> {
    match &config.per_device_network {
        Some(schedules) => schedules
            .iter()
            .enumerate()
            .flat_map(|(dev, schedule)| {
                schedule
                    .steps()
                    .iter()
                    .enumerate()
                    .skip(1)
                    .map(move |(step, &(t, _))| (t, Some(dev), step))
            })
            .collect(),
        None => config
            .network
            .steps()
            .iter()
            .enumerate()
            .skip(1)
            .map(|(step, &(t, _))| (t, None, step))
            .collect(),
    }
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
    run_fleet_recording(config, controllers, None, None).0
}

/// [`run_fleet`] with global device `traced`, if any, recording its
/// runtime calls as an `ff-trace` (returned beside the result), and, for
/// a fleet of one, a [`Solo`] block (handed back with its accounting).
/// Recording is write-only, so the result is that of the unrecorded run.
pub(crate) fn run_fleet_recording(
    config: FleetConfig,
    controllers: Vec<Box<dyn Controller>>,
    traced: Option<usize>,
    solo: Option<Box<Solo>>,
) -> (FleetResult, Option<Vec<u8>>, Option<Box<Solo>>) {
    validate_fleet(&config, &controllers);
    if config.engine.shards > 1 {
        assert!(
            solo.is_none(),
            "the sharded engine cannot run a Solo block (a single-device experiment)"
        );
        let shards = config.engine.shards;
        let (result, trace) = crate::shard::run_sharded(config, controllers, shards, traced);
        return (result, trace, None);
    }
    let n = controllers.len();
    let change_events = network_change_events(&config);
    let tier_config = config.tier_config();
    let tier = ServerTier::new(&tier_config);
    for outage in &config.outages {
        outage.validate(tier.len());
    }
    let routing_rng = RngFactory::new(config.seed).stream("routing");

    let backend = config.engine.backend;
    let controller_period = config.controller_period;
    let obs = FleetObs::new(&config.telemetry, n, tier.len());
    let outages = config.outages.clone();
    let devs = FleetDevices::build(&config, controllers, 0, traced);
    let mut core = FleetCore::new(Arc::new(config), devs);
    if let Some(solo) = solo {
        core.attach(solo);
    }
    let end_at = core.end_at;
    // A replayed schedule starts at its first recorded capture.
    let solo = core.solo.as_deref();
    let first_capture = solo
        .and_then(|solo| solo.replay.as_ref())
        .map_or(SimTime::ZERO, ReplayCursor::next_capture_time);
    let load_steps = solo.map(Solo::load_steps);
    let world = FleetWorld {
        core,
        tier,
        routing_rng,
        batch_out: BatchOutput::default(),
        responses: VecDeque::new(),
        obs,
    };
    let mut sim = Simulation::with_queue(world, EventQueue::with_backend(backend));
    for dev in 0..n {
        sim.schedule_lane(lane::CAPTURE, first_capture, FleetEvent::Capture(dev));
        let first_tick = SimTime::ZERO + controller_period;
        sim.schedule_lane(lane::TICK, first_tick, FleetEvent::Tick(dev));
    }
    for (t, dev, step) in change_events {
        sim.schedule_at(
            SimTime::from_secs_f64(t),
            FleetEvent::network_change(dev, step),
        );
    }
    if let Some(steps) = load_steps {
        for (step, &t) in steps.iter().enumerate().skip(1) {
            sim.schedule_at(SimTime::from_secs_f64(t), FleetEvent::LoadChange(step));
        }
        // Start the background process.
        sim.schedule_at(SimTime::ZERO, FleetEvent::LoadChange(0));
    }
    for outage in outages {
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
    let dispatched = sim.events_handled();
    let now = sim.now();
    // Dropping the simulation frees its calendar.
    let mut world = sim.into_model();
    // Drain whatever the final ticks recorded. The last (partial) window
    // stays open until the caller's `Telemetry::finish`, so one pipeline
    // can span several runs (e.g. a sweep).
    world.obs.telemetry.poll();

    let trace = world.core.finish(now);
    let events_handled = dispatched + world.core.local_completions;
    let device_results = world.core.devs.into_results(&world.core.config);
    let result = finish_fleet(device_results, &world.tier, events_handled);
    (result, trace, world.core.solo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_core::FrameFeedback;
    use ff_server::{AdmissionPolicy, RoutingPolicy, ServerSpec};
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
            let (traced, bytes, _) = run_fleet_recording(config, ff_controllers(3), Some(1), None);
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

        config.policy = OverflowPolicy::RejectNewest;
        let newest = run_fleet(config.clone(), ff_controllers(9));
        config.policy = OverflowPolicy::FairShare;
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
        config.policy = OverflowPolicy::FairShare;
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
        config.gpu = GpuProfile { batch_limit: 6 };
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

        config.policy = OverflowPolicy::FairShare;
        let fair = run_fleet(config.clone(), bursty_fleet());
        config.policy = OverflowPolicy::RejectNewest;
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
