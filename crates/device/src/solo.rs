//! What only the single-device experiment has: one optional block beside
//! the fleet host.
//!
//! [`run_experiment`](crate::run_experiment) lowers its
//! [`ExperimentConfig`] into a one-device fleet. What a fleet row has no
//! column for rides beside it in a [`Solo`]: adaptive JPEG quality, the
//! local-model ladder, the per-frame [`FrameTrace`], a replayed capture
//! schedule, the loss-model override, the Poisson background and peer
//! tenants, and the accumulators behind the experiment's latency
//! summaries and accuracy, quality and CPU means. The fleet host calls
//! each hook only when it holds a block, so `run_fleet` pays one `None`
//! check per hook site and not a byte per device.

use crate::cpu::CpuModel;
use crate::experiment::{ExperimentConfig, ExperimentResult};
use crate::fleet::FleetResult;
use crate::local::{LocalEngine, LocalOutcome};
use crate::offload::TimeoutCause;
use crate::quality::QualityAdapter;
use crate::runtime::{FrameOutcome, TickOutput, BACKGROUND_TAG_BASE};
use crate::selector::ModelSelector;
use crate::trace::{timeout_fate, FrameFate, FrameTrace};
use ff_metrics::LatencyStats;
use ff_models::{Compression, ModelKind};
use ff_net::{Link, LinkStats, LossModel};
use ff_server::{PoissonArrivals, Request, TenantId};
use ff_sim::{RngFactory, SimTime};
use ff_workload::{FrameSource, ReplayCursor, StepSchedule};
use rand_chacha::ChaCha8Rng;

/// The background and peer tenants' one tenant id (the device is 0).
const BACKGROUND_TENANT: TenantId = TenantId(1000);

/// The single-device experiment's features and accounting, for a fleet
/// of one (see the module docs).
pub(crate) struct Solo {
    /// A recorded capture schedule that replaces the device's generated
    /// stream (no frame RNG).
    pub(crate) replay: Option<ReplayCursor>,
    /// Replaces the network schedule's Bernoulli loss at every phase.
    pub(crate) loss_model: Option<LossModel>,
    /// The run's end: a replayed schedule's own length, or the stream's,
    /// plus one deadline of drain time.
    pub(crate) end_at: SimTime,
    quality: Option<QualityAdapter>,
    selector: Option<ModelSelector>,
    /// The stream's JPEG settings: the quality frames are offloaded at
    /// without adaptation, and the resolution adaptation scales.
    compression: Compression,
    fs: f64,
    offload_model: ModelKind,
    background: Background,
    trace: FrameTrace,
    /// The frames in the local engine and in its pending slot, for the
    /// per-frame trace.
    local_running: Option<u64>,
    local_pending: Option<u64>,
    /// Table III accuracy of the local model now running.
    local_accuracy: f64,
    local_accuracy_sum: f64,
    local_done: u64,
    offload_accuracy_sum: f64,
    offload_quality_sum: f64,
    latency: LatencyStats,
    uplink_latency: LatencyStats,
    server_latency: LatencyStats,
    /// Read off the device's columns when the run finishes.
    link_stats: LinkStats,
    local_busy_fraction: f64,
    frames_generated: u64,
}

/// The Poisson background tenants, with the constant peers folded in.
struct Background {
    schedule: StepSchedule<f64>,
    peers_fps: f64,
    /// The model background requests are billed as (the peers run the
    /// device's model).
    model: ModelKind,
    arrivals: PoissonArrivals<ChaCha8Rng>,
    rate: f64,
    /// Whether the next arrival is already filed.
    pending: bool,
    seq: u64,
}

impl Solo {
    pub(crate) fn new(config: &ExperimentConfig) -> Solo {
        let stream_end = match &config.replay {
            Some(replay) => replay.duration() + config.stream.frame_interval(),
            None => config.stream.stream_duration(),
        };
        let rng = RngFactory::new(config.seed);
        Solo {
            replay: config.replay.clone().map(ReplayCursor::new),
            loss_model: config.loss_model,
            end_at: SimTime::ZERO + stream_end + config.deadline,
            quality: config.adaptive_quality.map(QualityAdapter::new),
            selector: config
                .adaptive_local_model
                .clone()
                .map(|c| ModelSelector::new(c, config.device)),
            compression: config.stream.compression,
            fs: config.stream.fps,
            offload_model: config.remote_model.unwrap_or(config.model),
            background: Background {
                schedule: config.background.clone(),
                peers_fps: config.peer_devices as f64 * config.peer_rate_fps,
                model: config.model,
                arrivals: PoissonArrivals::new(rng.stream("background")),
                rate: 0.0,
                pending: false,
                seq: 0,
            },
            trace: FrameTrace::with_capacity(
                config.record_trace,
                config.stream.total_frames as usize,
            ),
            local_running: None,
            local_pending: None,
            local_accuracy: config.model.profile().top1_accuracy,
            local_accuracy_sum: 0.0,
            local_done: 0,
            offload_accuracy_sum: 0.0,
            offload_quality_sum: 0.0,
            latency: LatencyStats::new(),
            uplink_latency: LatencyStats::new(),
            server_latency: LatencyStats::new(),
            link_stats: LinkStats::default(),
            local_busy_fraction: 0.0,
            frames_generated: 0,
        }
    }

    /// The instants of the background schedule's steps.
    pub(crate) fn load_steps(&self) -> Vec<f64> {
        self.background
            .schedule
            .steps()
            .iter()
            .map(|&(t, _)| t)
            .collect()
    }

    /// The semantic filter skipped this frame.
    pub(crate) fn filtered_out(&mut self, id: u64, now: SimTime, bytes: u64) {
        self.trace.captured(id, now, bytes, FrameFate::FilteredOut);
    }

    /// A frame routed to the uplink: returns the bytes it is sent as,
    /// after any quality adaptation.
    pub(crate) fn offloaded(&mut self, id: u64, now: SimTime, bytes: u64) -> u64 {
        let resolution = self.compression.resolution;
        let (bytes, quality) = match &self.quality {
            Some(adapter) => (
                (bytes as f64 * adapter.byte_scale(resolution)).round() as u64,
                adapter.quality(),
            ),
            None => (bytes, self.compression.quality),
        };
        self.offload_accuracy_sum +=
            ff_models::predicted_top1(self.offload_model, Compression::new(quality, resolution));
        self.offload_quality_sum += quality as f64;
        let bytes = bytes.max(1);
        self.trace.captured(id, now, bytes, FrameFate::Unresolved);
        bytes
    }

    /// A frame offered to the local engine, and what the engine did.
    pub(crate) fn offered_locally(
        &mut self,
        id: u64,
        now: SimTime,
        bytes: u64,
        outcome: LocalOutcome,
    ) {
        self.trace.captured(id, now, bytes, FrameFate::Unresolved);
        match outcome {
            LocalOutcome::Started { .. } => self.local_running = Some(id),
            LocalOutcome::Queued => self.local_pending = Some(id),
            LocalOutcome::Replaced => {
                if let Some(skipped) = self.local_pending.replace(id) {
                    self.trace.resolve(skipped, FrameFate::LocalSkipped);
                }
            }
        }
    }

    /// The local inference in flight completed; the pending frame, if
    /// any, starts in its place.
    pub(crate) fn local_completed(&mut self) {
        self.local_done += 1;
        self.local_accuracy_sum += self.local_accuracy;
        if let Some(finished) = self.local_running.take() {
            self.trace.resolve(finished, FrameFate::LocalCompleted);
        }
        self.local_running = self.local_pending.take();
    }

    /// The controller ticked: adapt the JPEG quality to the interval's
    /// network timeouts and climb or descend the local-model ladder.
    pub(crate) fn ticked(&mut self, out: &TickOutput, engine: &mut LocalEngine<ChaCha8Rng>) {
        if let Some(adapter) = &mut self.quality {
            adapter.update(out.record.timeouts_network);
        }
        if let Some(selector) = &mut self.selector {
            let before = selector.model();
            let after = selector.update(out.record.po_target / self.fs);
            if before != after {
                engine.set_rate_fps(selector.local_rate_fps());
                self.local_accuracy = after.profile().top1_accuracy;
            }
        }
    }

    /// A response reached the device and resolved as `outcome`.
    pub(crate) fn responded(&mut self, tag: u64, outcome: FrameOutcome) {
        match outcome {
            FrameOutcome::Success { latency, breakdown } => {
                let latency_ms = latency.as_secs_f64() * 1_000.0;
                self.latency.record_ms(latency_ms);
                self.trace
                    .resolve(tag, FrameFate::OffloadSucceeded { latency_ms });
                if let (Some(up), Some(srv)) = (breakdown.uplink, breakdown.server_and_down) {
                    self.uplink_latency.record_ms(up.as_secs_f64() * 1_000.0);
                    self.server_latency.record_ms(srv.as_secs_f64() * 1_000.0);
                }
            }
            FrameOutcome::Timeout { cause } => self.timed_out(tag, cause),
            FrameOutcome::Probe | FrameOutcome::Stale | FrameOutcome::Rejected => {}
        }
    }

    /// The frame tagged `tag` timed out.
    pub(crate) fn timed_out(&mut self, tag: u64, cause: TimeoutCause) {
        self.trace.resolve(tag, timeout_fate(cause));
    }

    /// Background step `step` takes effect at `now`: the instant of the
    /// next arrival, if one is to be filed.
    pub(crate) fn load_change(&mut self, step: usize, now: SimTime) -> Option<SimTime> {
        let bg = &mut self.background;
        let t = bg.schedule.steps()[step].0;
        bg.rate = bg.schedule.value_at(t) + bg.peers_fps;
        self.next_background(now)
    }

    /// A background arrival at `now`: its request.
    pub(crate) fn background_arrival(&mut self, now: SimTime) -> Request {
        let bg = &mut self.background;
        bg.pending = false;
        let tag = BACKGROUND_TAG_BASE + bg.seq;
        bg.seq += 1;
        Request {
            tenant: BACKGROUND_TENANT,
            model: bg.model,
            submitted_at: now,
            tag,
        }
    }

    /// The instant of the next background arrival, unless one is already
    /// filed or the offered rate is zero.
    pub(crate) fn next_background(&mut self, now: SimTime) -> Option<SimTime> {
        let bg = &mut self.background;
        if bg.pending {
            return None;
        }
        let at = bg.arrivals.next_after(now, bg.rate)?;
        bg.pending = true;
        Some(at)
    }

    /// The run is over at `now`: read what the result needs off the
    /// device's columns before the host frees them.
    pub(crate) fn finish(
        &mut self,
        now: SimTime,
        link: &Link<ChaCha8Rng>,
        engine: &LocalEngine<ChaCha8Rng>,
        source: &FrameSource<ChaCha8Rng>,
    ) {
        self.link_stats = link.stats();
        self.local_busy_fraction = engine.busy_fraction(now);
        self.frames_generated = match &self.replay {
            Some(replay) => replay.generated(),
            None => source.generated(),
        };
    }

    /// The experiment's result: the fleet's one device and its tier, with
    /// this block's accounting.
    pub(crate) fn into_result(mut self, fleet: FleetResult) -> ExperimentResult {
        let device = fleet.devices.into_iter().next().expect("a fleet of one");
        let frames_offloaded = device.frames_offloaded;
        let offload_share = if self.frames_generated == 0 {
            0.0
        } else {
            (frames_offloaded as f64 / self.frames_generated as f64).min(1.0)
        };
        let offload_mean = |sum: f64| (frames_offloaded > 0).then(|| sum / frames_offloaded as f64);
        ExperimentResult {
            controller: device.controller.to_string(),
            offload_latency: self.latency.summary(),
            uplink_latency: self.uplink_latency.summary(),
            server_latency: self.server_latency.summary(),
            link_stats: self.link_stats,
            server_stats: fleet.server_stats,
            per_server_stats: fleet.per_server_stats,
            admission_rejections: fleet.admission_rejections,
            cpu_usage_pct: CpuModel::default().usage_pct(self.local_busy_fraction, offload_share),
            local_busy_fraction: self.local_busy_fraction,
            frames_generated: self.frames_generated,
            frames_offloaded,
            frames_local: device.frames_local,
            offload_successes: device.offload_successes,
            offload_timeouts: device.offload_timeouts,
            mean_throughput: device.mean_throughput,
            mean_offload_accuracy: offload_mean(self.offload_accuracy_sum),
            mean_offload_quality: offload_mean(self.offload_quality_sum),
            mean_local_accuracy: (self.local_done > 0)
                .then(|| self.local_accuracy_sum / self.local_done as f64),
            trace: self.trace.is_enabled().then(|| self.trace.into_records()),
            filter_stats: device.filter_stats,
            mean_accuracy_weighted_throughput: device.mean_accuracy_weighted_throughput,
            qos: device.qos,
        }
    }
}
