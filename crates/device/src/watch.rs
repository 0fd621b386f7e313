//! The one row a caller watches: what the experiment reports beyond a
//! fleet row's counters, in any fleet and on any shard. It rides in the
//! runtime columns beside the recording row's trace handle: one record
//! per run, not a byte per device.

use crate::cpu::CpuModel;
use crate::experiment::ExperimentResult;
use crate::fleet::{FleetConfig, FleetDeviceResult, FleetResult};
use crate::local::{EngineTally, LocalOutcome};
use crate::offload::TimeoutCause;
use crate::runtime::FrameOutcome;
use crate::tags::fleet_tag_seq;
use crate::trace::{timeout_fate, FrameFate, FrameTrace};
use ff_metrics::LatencyStats;
use ff_models::{Compression, ModelKind};
use ff_net::LinkStats;
use ff_sim::SimTime;

/// Per-frame accounting for one watched row (see the module docs).
#[derive(Default)]
pub(crate) struct Watch {
    /// The watched row, by local index.
    pub(crate) row: usize,
    trace: FrameTrace,
    /// The frames in the local engine and its pending slot.
    local_running: Option<u64>,
    local_pending: Option<u64>,
    /// Table III accuracy of the local model now running.
    local_accuracy: f64,
    local_accuracy_sum: f64,
    /// What the row's engine did (no other row keeps this).
    pub(crate) engine: EngineTally,
    offload_accuracy_sum: f64,
    offload_quality_sum: f64,
    latency: LatencyStats,
    uplink_latency: LatencyStats,
    server_latency: LatencyStats,
    /// What the row's link did: each send through it adds its counts.
    pub(crate) link_stats: LinkStats,
    /// Set when the run finishes, the count read off the row's source
    /// before the host frees it.
    pub(crate) local_busy_fraction: f64,
    pub(crate) frames_generated: u64,
}

impl Watch {
    /// Watch global device `g`, local row `row`, keeping a per-frame
    /// trace when `frame_trace`.
    pub(crate) fn new(config: &FleetConfig, row: usize, g: usize, frame_trace: bool) -> Watch {
        Watch {
            row,
            trace: FrameTrace::new(frame_trace),
            local_accuracy: config.devices[g].model.profile().top1_accuracy,
            ..Watch::default()
        }
    }

    /// The semantic filter skipped this frame.
    pub(crate) fn filtered_out(&mut self, id: u64, now: SimTime, bytes: u64) {
        self.trace.captured(id, now, bytes, FrameFate::FilteredOut);
    }

    /// A frame left for the uplink as `bytes`, compressed as `jpeg`, to
    /// be served as `model`.
    pub(crate) fn offloaded(
        &mut self,
        id: u64,
        now: SimTime,
        bytes: u64,
        jpeg: Compression,
        model: ModelKind,
    ) {
        self.offload_accuracy_sum += ff_models::predicted_top1(model, jpeg);
        self.offload_quality_sum += jpeg.quality as f64;
        self.trace.captured(id, now, bytes, FrameFate::Unresolved);
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
        self.engine.offered(now, outcome);
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

    /// The local inference in flight completed at `done_at`; the pending
    /// frame, if any, starts in its place, to complete at `next`.
    pub(crate) fn local_completed(&mut self, done_at: SimTime, next: Option<SimTime>) {
        self.engine.completed(done_at, next);
        self.local_accuracy_sum += self.local_accuracy;
        if let Some(finished) = self.local_running.take() {
            self.trace.resolve(finished, FrameFate::LocalCompleted);
        }
        self.local_running = self.local_pending.take();
    }

    /// The local-model ladder moved the row's engine to `model`.
    pub(crate) fn local_model_changed(&mut self, model: ModelKind) {
        self.local_accuracy = model.profile().top1_accuracy;
    }

    /// A response reached the row and resolved as `outcome`.
    pub(crate) fn responded(&mut self, tag: u64, outcome: FrameOutcome) {
        match outcome {
            FrameOutcome::Success { latency, breakdown } => {
                let latency_ms = latency.as_secs_f64() * 1_000.0;
                self.latency.record_ms(latency_ms);
                let fate = FrameFate::OffloadSucceeded { latency_ms };
                self.trace.resolve(fleet_tag_seq(tag), fate);
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
        self.trace.resolve(fleet_tag_seq(tag), timeout_fate(cause));
    }

    /// The experiment's result: the watched row's `device` outcome and
    /// the `fleet`'s tier, with this record's accounting.
    pub(crate) fn into_result(
        mut self,
        device: FleetDeviceResult,
        fleet: FleetResult,
    ) -> ExperimentResult {
        let frames_offloaded = device.frames_offloaded;
        // Nothing is offloaded from an empty stream: a share of 0.
        let generated = self.frames_generated.max(1) as f64;
        let offload_share = (frames_offloaded as f64 / generated).min(1.0);
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
            mean_local_accuracy: (self.engine.completed > 0)
                .then(|| self.local_accuracy_sum / self.engine.completed as f64),
            trace: self.trace.is_enabled().then(|| self.trace.into_records()),
            filter_stats: device.filter_stats,
            mean_accuracy_weighted_throughput: device.mean_accuracy_weighted_throughput,
            qos: device.qos,
        }
    }
}
