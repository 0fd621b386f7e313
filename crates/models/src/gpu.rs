//! GPU batch-inference latency model (the edge server's accelerator).
//!
//! The paper's server is a Tesla V100 behind TensorFlow with adaptive
//! batching (§IV-A). We model batch execution latency with the standard
//! affine form `L(b) = base + per_frame · b`: a fixed kernel-launch /
//! host-device transfer overhead plus a per-frame term. This is the same
//! first-order model the GPU-batching literature the paper cites uses, and
//! it produces the paper's qualitative behaviour: batching amortizes the
//! base cost, and saturation arises when offered load exceeds
//! `batch_limit / L(batch_limit)`.

use crate::zoo::ModelKind;
use serde::{Deserialize, Serialize};

/// Latency model for one classification model on the server GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct GpuModelProfile {
    /// The model this latency profile describes.
    pub model: ModelKind,
    /// Fixed per-batch overhead in milliseconds.
    pub batch_base_ms: f64,
    /// Marginal cost of one more frame in the batch, in milliseconds.
    pub per_frame_ms: f64,
}

/// The edge server's GPU profile: a V100-class accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuProfile {
    /// Maximum frames per batch (§IV-A imposes 15).
    pub batch_limit: usize,
}

/// The paper's batch-size cap.
pub(crate) const PAPER_BATCH_LIMIT: usize = 15;

impl Default for GpuProfile {
    fn default() -> Self {
        GpuProfile {
            batch_limit: PAPER_BATCH_LIMIT,
        }
    }
}

impl GpuProfile {
    /// Latency model for `model` on this GPU.
    ///
    /// Calibrated so that the saturation throughput for MobileNetV3Small
    /// (batch-15 steady state) is ~150 inferences/s — the offered-load
    /// level at which Table VI shows the measured device can no longer fit
    /// in any offloading.
    pub(crate) fn model_profile(self, model: ModelKind) -> GpuModelProfile {
        let (batch_base_ms, per_frame_ms) = match model {
            ModelKind::MobileNetV3Small => (40.0, 4.3),
            ModelKind::MobileNetV3Large => (48.0, 6.0),
            ModelKind::EfficientNetB0 => (55.0, 8.5),
            ModelKind::EfficientNetB4 => (90.0, 30.0),
        };
        GpuModelProfile {
            model,
            batch_base_ms,
            per_frame_ms,
        }
    }

    /// Execution latency of a batch of `batch` frames, in milliseconds.
    ///
    /// Panics on an empty or over-limit batch — both are batcher bugs.
    pub fn batch_latency_ms(self, model: ModelKind, batch: usize) -> f64 {
        assert!(batch > 0, "cannot execute an empty batch");
        assert!(
            batch <= self.batch_limit,
            "batch of {batch} exceeds the limit of {}",
            self.batch_limit
        );
        let p = self.model_profile(model);
        p.batch_base_ms + p.per_frame_ms * batch as f64
    }

    /// Steady-state throughput ceiling (inferences/s) when running
    /// back-to-back full batches of `model`.
    pub fn saturation_throughput_fps(self, model: ModelKind) -> f64 {
        let b = self.batch_limit;
        1_000.0 * b as f64 / self.batch_latency_ms(model, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_affine_in_batch_size() {
        let gpu = GpuProfile::default();
        let l1 = gpu.batch_latency_ms(ModelKind::MobileNetV3Small, 1);
        let l2 = gpu.batch_latency_ms(ModelKind::MobileNetV3Small, 2);
        let l3 = gpu.batch_latency_ms(ModelKind::MobileNetV3Small, 3);
        assert!(
            ((l2 - l1) - (l3 - l2)).abs() < 1e-12,
            "constant marginal cost"
        );
        assert!(l1 > 0.0);
    }

    #[test]
    fn batching_amortizes_the_base_cost() {
        // Per-frame latency at the batch limit is far below single-frame
        // latency — the reason the paper batches at all (§IV-A).
        let gpu = GpuProfile::default();
        for model in ModelKind::ALL {
            let single = gpu.batch_latency_ms(model, 1);
            let full = gpu.batch_latency_ms(model, gpu.batch_limit) / gpu.batch_limit as f64;
            assert!(
                full < single / 2.0,
                "{model:?}: batched per-frame {full:.1}ms not < half of single {single:.1}ms"
            );
        }
    }

    #[test]
    fn paper_batch_limit_is_15() {
        assert_eq!(GpuProfile::default().batch_limit, 15);
    }

    #[test]
    #[should_panic(expected = "exceeds the limit")]
    fn over_limit_batch_panics() {
        GpuProfile::default().batch_latency_ms(ModelKind::MobileNetV3Small, 16);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        GpuProfile::default().batch_latency_ms(ModelKind::MobileNetV3Small, 0);
    }

    #[test]
    fn mobilenet_saturation_near_150fps() {
        // Calibration anchor: Table VI shows the device squeezed out at
        // ~150 rps background load.
        let fps = GpuProfile::default().saturation_throughput_fps(ModelKind::MobileNetV3Small);
        assert!(
            (140.0..160.0).contains(&fps),
            "saturation {fps:.0} fps should be ~150"
        );
    }

    #[test]
    fn heavier_models_saturate_lower() {
        let gpu = GpuProfile::default();
        let s = |m| gpu.saturation_throughput_fps(m);
        assert!(s(ModelKind::MobileNetV3Small) > s(ModelKind::EfficientNetB0));
        assert!(s(ModelKind::EfficientNetB0) > s(ModelKind::EfficientNetB4));
    }

    #[test]
    fn gpu_latency_beats_pi_by_orders_of_magnitude() {
        // The premise of offloading: server inference is much faster than
        // the Pi (§I: GPU acceleration).
        use crate::device::DeviceKind;
        let gpu = GpuProfile::default();
        let gpu_ms = gpu.batch_latency_ms(ModelKind::MobileNetV3Small, 1);
        let pi_ms = 1_000.0 / DeviceKind::Pi4BRev14.local_rate_fps(ModelKind::MobileNetV3Small);
        assert!(
            gpu_ms < pi_ms,
            "GPU single-frame {gpu_ms}ms vs Pi {pi_ms}ms"
        );
    }
}
