//! Adaptive local-model selection (the [38]-style extension).
//!
//! The paper's related work cites adaptive DL model selection on embedded
//! systems; FrameFeedback itself pins one local model. But when the
//! controller has pushed most frames to the server, the local engine only
//! handles the leftovers — so it can afford a slower, *more accurate*
//! model. [`ModelSelector`] implements that ladder: sustained high
//! offloading upgrades the local model; when offloading collapses and the
//! device must carry the stream again, it immediately drops back to the
//! fastest model to protect the throughput floor.

use ff_models::ModelKind;

/// Models ordered fastest → most accurate. The first entry is the safe
/// default.
const LADDER: [ModelKind; 3] = [
    ModelKind::MobileNetV3Small,
    ModelKind::MobileNetV3Large,
    ModelKind::EfficientNetB0,
];
/// Offload share of `F_s` above which an upgrade is considered.
const UPGRADE_SHARE: f64 = 0.8;
/// Offload share below which the selector immediately downgrades to the
/// fastest model.
const DOWNGRADE_SHARE: f64 = 0.5;
/// Consecutive high-offload intervals required per upgrade step.
const UPGRADE_AFTER: u32 = 5;

const _: () = assert!(!LADDER.is_empty(), "ladder needs at least one model");
const _: () = assert!(
    DOWNGRADE_SHARE < UPGRADE_SHARE,
    "downgrade share must be below upgrade share (hysteresis)"
);

/// The local-model ladder controller.
#[derive(Debug, Clone)]
pub(crate) struct ModelSelector {
    level: usize,
    high_streak: u32,
}

impl ModelSelector {
    /// A selector starting on the ladder's fastest model.
    pub(crate) fn new() -> Self {
        ModelSelector {
            level: 0,
            high_streak: 0,
        }
    }

    /// The currently selected local model.
    pub(crate) fn model(&self) -> ModelKind {
        LADDER[self.level]
    }

    /// Feed one interval's offload share (`P_o target / F_s`). Returns the
    /// model for the next interval.
    pub(crate) fn update(&mut self, offload_share: f64) -> ModelKind {
        assert!(
            offload_share.is_finite() && offload_share >= 0.0,
            "offload share must be finite and non-negative"
        );
        if offload_share < DOWNGRADE_SHARE {
            // The device is carrying real load again: fastest model, now.
            self.level = 0;
            self.high_streak = 0;
        } else if offload_share >= UPGRADE_SHARE {
            self.high_streak += 1;
            if self.high_streak >= UPGRADE_AFTER && self.level + 1 < LADDER.len() {
                self.level += 1;
                self.high_streak = 0;
            }
        } else {
            // Hysteresis band: hold.
            self.high_streak = 0;
        }
        self.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::DeviceKind;

    fn selector() -> ModelSelector {
        ModelSelector::new()
    }

    /// The local inference rate of the selected model on the device.
    fn local_rate_fps(s: &ModelSelector) -> f64 {
        DeviceKind::Pi4BRev12.local_rate_fps(s.model())
    }

    #[test]
    fn starts_on_the_fastest_model() {
        let s = selector();
        assert_eq!(s.model(), ModelKind::MobileNetV3Small);
        assert!((local_rate_fps(&s) - 13.0).abs() < 0.01);
    }

    #[test]
    fn sustained_offloading_climbs_the_ladder() {
        let mut s = selector();
        for _ in 0..4 {
            assert_eq!(s.update(0.95), ModelKind::MobileNetV3Small);
        }
        assert_eq!(
            s.update(0.95),
            ModelKind::MobileNetV3Large,
            "5th interval upgrades"
        );
        for _ in 0..4 {
            s.update(0.95);
        }
        assert_eq!(s.update(0.95), ModelKind::EfficientNetB0);
        // Top of the ladder: stays.
        for _ in 0..10 {
            assert_eq!(s.update(0.95), ModelKind::EfficientNetB0);
        }
    }

    #[test]
    fn offload_collapse_drops_straight_to_the_fastest() {
        let mut s = selector();
        for _ in 0..10 {
            s.update(0.95);
        }
        assert_eq!(
            s.model(),
            ModelKind::EfficientNetB0,
            "two upgrades in 10 intervals"
        );
        assert_eq!(s.update(0.1), ModelKind::MobileNetV3Small, "immediate drop");
    }

    #[test]
    fn hysteresis_band_holds_position() {
        let mut s = selector();
        for _ in 0..5 {
            s.update(0.95);
        }
        assert_eq!(s.model(), ModelKind::MobileNetV3Large);
        for _ in 0..20 {
            assert_eq!(s.update(0.65), ModelKind::MobileNetV3Large);
        }
    }

    #[test]
    fn upgraded_model_is_more_accurate_but_slower() {
        let mut s = selector();
        let fast = (local_rate_fps(&s), s.model().profile().top1_accuracy);
        for _ in 0..5 {
            s.update(0.95);
        }
        let slow = (local_rate_fps(&s), s.model().profile().top1_accuracy);
        assert!(slow.0 < fast.0, "rate must drop ({} -> {})", fast.0, slow.0);
        assert!(
            slow.1 > fast.1,
            "accuracy must rise ({} -> {})",
            fast.1,
            slow.1
        );
    }
}
