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
use serde::{Deserialize, Serialize};

/// Configuration of the local-model ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectorConfig {
    /// Models ordered fastest → most accurate. The first entry is the
    /// safe default.
    pub ladder: Vec<ModelKind>,
    /// Offload share of `F_s` above which an upgrade is considered.
    pub upgrade_share: f64,
    /// Offload share below which the selector immediately downgrades to
    /// the fastest model.
    pub downgrade_share: f64,
    /// Consecutive high-offload intervals required per upgrade step.
    pub upgrade_after: u32,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            ladder: vec![
                ModelKind::MobileNetV3Small,
                ModelKind::MobileNetV3Large,
                ModelKind::EfficientNetB0,
            ],
            upgrade_share: 0.8,
            downgrade_share: 0.5,
            upgrade_after: 5,
        }
    }
}

/// The local-model ladder controller.
#[derive(Debug, Clone)]
pub(crate) struct ModelSelector {
    config: SelectorConfig,
    level: usize,
    high_streak: u32,
}

impl ModelSelector {
    /// A selector starting on the ladder's fastest model.
    pub(crate) fn new(config: SelectorConfig) -> Self {
        assert!(!config.ladder.is_empty(), "ladder needs at least one model");
        assert!(
            config.downgrade_share < config.upgrade_share,
            "downgrade share must be below upgrade share (hysteresis)"
        );
        ModelSelector {
            config,
            level: 0,
            high_streak: 0,
        }
    }

    /// The currently selected local model.
    pub(crate) fn model(&self) -> ModelKind {
        self.config.ladder[self.level]
    }

    /// Feed one interval's offload share (`P_o target / F_s`). Returns the
    /// model for the next interval.
    pub(crate) fn update(&mut self, offload_share: f64) -> ModelKind {
        assert!(
            offload_share.is_finite() && offload_share >= 0.0,
            "offload share must be finite and non-negative"
        );
        if offload_share < self.config.downgrade_share {
            // The device is carrying real load again: fastest model, now.
            self.level = 0;
            self.high_streak = 0;
        } else if offload_share >= self.config.upgrade_share {
            self.high_streak += 1;
            if self.high_streak >= self.config.upgrade_after
                && self.level + 1 < self.config.ladder.len()
            {
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
        ModelSelector::new(SelectorConfig::default())
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

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        let mut config = SelectorConfig::default();
        config.downgrade_share = 0.9;
        ModelSelector::new(config);
    }

    #[test]
    #[should_panic(expected = "ladder")]
    fn empty_ladder_rejected() {
        let config = SelectorConfig {
            ladder: vec![],
            ..Default::default()
        };
        ModelSelector::new(config);
    }
}
