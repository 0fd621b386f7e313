//! Adaptive compression quality (the §II-D trade-off, closed-loop).
//!
//! The paper observes that lighter compression improves accuracy but
//! "both [resolution and quality] increase the number of bytes per frame
//! that need to be transferred" — and leaves exploiting that trade-off
//! open. [`QualityAdapter`] closes the loop: when *network-attributed*
//! timeouts persist, it steps the JPEG quality down (smaller frames fit
//! the thinner pipe); after sustained clean intervals it steps back up
//! toward the accuracy-preserving default. Load-attributed timeouts do
//! not trigger downgrades — smaller frames cannot unclog a saturated
//! GPU, only the rate controller can.

use ff_models::Compression;
use serde::{Deserialize, Serialize};

/// Configuration of the quality adaptation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityConfig {
    /// Highest (default) quality.
    pub max_quality: u8,
    /// Floor below which accuracy degrades too far to be useful.
    pub min_quality: u8,
    /// Quality decrement per reaction.
    pub step: u8,
    /// Network-timeout rate (frames/s) that triggers a downgrade.
    pub downgrade_threshold: f64,
    /// Consecutive clean intervals required before an upgrade.
    pub upgrade_after_clean: u32,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            max_quality: 90,
            min_quality: 40,
            step: 10,
            downgrade_threshold: 1.0,
            upgrade_after_clean: 5,
        }
    }
}

/// The quality-ladder controller.
#[derive(Debug, Clone)]
pub(crate) struct QualityAdapter {
    config: QualityConfig,
    quality: u8,
    clean_streak: u32,
}

impl QualityAdapter {
    /// An adapter starting at the configured maximum quality.
    pub(crate) fn new(config: QualityConfig) -> Self {
        assert!(
            config.min_quality >= 1 && config.min_quality <= config.max_quality,
            "quality bounds must satisfy 1 <= min <= max"
        );
        assert!(config.step > 0, "step must be positive");
        QualityAdapter {
            quality: config.max_quality,
            config,
            clean_streak: 0,
        }
    }

    /// Current JPEG quality.
    pub(crate) fn quality(&self) -> u8 {
        self.quality
    }

    /// Frame-size scaling factor relative to running at `max_quality`:
    /// multiply baseline frame bytes by this.
    pub(crate) fn byte_scale(&self, resolution: u32) -> f64 {
        let now = Compression::new(self.quality, resolution).mean_frame_bytes() as f64;
        let base = Compression::new(self.config.max_quality, resolution).mean_frame_bytes() as f64;
        now / base
    }

    /// Feed one measurement interval: the network-attributed timeout rate
    /// (frames/s). Returns the quality for the next interval.
    pub(crate) fn update(&mut self, network_timeout_rate: f64) -> u8 {
        assert!(
            network_timeout_rate.is_finite() && network_timeout_rate >= 0.0,
            "timeout rate must be finite and non-negative"
        );
        if network_timeout_rate > self.config.downgrade_threshold {
            self.clean_streak = 0;
            self.quality = self
                .quality
                .saturating_sub(self.config.step)
                .max(self.config.min_quality);
        } else if network_timeout_rate == 0.0 {
            self.clean_streak += 1;
            if self.clean_streak >= self.config.upgrade_after_clean
                && self.quality < self.config.max_quality
            {
                self.quality = (self.quality + self.config.step).min(self.config.max_quality);
                self.clean_streak = 0;
            }
        } else {
            // Tolerated low-grade timeouts: hold position.
            self.clean_streak = 0;
        }
        self.quality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adapter() -> QualityAdapter {
        QualityAdapter::new(QualityConfig::default())
    }

    #[test]
    fn starts_at_max_quality() {
        assert_eq!(adapter().quality(), 90);
    }

    #[test]
    fn network_timeouts_step_quality_down_to_the_floor() {
        let mut a = adapter();
        for expected in [80, 70, 60, 50, 40, 40, 40] {
            assert_eq!(a.update(5.0), expected);
        }
    }

    #[test]
    fn sustained_clean_intervals_recover_quality() {
        let mut a = adapter();
        a.update(5.0); // 80
        a.update(5.0); // 70
        for _ in 0..4 {
            assert_eq!(a.update(0.0), 70, "not yet enough clean streak");
        }
        assert_eq!(a.update(0.0), 80, "5th clean interval upgrades");
        for _ in 0..4 {
            a.update(0.0);
        }
        assert_eq!(a.update(0.0), 90);
        // At max: further clean intervals are a no-op.
        for _ in 0..10 {
            assert_eq!(a.update(0.0), 90);
        }
    }

    #[test]
    fn tolerated_timeouts_hold_position_and_break_the_streak() {
        let mut a = adapter();
        a.update(5.0); // 80
        for _ in 0..4 {
            a.update(0.0);
        }
        a.update(0.5); // tolerated: holds, resets streak
        assert_eq!(a.quality(), 80);
        for _ in 0..4 {
            assert_eq!(a.update(0.0), 80);
        }
        assert_eq!(a.update(0.0), 90);
    }

    #[test]
    fn byte_scale_shrinks_with_quality() {
        let mut a = adapter();
        assert!((a.byte_scale(224) - 1.0).abs() < 1e-12);
        a.update(5.0);
        a.update(5.0); // quality 70
        let scale = a.byte_scale(224);
        assert!(
            scale < 0.75,
            "q70 frames should be well under q90 size, got {scale}"
        );
        assert!(scale > 0.3);
    }

    #[test]
    #[should_panic(expected = "quality bounds")]
    fn inverted_bounds_rejected() {
        QualityAdapter::new(QualityConfig {
            min_quality: 95,
            max_quality: 90,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rate_rejected() {
        adapter().update(f64::NAN);
    }
}
