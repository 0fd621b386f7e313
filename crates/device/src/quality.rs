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

/// Highest (default) quality.
const MAX_QUALITY: u8 = 90;
/// Floor below which accuracy degrades too far to be useful.
const MIN_QUALITY: u8 = 40;
/// Quality decrement per reaction.
const STEP: u8 = 10;
/// Network-timeout rate (frames/s) that triggers a downgrade.
const DOWNGRADE_THRESHOLD: f64 = 1.0;
/// Consecutive clean intervals required before an upgrade.
const UPGRADE_AFTER_CLEAN: u32 = 5;

const _: () = assert!(
    MIN_QUALITY >= 1 && MIN_QUALITY <= MAX_QUALITY,
    "quality bounds must satisfy 1 <= min <= max"
);
const _: () = assert!(STEP > 0, "step must be positive");

/// The quality-ladder controller.
#[derive(Debug, Clone)]
pub(crate) struct QualityAdapter {
    quality: u8,
    clean_streak: u32,
}

impl QualityAdapter {
    /// An adapter starting at the maximum quality.
    pub(crate) fn new() -> Self {
        QualityAdapter {
            quality: MAX_QUALITY,
            clean_streak: 0,
        }
    }

    /// Current JPEG quality.
    pub(crate) fn quality(&self) -> u8 {
        self.quality
    }

    /// Frame-size scaling factor relative to running at the maximum quality:
    /// multiply baseline frame bytes by this.
    pub(crate) fn byte_scale(&self, resolution: u32) -> f64 {
        let now = Compression::new(self.quality, resolution).mean_frame_bytes() as f64;
        let base = Compression::new(MAX_QUALITY, resolution).mean_frame_bytes() as f64;
        now / base
    }

    /// Feed one measurement interval: the network-attributed timeout rate
    /// (frames/s). Returns the quality for the next interval.
    pub(crate) fn update(&mut self, network_timeout_rate: f64) -> u8 {
        assert!(
            network_timeout_rate.is_finite() && network_timeout_rate >= 0.0,
            "timeout rate must be finite and non-negative"
        );
        if network_timeout_rate > DOWNGRADE_THRESHOLD {
            self.clean_streak = 0;
            self.quality = self.quality.saturating_sub(STEP).max(MIN_QUALITY);
        } else if network_timeout_rate == 0.0 {
            self.clean_streak += 1;
            if self.clean_streak >= UPGRADE_AFTER_CLEAN && self.quality < MAX_QUALITY {
                self.quality = (self.quality + STEP).min(MAX_QUALITY);
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
        QualityAdapter::new()
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
    #[should_panic(expected = "finite")]
    fn nan_rate_rejected() {
        adapter().update(f64::NAN);
    }
}
