//! JPEG frame-size model (§II-D).
//!
//! Offloaded frames are JPEG-compressed before transmission. The two knobs
//! the paper discusses — input resolution and compression quality — both
//! trade accuracy against bytes-on-the-wire. We model compressed size with
//! the standard bits-per-pixel curve: higher quality retains more DCT
//! coefficients, so bpp grows superlinearly in the quality setting.

use serde::{Deserialize, Serialize};

/// JPEG compression settings for offloaded frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Compression {
    /// JPEG quality, 1–100.
    pub quality: u8,
    /// Square input resolution in pixels per side.
    pub resolution: u32,
}

impl Compression {
    /// The evaluation default: native model resolution, light compression
    /// (the paper notes light compression preserves accuracy, §II-D).
    pub const DEFAULT_QUALITY: u8 = 90;

    /// Validated compression settings.
    pub fn new(quality: u8, resolution: u32) -> Self {
        assert!(
            (1..=100).contains(&quality),
            "JPEG quality must be 1..=100, got {quality}"
        );
        assert!(resolution > 0, "resolution must be positive");
        Compression {
            quality,
            resolution,
        }
    }

    /// Modeled bits per pixel at this quality.
    ///
    /// Quadratic fit through typical photographic JPEG operating points:
    /// q=25 → ~0.9 bpp, q=50 → ~1.8 bpp, q=75 → ~3.5 bpp, q=90 → ~4.9 bpp.
    pub(crate) fn bits_per_pixel(self) -> f64 {
        let q = self.quality as f64 / 100.0;
        0.4 + 5.6 * q * q
    }

    /// Mean compressed frame size in bytes.
    pub fn mean_frame_bytes(self) -> u64 {
        let px = self.resolution as f64 * self.resolution as f64;
        (px * self.bits_per_pixel() / 8.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_224_frame_is_tens_of_kilobytes() {
        // Calibration anchor from DESIGN.md: ~25-35 KB at q90/224 so that
        // a 10 Mbps link carries 30 fps comfortably, 4 Mbps partially,
        // 1 Mbps barely.
        let c = Compression::new(Compression::DEFAULT_QUALITY, 224);
        let kb = c.mean_frame_bytes() as f64 / 1024.0;
        assert!(
            (20.0..40.0).contains(&kb),
            "224px q90 frame is {kb:.1} KB, expected 20-40 KB"
        );
    }

    #[test]
    fn higher_quality_means_more_bytes() {
        let lo = Compression::new(50, 224).mean_frame_bytes();
        let hi = Compression::new(95, 224).mean_frame_bytes();
        assert!(hi > lo);
    }

    #[test]
    fn higher_resolution_means_more_bytes() {
        let small = Compression::new(90, 224).mean_frame_bytes();
        let big = Compression::new(90, 380).mean_frame_bytes();
        assert!(big > small);
        // Quadratic in resolution.
        let ratio = big as f64 / small as f64;
        let expected = (380.0f64 / 224.0).powi(2);
        assert!((ratio - expected).abs() / expected < 0.01);
    }

    #[test]
    #[should_panic(expected = "quality")]
    fn zero_quality_rejected() {
        Compression::new(0, 224);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_rejected() {
        Compression::new(90, 0);
    }

    proptest! {
        /// Frame size is monotone in quality at fixed resolution and
        /// always positive.
        #[test]
        fn prop_monotone_in_quality(q1 in 1u8..=99, res in 32u32..1024) {
            let q2 = q1 + 1;
            let a = Compression::new(q1, res).mean_frame_bytes();
            let b = Compression::new(q2, res).mean_frame_bytes();
            prop_assert!(a > 0);
            prop_assert!(b >= a);
        }
    }
}
