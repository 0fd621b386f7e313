//! Semantic frame filtering — the `DiffProcessor` stage.
//!
//! Following the EdgeCam exemplar (SNIPPETS.md §2) and Chen et al.'s
//! adaptive spatial-temporal semantic filtering, a [`SemanticFilter`]
//! sits between capture and the splitter: each frame's information
//! score (from a [`SceneScript`](crate::SceneScript)) is compared
//! against two thresholds and the frame is **skipped** (near-duplicate,
//! never enters the control loop), **shrunk** (low novelty — recompress
//! harder and send fewer bytes), or **passed** unchanged.
//!
//! Accounting is exact by construction: [`FilterStats`] counts every
//! captured frame into exactly one verdict bucket, and
//! `passed + shrunk + skipped == captured` is pinned by proptests over
//! arbitrary scripts and seeds.

use serde::{Deserialize, Serialize};

/// Thresholds of the semantic filter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Frames with information below this are skipped outright.
    pub skip_below: f64,
    /// Frames with information in `[skip_below, shrink_below)` are
    /// shrunk; at or above, they pass unchanged.
    pub shrink_below: f64,
    /// Byte multiplier for shrunk frames, in `(0, 1)`.
    pub shrink_factor: f64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            skip_below: 0.15,
            shrink_below: 0.4,
            shrink_factor: 0.5,
        }
    }
}

impl FilterConfig {
    /// Panic on threshold orderings that cannot classify every score.
    pub(crate) fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.skip_below)
                && (0.0..=1.0).contains(&self.shrink_below)
                && self.skip_below <= self.shrink_below,
            "filter thresholds need 0 <= skip_below <= shrink_below <= 1"
        );
        assert!(
            self.shrink_factor > 0.0 && self.shrink_factor < 1.0,
            "shrink factor must be in (0, 1)"
        );
    }
}

/// The filter's decision for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterVerdict {
    /// Forward the frame unchanged.
    Pass,
    /// Forward the frame at a reduced size (strictly fewer bytes).
    Shrink {
        /// The reduced payload size.
        bytes: u64,
    },
    /// Drop the frame before it reaches the splitter.
    Skip,
}

/// Exact verdict accounting: every captured frame lands in exactly one
/// bucket, so `passed + shrunk + skipped == captured` always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Frames offered to the filter.
    pub captured: u64,
    /// Frames forwarded unchanged.
    pub passed: u64,
    /// Frames forwarded at reduced size.
    pub shrunk: u64,
    /// Frames dropped.
    pub skipped: u64,
}

impl FilterStats {
    /// Whether the conservation invariant holds.
    pub fn conserved(&self) -> bool {
        self.passed + self.shrunk + self.skipped == self.captured
    }
}

/// The filter stage: thresholds plus running verdict counts.
#[derive(Debug, Clone)]
pub struct SemanticFilter {
    config: FilterConfig,
    stats: FilterStats,
}

impl SemanticFilter {
    /// A filter with validated thresholds and zeroed counters.
    pub fn new(config: FilterConfig) -> Self {
        config.validate();
        SemanticFilter {
            config,
            stats: FilterStats::default(),
        }
    }

    /// Classify one frame by its information score and payload size.
    /// A 1-byte frame that would shrink passes instead — shrunk frames
    /// are guaranteed strictly smaller than the original.
    pub fn verdict(&mut self, info: f64, bytes: u64) -> FilterVerdict {
        self.stats.captured += 1;
        if info < self.config.skip_below {
            self.stats.skipped += 1;
            return FilterVerdict::Skip;
        }
        if info < self.config.shrink_below && bytes > 1 {
            let reduced = ((bytes as f64 * self.config.shrink_factor) as u64).clamp(1, bytes - 1);
            self.stats.shrunk += 1;
            return FilterVerdict::Shrink { bytes: reduced };
        }
        self.stats.passed += 1;
        FilterVerdict::Pass
    }

    /// Verdict counts so far.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StepSchedule;
    use crate::scene::{scene_bursty, ScenePhase, SceneScript, SceneState};
    use ff_sim::RngFactory;
    use proptest::prelude::*;

    #[test]
    fn thresholds_partition_the_score_range() {
        let mut f = SemanticFilter::new(FilterConfig::default());
        assert_eq!(f.verdict(0.0, 1_000), FilterVerdict::Skip);
        assert_eq!(f.verdict(0.149, 1_000), FilterVerdict::Skip);
        assert_eq!(f.verdict(0.15, 1_000), FilterVerdict::Shrink { bytes: 500 });
        assert_eq!(
            f.verdict(0.399, 1_000),
            FilterVerdict::Shrink { bytes: 500 }
        );
        assert_eq!(f.verdict(0.4, 1_000), FilterVerdict::Pass);
        assert_eq!(f.verdict(1.0, 1_000), FilterVerdict::Pass);
        let s = f.stats();
        assert_eq!((s.captured, s.passed, s.shrunk, s.skipped), (6, 2, 2, 2));
        assert!(s.conserved());
    }

    #[test]
    fn one_byte_frames_pass_instead_of_shrinking() {
        let mut f = SemanticFilter::new(FilterConfig::default());
        assert_eq!(f.verdict(0.2, 1), FilterVerdict::Pass);
        assert!(f.stats().conserved());
    }

    #[test]
    #[should_panic(expected = "shrink factor")]
    fn unit_shrink_factor_rejected() {
        let mut c = FilterConfig::default();
        c.shrink_factor = 1.0;
        let _ = SemanticFilter::new(c);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn inverted_thresholds_rejected() {
        let mut c = FilterConfig::default();
        c.skip_below = 0.5;
        c.shrink_below = 0.2;
        let _ = SemanticFilter::new(c);
    }

    #[test]
    fn bursty_script_exercises_all_three_verdicts() {
        let mut scene = SceneState::new(scene_bursty(), RngFactory::new(11).stream("scene"));
        let mut f = SemanticFilter::new(FilterConfig::default());
        for i in 0..2_700u64 {
            let info = scene.next_info(i as f64 / 30.0, 30.0);
            f.verdict(info, 25_000);
        }
        let s = f.stats();
        assert!(s.conserved());
        assert!(s.skipped > 0, "calm phases must skip: {s:?}");
        assert!(s.shrunk > 0, "mid-novelty frames must shrink: {s:?}");
        assert!(s.passed > 0, "cuts must pass: {s:?}");
    }

    proptest! {
        /// For arbitrary scene scripts, thresholds, seeds, and frame
        /// sizes: counts conserve exactly, shrunk frames are strictly
        /// smaller, and the whole verdict sequence reproduces at the
        /// same seed.
        #[test]
        fn prop_filter_conserves_shrinks_strictly_and_reproduces(
            seed in any::<u64>(),
            cut_a in 0.0f64..15.0,
            cut_b in 0.0f64..15.0,
            base_a in 0.0f64..=1.0,
            base_b in 0.0f64..=1.0,
            skip in 0.0f64..=0.5,
            shrink_span in 0.0f64..=0.5,
            factor in 0.05f64..0.95,
            bytes in 1u64..100_000,
            frames in 1u64..400,
        ) {
            let script = SceneScript::new(StepSchedule::new(vec![
                (0.0, ScenePhase::new(cut_a, base_a)),
                (10.0, ScenePhase::new(cut_b, base_b)),
            ]));
            let config = FilterConfig {
                skip_below: skip,
                shrink_below: skip + shrink_span,
                shrink_factor: factor,
            };
            let run = |seed: u64| {
                let mut scene = SceneState::new(
                    script.clone(),
                    RngFactory::new(seed).stream("scene"),
                );
                let mut f = SemanticFilter::new(config);
                let mut verdicts = Vec::new();
                for i in 0..frames {
                    let info = scene.next_info(i as f64 / 30.0, 30.0);
                    verdicts.push(f.verdict(info, bytes));
                }
                (verdicts, f.stats())
            };
            let (verdicts, stats) = run(seed);
            prop_assert!(stats.conserved(), "{stats:?}");
            prop_assert_eq!(stats.captured, frames);
            for v in &verdicts {
                if let FilterVerdict::Shrink { bytes: b } = v {
                    prop_assert!(*b >= 1 && *b < bytes, "shrunk {b} vs original {bytes}");
                }
            }
            // Same seed, same verdicts — bit for bit.
            let (again, stats_again) = run(seed);
            prop_assert_eq!(verdicts, again);
            prop_assert_eq!(stats, stats_again);
        }
    }
}
