//! Scene-change scripts: deterministic per-frame "information" scores.
//!
//! Real video is not size-stationary: scene cuts spike the compressed
//! frame size and the semantic novelty of each frame, while static
//! stretches produce long runs of near-duplicate frames. A
//! [`SceneScript`] reproduces that structure deterministically — phases
//! of scene-change intensity (a [`StepSchedule`] of [`ScenePhase`]s)
//! drive a per-frame information score in `[0, 1]` on a **dedicated RNG
//! stream** (the same stream discipline as the routing stream: enabling
//! a scene script never perturbs the frame-size stream, and a disabled
//! script draws nothing at all).
//!
//! The score feeds two consumers: the semantic filter
//! ([`SemanticFilter`](crate::SemanticFilter)) uses it to skip or shrink
//! low-information frames, and the frame source couples it into the
//! compressed size so scene cuts produce content-correlated byte bursts.

use crate::scenario::StepSchedule;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Scene-change intensity during one phase of a script.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenePhase {
    /// Expected scene cuts per second. Each frame cuts with probability
    /// `cut_rate / fps` (capped at 1); a cut spikes the information
    /// score toward 1.
    pub cut_rate: f64,
    /// Resting information level in `[0, 1]` the score decays toward
    /// between cuts — high for action footage, low for a static camera.
    pub base_info: f64,
}

impl ScenePhase {
    /// A phase with the given cut rate and resting level.
    pub fn new(cut_rate: f64, base_info: f64) -> Self {
        assert!(
            cut_rate >= 0.0 && cut_rate.is_finite(),
            "cut rate must be finite and non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&base_info),
            "base info must be in [0, 1]"
        );
        ScenePhase {
            cut_rate,
            base_info,
        }
    }
}

/// A deterministic scene-change script: phases of cut intensity plus a
/// coupling factor feeding the information score into frame sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneScript {
    /// Piecewise-constant phase schedule over stream time (seconds).
    pub phases: StepSchedule<ScenePhase>,
    /// How strongly the score modulates compressed frame size: a frame
    /// with information `i` is scaled by `1 + size_coupling·(2i − 1)`,
    /// so a cut roughly doubles at coupling 0.5 while a dead-still frame
    /// shrinks by the same factor. Must be in `[0, 1)`.
    pub size_coupling: f64,
}

impl SceneScript {
    /// A script over the given phases with the default size coupling.
    pub fn new(phases: StepSchedule<ScenePhase>) -> Self {
        SceneScript {
            phases,
            size_coupling: 0.5,
        }
    }
}

/// Between cuts the score relaxes geometrically toward the phase's
/// resting level: ~1/3 of the excursion remains after 10 frames.
const DECAY: f64 = 0.9;
/// Per-frame additive wobble half-width around the decay path.
const WOBBLE: f64 = 0.05;

/// Evolves a [`SceneScript`]'s information score frame by frame on its
/// own RNG stream. Exactly **two draws per frame** regardless of the
/// cut/no-cut branch, so the stream position depends only on the frame
/// count — never on earlier outcomes.
#[derive(Debug, Clone)]
pub(crate) struct SceneState<R: Rng> {
    script: SceneScript,
    rng: R,
    info: f64,
}

impl<R: Rng> SceneState<R> {
    /// Start a script on its dedicated RNG stream. The score starts at
    /// the first phase's resting level.
    pub(crate) fn new(script: SceneScript, rng: R) -> Self {
        assert!(
            (0.0..1.0).contains(&script.size_coupling),
            "size coupling must be in [0, 1)"
        );
        for (_, p) in script.phases.steps() {
            // Re-validate deserialized scripts; `ScenePhase::new` only
            // guards the in-code constructor.
            assert!(
                p.cut_rate >= 0.0 && p.cut_rate.is_finite(),
                "cut rate must be finite and non-negative"
            );
            assert!(
                (0.0..=1.0).contains(&p.base_info),
                "base info must be in [0, 1]"
            );
        }
        let info = script.phases.value_at(0.0).base_info;
        SceneState { script, rng, info }
    }

    /// Advance one frame captured at `t_secs` under frame rate `fps`,
    /// returning the frame's information score in `[0, 1]`.
    pub(crate) fn next_info(&mut self, t_secs: f64, fps: f64) -> f64 {
        let phase = *self.script.phases.value_at(t_secs);
        let p_cut = (phase.cut_rate / fps).min(1.0);
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let draw: f64 = self.rng.gen_range(0.0..1.0);
        self.info = if u < p_cut {
            // Scene cut: spike into the top of the range.
            0.7 + 0.3 * draw
        } else {
            let wobble = WOBBLE * (2.0 * draw - 1.0);
            (phase.base_info + (self.info - phase.base_info) * DECAY + wobble).clamp(0.0, 1.0)
        };
        self.info
    }

    /// Multiplicative frame-size factor for an information score.
    pub(crate) fn size_factor(&self, info: f64) -> f64 {
        1.0 + self.script.size_coupling * (2.0 * info - 1.0)
    }
}

/// A mostly static camera: rare cuts, low resting information — the
/// filter-friendly end of the scenario family.
pub fn scene_static() -> SceneScript {
    SceneScript::new(StepSchedule::constant(ScenePhase::new(0.2, 0.15)))
}

/// Alternating calm and action: 20 s static stretches punctuated by 10 s
/// high-cut bursts — the bursty, content-correlated traffic ROADMAP
/// item 2 calls out.
pub fn scene_bursty() -> SceneScript {
    let calm = ScenePhase::new(0.2, 0.15);
    let action = ScenePhase::new(3.0, 0.6);
    SceneScript::new(StepSchedule::new(vec![
        (0.0, calm),
        (20.0, action),
        (30.0, calm),
        (50.0, action),
        (60.0, calm),
        (80.0, action),
        (90.0, calm),
    ]))
}

/// A sustained cut storm in the middle of the run: every frame near a
/// cut for 40 s — the worst case for both the filter and the splitter.
pub fn scene_cut_storm() -> SceneScript {
    let calm = ScenePhase::new(0.5, 0.3);
    let storm = ScenePhase::new(10.0, 0.8);
    SceneScript::new(StepSchedule::new(vec![
        (0.0, calm),
        (30.0, storm),
        (70.0, calm),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::RngFactory;
    use proptest::prelude::*;

    fn state(script: SceneScript, seed: u64) -> SceneState<rand_chacha::ChaCha8Rng> {
        SceneState::new(script, RngFactory::new(seed).stream("scene"))
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let mut s = state(scene_cut_storm(), 1);
        for i in 0..3_000u64 {
            let info = s.next_info(i as f64 / 30.0, 30.0);
            assert!((0.0..=1.0).contains(&info), "frame {i}: info {info}");
        }
    }

    #[test]
    fn same_seed_same_score_sequence() {
        let mut a = state(scene_bursty(), 7);
        let mut b = state(scene_bursty(), 7);
        for i in 0..500u64 {
            let t = i as f64 / 30.0;
            assert_eq!(
                a.next_info(t, 30.0).to_bits(),
                b.next_info(t, 30.0).to_bits()
            );
        }
    }

    #[test]
    fn action_phases_carry_more_information_than_calm_ones() {
        let mut s = state(scene_bursty(), 3);
        let mut calm_sum = 0.0;
        let mut calm_n = 0u64;
        let mut action_sum = 0.0;
        let mut action_n = 0u64;
        for i in 0..2_700u64 {
            let t = i as f64 / 30.0;
            let info = s.next_info(t, 30.0);
            if (20.0..30.0).contains(&t) || (50.0..60.0).contains(&t) || (80.0..90.0).contains(&t) {
                action_sum += info;
                action_n += 1;
            } else {
                calm_sum += info;
                calm_n += 1;
            }
        }
        let calm = calm_sum / calm_n as f64;
        let action = action_sum / action_n as f64;
        assert!(
            action > calm + 0.2,
            "action phases mean {action:.3} vs calm {calm:.3}"
        );
    }

    #[test]
    fn size_factor_spans_the_coupling_range() {
        let script = SceneScript {
            size_coupling: 0.4,
            ..scene_static()
        };
        let s = state(script, 1);
        assert!((s.size_factor(0.0) - 0.6).abs() < 1e-12);
        assert!((s.size_factor(0.5) - 1.0).abs() < 1e-12);
        assert!((s.size_factor(1.0) - 1.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "size coupling")]
    fn unit_size_coupling_rejected() {
        let script = SceneScript {
            size_coupling: 1.0,
            ..scene_static()
        };
        let _ = state(script, 1);
    }

    #[test]
    #[should_panic(expected = "base info")]
    fn out_of_range_base_info_rejected() {
        let _ = ScenePhase::new(1.0, 1.5);
    }

    proptest! {
        /// Scores are reproducible and bounded for arbitrary two-phase
        /// scripts at arbitrary seeds.
        #[test]
        fn prop_scores_bounded_and_reproducible(
            seed in any::<u64>(),
            cut_a in 0.0f64..20.0,
            cut_b in 0.0f64..20.0,
            base_a in 0.0f64..=1.0,
            base_b in 0.0f64..=1.0,
            switch in 1.0f64..60.0,
        ) {
            let script = SceneScript::new(StepSchedule::new(vec![
                (0.0, ScenePhase::new(cut_a, base_a)),
                (switch, ScenePhase::new(cut_b, base_b)),
            ]));
            let mut a = state(script.clone(), seed);
            let mut b = state(script, seed);
            for i in 0..200u64 {
                let t = i as f64 / 30.0;
                let ia = a.next_info(t, 30.0);
                prop_assert!((0.0..=1.0).contains(&ia));
                prop_assert_eq!(ia.to_bits(), b.next_info(t, 30.0).to_bits());
            }
        }
    }
}
