//! Packet-loss processes.
//!
//! NetEm's plain `loss X%` is i.i.d. Bernoulli, and that is what the
//! paper configures (§IV-C.1). Real wireless links, however, lose packets
//! in **bursts** — the paper itself notes wireless loss "in the tens of
//! percentage points" [37] — and burstiness changes the *pattern* of
//! deadline violations a controller sees: the same average loss rate
//! produces calm stretches punctuated by storms instead of steady
//! attrition. We therefore support both:
//!
//! * [`LossModel::Bernoulli`] — i.i.d. loss, NetEm-equivalent,
//! * [`LossModel::GilbertElliott`] — the classic two-state Markov burst
//!   model (good state: low loss; bad state: high loss), which NetEm also
//!   offers as `loss gemodel`.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A per-packet loss process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// Independent loss with the given probability.
    Bernoulli {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) loss.
    GilbertElliott(GilbertElliott),
}

/// Parameters of the Gilbert–Elliott model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// P(good → bad) per packet.
    pub p_good_to_bad: f64,
    /// P(bad → good) per packet.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A burst model with the given **average** loss rate: rare
    /// transitions into a high-loss state calibrated so the stationary
    /// loss equals `avg_loss`. Mean burst length ≈ 20 packets.
    pub fn with_average_loss(avg_loss: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&avg_loss),
            "average loss must be in [0, 0.5), got {avg_loss}"
        );
        let loss_bad = 0.6;
        let loss_good = 0.0;
        // Stationary probability of the bad state needed for the target:
        // avg = pi_bad * loss_bad  =>  pi_bad = avg / loss_bad.
        let pi_bad = avg_loss / loss_bad;
        // With p_bad_to_good fixed (mean burst 20 packets), solve
        // pi_bad = p_gb / (p_gb + p_bg).
        let p_bad_to_good = 0.05;
        let p_good_to_bad = pi_bad * p_bad_to_good / (1.0 - pi_bad);
        GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
        }
    }

    /// The stationary (long-run average) loss probability.
    pub fn stationary_loss(&self) -> f64 {
        let pi_bad = self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good);
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }

    /// Why this chain cannot run, if it cannot: a parameter that is not
    /// a probability, or no way out of either state.
    fn check(&self) -> Result<(), String> {
        for (name, v) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability, got {v}"));
            }
        }
        if self.p_good_to_bad + self.p_bad_to_good > 0.0 {
            Ok(())
        } else {
            Err("the chain must be able to move".into())
        }
    }
}

impl LossModel {
    /// No loss at all.
    pub const NONE: LossModel = LossModel::Bernoulli { p: 0.0 };

    /// Validated Bernoulli model.
    pub fn bernoulli(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss must be a probability");
        LossModel::Bernoulli { p }
    }

    /// Long-run average loss probability.
    pub fn average_loss(&self) -> f64 {
        match self {
            LossModel::Bernoulli { p } => *p,
            LossModel::GilbertElliott(ge) => ge.stationary_loss(),
        }
    }

    /// Why this model cannot drive a link, if it cannot: a parameter that
    /// is not a probability, or a Gilbert–Elliott chain that cannot move.
    /// For a model that bypassed the constructors, as one read from JSON
    /// does.
    pub fn check(&self) -> Result<(), String> {
        match self {
            LossModel::Bernoulli { p } if !(0.0..=1.0).contains(p) => {
                Err("loss must be a probability".into())
            }
            LossModel::Bernoulli { .. } => Ok(()),
            LossModel::GilbertElliott(ge) => ge.check(),
        }
    }

    /// Panic with [`Self::check`]'s reason, if it has one.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// Draw the fate of one packet: `true` = lost. `in_burst` is the
    /// link's Markov state under Gilbert–Elliott loss (start it, and
    /// restart it at every model change, in the good state: bursts are
    /// exceptional events); Bernoulli loss neither reads nor writes it.
    #[inline]
    pub fn packet_lost<R: Rng>(&self, in_burst: &mut bool, rng: &mut R) -> bool {
        match *self {
            LossModel::Bernoulli { p } => p > 0.0 && rng.gen_bool(p),
            LossModel::GilbertElliott(ge) => {
                // Transition first, then draw loss in the new state.
                if *in_burst {
                    if rng.gen_bool(ge.p_bad_to_good) {
                        *in_burst = false;
                    }
                } else if ge.p_good_to_bad > 0.0 && rng.gen_bool(ge.p_good_to_bad) {
                    *in_burst = true;
                }
                let p = if *in_burst { ge.loss_bad } else { ge.loss_good };
                p > 0.0 && rng.gen_bool(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::RngFactory;

    fn draw_n(model: LossModel, n: usize, seed: u64) -> Vec<bool> {
        let mut rng = RngFactory::new(seed).stream("loss-test");
        let mut in_burst = false;
        (0..n)
            .map(|_| model.packet_lost(&mut in_burst, &mut rng))
            .collect()
    }

    #[test]
    fn bernoulli_matches_configured_rate() {
        let losses = draw_n(LossModel::bernoulli(0.07), 100_000, 1);
        let rate = losses.iter().filter(|&&l| l).count() as f64 / losses.len() as f64;
        assert!((rate - 0.07).abs() < 0.005, "observed {rate:.4}");
    }

    #[test]
    fn zero_loss_never_loses() {
        assert!(draw_n(LossModel::NONE, 10_000, 2).iter().all(|&l| !l));
    }

    #[test]
    fn gilbert_elliott_hits_the_target_average() {
        let ge = GilbertElliott::with_average_loss(0.07);
        assert!((ge.stationary_loss() - 0.07).abs() < 1e-12);
        let losses = draw_n(LossModel::GilbertElliott(ge), 400_000, 3);
        let rate = losses.iter().filter(|&&l| l).count() as f64 / losses.len() as f64;
        assert!((rate - 0.07).abs() < 0.01, "observed {rate:.4}");
    }

    #[test]
    fn gilbert_elliott_is_burstier_than_bernoulli_at_equal_average() {
        // Burstiness metric: probability that a loss is immediately
        // followed by another loss. For Bernoulli this equals the loss
        // rate; for GE it approaches the bad-state loss rate.
        let conditional_loss = |model: LossModel, seed: u64| {
            let losses = draw_n(model, 400_000, seed);
            let mut pairs = 0u64;
            let mut loss_then_loss = 0u64;
            for w in losses.windows(2) {
                if w[0] {
                    pairs += 1;
                    if w[1] {
                        loss_then_loss += 1;
                    }
                }
            }
            loss_then_loss as f64 / pairs.max(1) as f64
        };
        let bern = conditional_loss(LossModel::bernoulli(0.07), 4);
        let ge = conditional_loss(
            LossModel::GilbertElliott(GilbertElliott::with_average_loss(0.07)),
            5,
        );
        assert!(bern < 0.12, "Bernoulli conditional loss {bern:.3}");
        assert!(
            ge > 3.0 * bern,
            "GE conditional loss {ge:.3} should dwarf Bernoulli's {bern:.3}"
        );
    }

    #[test]
    fn burst_state_is_entered_and_bernoulli_leaves_it_alone() {
        let ge = GilbertElliott {
            p_good_to_bad: 1.0, // deterministically enter the burst
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut rng = RngFactory::new(6).stream("x");
        let mut in_burst = false;
        assert!(LossModel::GilbertElliott(ge).packet_lost(&mut in_burst, &mut rng));
        assert!(in_burst);
        assert!(!LossModel::NONE.packet_lost(&mut in_burst, &mut rng));
        assert!(in_burst, "Bernoulli loss does not touch the burst state");
    }

    #[test]
    fn average_loss_accessor_is_consistent() {
        assert_eq!(LossModel::bernoulli(0.07).average_loss(), 0.07);
        let ge = GilbertElliott::with_average_loss(0.1);
        assert!((LossModel::GilbertElliott(ge).average_loss() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "average loss")]
    fn half_loss_target_rejected() {
        GilbertElliott::with_average_loss(0.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_bernoulli_rejected() {
        LossModel::bernoulli(1.5);
    }

    #[test]
    #[should_panic(expected = "loss_bad must be a probability")]
    fn invalid_gilbert_elliott_rejected() {
        let mut ge = GilbertElliott::with_average_loss(0.05);
        ge.loss_bad = 1.5;
        LossModel::GilbertElliott(ge).validate();
    }
}
