//! Synthetic mobility traces.
//!
//! Table V steps conditions on a fixed timetable — good for controlled
//! comparison, but a *moving* device (UAV, vehicle, pedestrian — the §I
//! motivating workloads) sees bandwidth wander continuously as distance
//! and interference change. [`mobility_trace`] generates a seeded random
//! walk over link conditions: bandwidth performs a multiplicative random
//! walk between bounds (log-space steps, matching how path loss compounds
//! in dB), and loss episodes switch on and off as a two-state process.
//!
//! Traces are ordinary [`StepSchedule`]s, so everything that accepts a
//! Table V schedule accepts a mobility trace.

use crate::scenario::StepSchedule;
use ff_net::NetworkConditions;
use rand::Rng;

/// Bandwidth bounds of the walk in Mbps.
const BANDWIDTH_RANGE: (f64, f64) = (1.0, 10.0);
/// Standard deviation of one log-bandwidth step (0.25 ≈ ±25%).
const STEP_SIGMA: f64 = 0.35;
/// Probability that a dwell period is a loss episode.
const LOSS_EPISODE_PROB: f64 = 0.15;
/// Loss percentage during an episode.
const EPISODE_LOSS_PCT: f64 = 7.0;

const _: () = assert!(
    BANDWIDTH_RANGE.0 > 0.0 && BANDWIDTH_RANGE.1 > BANDWIDTH_RANGE.0,
    "bandwidth range must satisfy 0 < lo < hi"
);
const _: () = assert!(
    LOSS_EPISODE_PROB >= 0.0 && LOSS_EPISODE_PROB <= 1.0,
    "episode probability must be in [0, 1]"
);

/// Length and pace of a mobility trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityConfig {
    /// Trace length in seconds.
    pub duration_secs: f64,
    /// Seconds between condition changes (the walk's step period).
    pub dwell_secs: f64,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            duration_secs: 133.0, // one paper stream
            dwell_secs: 5.0,
        }
    }
}

/// Generate a mobility trace with the given RNG (deterministic per seed).
pub fn mobility_trace<R: Rng>(
    config: &MobilityConfig,
    rng: &mut R,
) -> StepSchedule<NetworkConditions> {
    assert!(config.duration_secs > 0.0, "duration must be positive");
    assert!(config.dwell_secs > 0.0, "dwell must be positive");
    let (lo, hi) = BANDWIDTH_RANGE;

    // Start mid-range (geometric mean).
    let mut ln_bw = (lo.ln() + hi.ln()) / 2.0;
    let mut steps = Vec::new();
    let mut t = 0.0;
    while t < config.duration_secs {
        // Gaussian step via Box–Muller from two uniform draws.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        ln_bw = (ln_bw + gauss * STEP_SIGMA).clamp(lo.ln(), hi.ln());
        // exp(ln(hi)) can overshoot hi by an ulp; clamp in linear space too.
        let bandwidth = ln_bw.exp().clamp(lo, hi);
        let loss = if rng.gen_bool(LOSS_EPISODE_PROB) {
            EPISODE_LOSS_PCT
        } else {
            0.0
        };
        steps.push((t, NetworkConditions::new(bandwidth, loss)));
        t += config.dwell_secs;
    }
    StepSchedule::new(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::RngFactory;

    fn trace(seed: u64) -> StepSchedule<NetworkConditions> {
        mobility_trace(
            &MobilityConfig::default(),
            &mut RngFactory::new(seed).stream("mobility"),
        )
    }

    #[test]
    fn trace_covers_the_requested_duration() {
        let t = trace(1);
        let steps = t.steps();
        assert_eq!(steps[0].0, 0.0);
        let last = steps.last().unwrap().0;
        assert!((125.0..133.0).contains(&last), "last step at {last}");
        assert_eq!(steps.len(), 27, "133 s / 5 s dwell");
    }

    #[test]
    fn bandwidth_stays_within_bounds() {
        for seed in 0..20 {
            for (_, c) in trace(seed).steps() {
                assert!(
                    (1.0..=10.0).contains(&c.bandwidth_mbps),
                    "seed {seed}: bandwidth {} escaped",
                    c.bandwidth_mbps
                );
            }
        }
    }

    #[test]
    fn walk_actually_moves() {
        let t = trace(2);
        let bws: Vec<f64> = t.steps().iter().map(|(_, c)| c.bandwidth_mbps).collect();
        let min = bws.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = bws.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.5, "walk too static: {min:.2}..{max:.2}");
    }

    #[test]
    fn loss_episodes_occur_at_roughly_the_configured_rate() {
        let mut episodes = 0;
        let mut total = 0;
        for seed in 0..50 {
            for (_, c) in trace(seed).steps() {
                total += 1;
                if c.loss_pct > 0.0 {
                    episodes += 1;
                }
            }
        }
        let rate = episodes as f64 / total as f64;
        assert!((rate - 0.15).abs() < 0.05, "episode rate {rate:.3}");
    }

    #[test]
    fn traces_are_deterministic_per_seed_and_differ_across_seeds() {
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }
}
