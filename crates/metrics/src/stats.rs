//! Resampling statistics for experiment reporting.
//!
//! Seed sweeps produce small samples (10–30 runs); a bootstrap percentile
//! interval is the standard way to attach uncertainty to their means
//! without distributional assumptions.

use rand::Rng;

/// A two-sided confidence interval for a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The sample mean the interval is centred on.
    pub mean: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// The confidence level the interval was built for (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether the interval excludes `value` — e.g. `excludes(1.0)` on a
    /// ratio means the advantage is significant at the chosen level.
    pub fn excludes(&self, value: f64) -> bool {
        value < self.lo || value > self.hi
    }
}

/// Bootstrap percentile confidence interval for the mean of `sample`.
///
/// `resamples` controls precision (2,000 is plenty for reporting);
/// `level` is the two-sided confidence level in `(0, 1)`.
pub fn bootstrap_mean_ci<R: Rng>(
    sample: &[f64],
    level: f64,
    resamples: usize,
    rng: &mut R,
) -> ConfidenceInterval {
    assert!(!sample.is_empty(), "cannot bootstrap an empty sample");
    assert!(
        sample.iter().all(|v| v.is_finite()),
        "sample values must be finite"
    );
    assert!((0.0..1.0).contains(&level) && level > 0.0, "level in (0,1)");
    assert!(resamples >= 100, "too few resamples for a stable interval");

    let n = sample.len();
    let mean = sample.iter().sum::<f64>() / n as f64;

    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let resample_mean = (0..n).map(|_| sample[rng.gen_range(0..n)]).sum::<f64>() / n as f64;
        means.push(resample_mean);
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
    let alpha = (1.0 - level) / 2.0;
    let idx = |q: f64| (((resamples - 1) as f64) * q).round() as usize;
    ConfidenceInterval {
        mean,
        lo: means[idx(alpha)],
        hi: means[idx(1.0 - alpha)],
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn constant_sample_has_degenerate_interval() {
        let ci = bootstrap_mean_ci(&[5.0; 20], 0.95, 1_000, &mut rng());
        assert_eq!(ci.mean, 5.0);
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
        assert!(!ci.excludes(5.0));
        assert!(ci.excludes(4.9));
    }

    #[test]
    fn interval_brackets_the_mean_and_shrinks_with_n() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let big: Vec<f64> = (0..1_000).map(|i| (i % 10) as f64).collect();
        let ci_small = bootstrap_mean_ci(&small, 0.95, 2_000, &mut rng());
        let ci_big = bootstrap_mean_ci(&big, 0.95, 2_000, &mut rng());
        assert!(ci_small.lo <= ci_small.mean && ci_small.mean <= ci_small.hi);
        let (width_big, width_small) = (ci_big.hi - ci_big.lo, ci_small.hi - ci_small.lo);
        assert!(
            width_big < width_small / 3.0,
            "100x sample should shrink the interval: {width_big} vs {width_small}"
        );
    }

    #[test]
    fn known_shift_is_detected() {
        // A sample centred at 2.0 with modest spread: the 95% CI for the
        // mean must exclude 1.0.
        let sample: Vec<f64> = (0..30)
            .map(|i| 2.0 + 0.3 * ((i % 7) as f64 - 3.0))
            .collect();
        let ci = bootstrap_mean_ci(&sample, 0.95, 2_000, &mut rng());
        assert!(ci.excludes(1.0), "CI [{:.2}, {:.2}]", ci.lo, ci.hi);
        assert!(!ci.excludes(2.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        bootstrap_mean_ci(&[], 0.95, 1_000, &mut rng());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_sample_panics() {
        bootstrap_mean_ci(&[1.0, f64::NAN], 0.95, 1_000, &mut rng());
    }

    proptest! {
        /// The interval always brackets the sample mean and is ordered.
        #[test]
        fn prop_interval_is_ordered_and_brackets_mean(
            sample in proptest::collection::vec(-100.0f64..100.0, 2..50),
        ) {
            let ci = bootstrap_mean_ci(&sample, 0.9, 500, &mut rng());
            prop_assert!(ci.lo <= ci.hi);
            prop_assert!(ci.lo <= ci.mean + 1e-9);
            prop_assert!(ci.hi >= ci.mean - 1e-9);
        }
    }
}
