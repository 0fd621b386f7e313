//! Estimators and the result hash.
//!
//! Deterministic work on a shared host is only ever *slowed* by
//! interference, so the host-time estimator is one-sided: the mean of
//! the fastest eighth of the repetitions. Median and quartiles are
//! still computed, for display and for the A/A self-check.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Mean of the smallest ⌈n/8⌉ values, and of at least two (when there
/// are two), so that one lucky repetition never sets the figure alone.
///
/// The reference host slows down in spells that last seconds and can
/// fill most of a run: a fastest-quarter mean reaches into them, and
/// the minimum of a dozen repetitions is a single sample (README.md
/// has the measured spreads of each).
pub fn best_eighth_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no repetitions to estimate from");
    let v = sorted(values);
    let k = v.len().div_ceil(8).max(2).min(v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Sample median.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no values");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so the self-check sees the
/// spread the way the driver does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The `q`-quantile of `samples` by nearest rank, or `None` when fewer
/// than ten samples lie beyond it — a tail estimated from a handful of
/// points is not reported.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || n - rank.max(1) < 10 {
        return None;
    }
    Some(sorted(samples)[rank.max(1) - 1])
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold an integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float by its raw bits, so `-0.0`, NaN payloads and the last
    /// ulp all count.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_eighth_takes_the_ceiling_of_an_eighth_and_at_least_two() {
        // 17 values → ⌈17/8⌉ = 3 fastest.
        let v: Vec<f64> = (1..=17).rev().map(f64::from).collect();
        assert_eq!(best_eighth_mean(&v), 2.0);
        // 16 values → two; so do 11, 4 and 2: never a lone minimum.
        assert_eq!(best_eighth_mean(&v[1..]), 1.5);
        assert_eq!(best_eighth_mean(&v[6..]), 1.5);
        assert_eq!(best_eighth_mean(&[4.0, 3.0, 2.0, 1.0]), 1.5);
        assert_eq!(best_eighth_mean(&[5.0, 1.0]), 3.0);
        assert_eq!(best_eighth_mean(&[7.5]), 7.5);
    }

    #[test]
    fn best_eighth_ignores_slow_outliers() {
        let calm = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07];
        let mut noisy = calm;
        for slow in &mut noisy[2..] {
            *slow *= 3.0;
        }
        assert_eq!(best_eighth_mean(&calm), best_eighth_mean(&noisy));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]), 10.5 / 4.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples: rank 990, ten samples beyond.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // p99.9 would leave one sample beyond: refused.
        assert_eq!(percentile(&v, 0.999), None);
        // 999 samples leave only nine beyond rank 990.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn float_hash_sees_the_sign_of_zero() {
        let of = |v: f64| {
            let mut h = Fnv::default();
            h.f64(v);
            h.finish()
        };
        assert_ne!(of(0.0), of(-0.0));
        assert_eq!(of(1.5), of(1.5));
    }
}
