//! Latency order statistics for experiment output.

use serde::{Deserialize, Serialize};

/// Order statistics over a set of scalar observations (e.g. latencies).
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    values_ms: Vec<f64>,
}

/// Summary emitted by [`LatencyStats::summary`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of observations summarized.
    pub count: usize,
    /// Arithmetic mean, milliseconds.
    pub mean_ms: f64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Largest observation, milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation in milliseconds. Non-finite values are bugs.
    pub fn record_ms(&mut self, ms: f64) {
        assert!(ms.is_finite(), "latency observation must be finite");
        self.values_ms.push(ms);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> usize {
        self.values_ms.len()
    }

    /// Linear-interpolated percentile, `q` in `[0, 1]`.
    pub fn percentile_ms(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0,1]");
        if self.values_ms.is_empty() {
            return None;
        }
        Some(quantiles(&mut self.values_ms, [q])[0])
    }

    /// Arithmetic mean in milliseconds, if any observation was recorded.
    /// Summed in recording order until a quantile query reorders the
    /// observations.
    pub fn mean_ms(&self) -> Option<f64> {
        if self.values_ms.is_empty() {
            return None;
        }
        Some(self.values_ms.iter().sum::<f64>() / self.values_ms.len() as f64)
    }

    /// Build the standard summary (mean, p50/p95/p99, max).
    pub fn summary(&mut self) -> Option<LatencySummary> {
        // The mean's bits depend on the summation order: take it before
        // the quantiles reorder the observations.
        let mean_ms = self.mean_ms()?;
        let [p50_ms, p95_ms, p99_ms, max_ms] =
            quantiles(&mut self.values_ms, [0.50, 0.95, 0.99, 1.0]);
        Some(LatencySummary {
            count: self.count(),
            mean_ms,
            p50_ms,
            p95_ms,
            p99_ms,
            max_ms,
        })
    }
}

/// Linear-interpolated quantiles of `values` at each of `qs`, which must
/// ascend: for each `q`, the order statistics at the floor and ceil of
/// `q·(n − 1)`, weighted by its fractional part. Exactly the values a
/// full sort would give, but only those ranks are selected, each over
/// the suffix the previous selection left, so `values` ends up partly
/// reordered rather than sorted.
fn quantiles<const K: usize>(values: &mut [f64], qs: [f64; K]) -> [f64; K] {
    debug_assert!(!values.is_empty() && qs.is_sorted());
    let last = (values.len() - 1) as f64;
    // Everything before `start` is at most everything from it on, so a
    // selection in the suffix places the overall rank; later selections
    // work on later suffixes and leave it put. With ascending `qs`, a
    // rank below `start` is the previous floor or ceil: one placed so.
    let mut start = 0;
    let mut rank = |r: usize| {
        if r >= start {
            values[start..]
                .select_nth_unstable_by(r - start, |a, b| a.partial_cmp(b).expect("finite values"));
            start = r + 1;
        }
        values[r]
    };
    qs.map(|q| {
        let pos = q * last;
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        rank(lo) * (1.0 - frac) + rank(pos.ceil() as usize) * frac
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn latency_percentiles() {
        let mut l = LatencyStats::new();
        for i in 1..=100 {
            l.record_ms(i as f64);
        }
        assert_eq!(l.percentile_ms(0.0), Some(1.0));
        assert_eq!(l.percentile_ms(1.0), Some(100.0));
        let p50 = l.percentile_ms(0.5).unwrap();
        assert!((p50 - 50.5).abs() < 1e-9, "got {p50}");
        assert_eq!(l.mean_ms(), Some(50.5));
    }

    #[test]
    fn summary_is_consistent() {
        let mut l = LatencyStats::new();
        for v in [10.0, 20.0, 30.0] {
            l.record_ms(v);
        }
        let s = l.summary().unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean_ms, 20.0);
        assert_eq!(s.p50_ms, 20.0);
        assert_eq!(s.max_ms, 30.0);
        assert!(LatencyStats::new().summary().is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_latency_panics() {
        LatencyStats::new().record_ms(f64::NAN);
    }

    proptest! {
        /// Percentiles are monotone in q and bounded by min/max.
        #[test]
        fn prop_percentiles_monotone(mut vals in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let mut l = LatencyStats::new();
            for &v in &vals {
                l.record_ms(v);
            }
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = f64::NEG_INFINITY;
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let p = l.percentile_ms(q).unwrap();
                prop_assert!(p >= prev - 1e-9);
                prop_assert!(p >= vals[0] - 1e-9 && p <= vals[vals.len()-1] + 1e-9);
                prev = p;
            }
        }
    }
}
