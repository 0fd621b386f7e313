//! Bounded-memory streaming histogram.
//!
//! [`LatencyStats`](crate::LatencyStats) keeps every observation — exact,
//! but unbounded, which is wrong for long-running *live* deployments. A
//! [`LogHistogram`] instead buckets values geometrically (HDR-histogram
//! style): constant memory, O(1) record, and percentiles with a bounded
//! relative error equal to the configured bucket growth factor.

use serde::{Deserialize, Serialize};

/// A geometric-bucket histogram over positive values.
///
/// Serializes with its full bucket state so telemetry snapshots can carry
/// latency distributions; a round-trip through JSON is bucket-exact
/// (`PartialEq` compares every bucket and the exact aggregates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Smallest distinguishable value; anything below lands in the
    /// underflow bucket.
    min_value: f64,
    /// Bucket width factor: bucket `i` covers `[min·g^i, min·g^(i+1))`.
    growth: f64,
    ln_growth: f64,
    counts: Vec<u64>,
    underflow: u64,
    count: u64,
    sum: f64,
    max: f64,
}

impl LogHistogram {
    /// A histogram covering `[min_value, max_value]` with the given
    /// relative precision (e.g. 0.02 → percentiles accurate to ~2%).
    pub(crate) fn new(min_value: f64, max_value: f64, precision: f64) -> Self {
        assert!(
            min_value > 0.0 && min_value.is_finite(),
            "min_value must be positive"
        );
        assert!(max_value > min_value, "max_value must exceed min_value");
        assert!(
            (1e-6..1.0).contains(&precision),
            "precision must be in (0, 1), got {precision}"
        );
        let growth = 1.0 + precision;
        let buckets = ((max_value / min_value).ln() / growth.ln()).ceil() as usize + 1;
        LogHistogram {
            min_value,
            growth,
            ln_growth: growth.ln(),
            counts: vec![0; buckets],
            underflow: 0,
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// A histogram suited to latencies in milliseconds: 1 µs – 100 s at
    /// 2% relative precision (~930 buckets).
    pub fn for_latency_ms() -> Self {
        LogHistogram::new(1e-3, 100_000.0, 0.02)
    }

    fn bucket_index(&self, value: f64) -> Option<usize> {
        if value < self.min_value {
            return None;
        }
        let idx = ((value / self.min_value).ln() / self.ln_growth) as usize;
        Some(idx.min(self.counts.len() - 1))
    }

    /// Lower edge of bucket `i`.
    fn bucket_floor(&self, i: usize) -> f64 {
        self.min_value * self.growth.powi(i as i32)
    }

    /// Record one observation. Panics on non-finite or negative values.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "histogram values must be finite and non-negative, got {value}"
        );
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        match self.bucket_index(value) {
            Some(i) => self.counts[i] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number of observations recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate percentile (`q` in `[0, 1]`), with relative error
    /// bounded by the configured precision. Returns `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = self.underflow;
        if rank < seen {
            return Some(self.min_value / 2.0);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank < seen {
                // Report the geometric midpoint of the bucket, capped at
                // the true observed maximum.
                let mid = self.bucket_floor(i) * self.growth.sqrt();
                return Some(mid.min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl LogHistogram {
        /// Exact arithmetic mean of all observations.
        fn mean(&self) -> Option<f64> {
            (self.count > 0).then(|| self.sum / self.count as f64)
        }

        /// Exact maximum observation.
        fn max(&self) -> Option<f64> {
            (self.count > 0).then_some(self.max)
        }
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = LogHistogram::for_latency_ms();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_value_round_trips_within_precision() {
        let mut h = LogHistogram::for_latency_ms();
        h.record(123.0);
        let p = h.percentile(0.5).unwrap();
        assert!((p - 123.0).abs() / 123.0 < 0.03, "got {p}");
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Some(123.0));
        assert_eq!(h.max(), Some(123.0));
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = LogHistogram::for_latency_ms();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p95 = h.percentile(0.95).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 {p50}");
        assert!((p95 - 950.0).abs() / 950.0 < 0.03, "p95 {p95}");
        assert!(h.percentile(1.0).unwrap() <= 1000.0);
    }

    #[test]
    fn underflow_values_are_counted() {
        let mut h = LogHistogram::new(1.0, 1000.0, 0.02);
        h.record(0.0001);
        h.record(0.0);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(0.5).unwrap() < 1.0);
    }

    #[test]
    fn overflow_values_clamp_to_the_last_bucket() {
        let mut h = LogHistogram::new(1.0, 100.0, 0.02);
        h.record(1e9);
        assert_eq!(h.count(), 1);
        // The percentile clamps to the histogram's top bucket; the exact
        // maximum remains available separately.
        let p = h.percentile(1.0).unwrap();
        assert!((99.0..=102.0).contains(&p), "got {p}");
        assert_eq!(h.max(), Some(1e9));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_record_panics() {
        LogHistogram::for_latency_ms().record(f64::NAN);
    }

    #[test]
    fn serde_round_trip_is_bucket_exact() {
        let mut h = LogHistogram::for_latency_ms();
        for i in 1..=1000 {
            h.record(i as f64 * 0.37);
        }
        h.record(0.0); // underflow
        h.record(1e9); // overflow clamp
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h, "round-trip must preserve every bucket");
        assert_eq!(back.count(), h.count());
        assert_eq!(back.mean(), h.mean());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(back.percentile(q), h.percentile(q));
        }
        // A deserialized histogram keeps recording into the same buckets.
        let mut a = back.clone();
        let mut b = h.clone();
        a.record(5.0);
        b.record(5.0);
        assert_eq!(a, b);
    }

    #[test]
    fn percentile_on_empty_histogram_is_none_at_every_rank() {
        let h = LogHistogram::for_latency_ms();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(q), None);
        }
    }

    #[test]
    fn percentile_with_all_mass_in_one_bucket_is_constant() {
        // Every observation lands in the same geometric bucket, so each
        // percentile reports the identical (capped) bucket midpoint.
        let mut h = LogHistogram::new(1.0, 1000.0, 0.02);
        for _ in 0..100 {
            h.record(50.0);
        }
        let p0 = h.percentile(0.0).unwrap();
        for q in [0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(p0));
        }
        assert!((p0 - 50.0).abs() / 50.0 < 0.03, "midpoint {p0}");
        assert!(p0 <= 50.0, "midpoint must be capped at the observed max");
    }

    #[test]
    fn percentile_on_smallest_possible_histogram() {
        // max barely above min → the minimum bucket count the constructor
        // can produce. Percentiles must stay in range and well-defined.
        let mut h = LogHistogram::new(1.0, 1.001, 0.02);
        assert_eq!(h.counts.len(), 2);
        h.record(1.0);
        let p = h.percentile(0.5).unwrap();
        assert_eq!(p, 1.0, "single observation caps the midpoint at max");
        assert_eq!(h.percentile(1.0), Some(1.0));
    }

    #[test]
    fn memory_is_bounded() {
        let h = LogHistogram::for_latency_ms();
        assert!(h.counts.len() < 1_500, "buckets: {}", h.counts.len());
    }

    proptest! {
        /// Histogram percentiles track exact percentiles within the
        /// configured relative precision (plus one bucket of slack).
        #[test]
        fn prop_percentile_error_bounded(
            mut values in proptest::collection::vec(0.01f64..1e4, 10..500),
            q in 0.0f64..=1.0,
        ) {
            let mut h = LogHistogram::new(1e-3, 1e5, 0.02);
            for &v in &values {
                h.record(v);
            }
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = (q * (values.len() - 1) as f64).round() as usize;
            let exact = values[rank];
            let approx = h.percentile(q).unwrap();
            // Two buckets of slack: rounding of the rank plus bucket width.
            prop_assert!(
                (approx - exact).abs() / exact < 0.05,
                "q={q}: exact {exact}, approx {approx}"
            );
        }

        /// Count and mean are exact regardless of bucketing.
        #[test]
        fn prop_count_and_mean_exact(values in proptest::collection::vec(0.01f64..1e4, 1..200)) {
            let mut h = LogHistogram::new(1e-3, 1e5, 0.02);
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            let exact_mean = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert!((h.mean().unwrap() - exact_mean).abs() < 1e-9);
        }
    }
}
