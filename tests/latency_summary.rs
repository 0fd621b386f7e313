//! `LatencyStats::summary` selects its quantiles instead of sorting for
//! them. It must return exactly what a full sort returns.
//!
//! The reference is computed here, from the documented definition: the
//! mean summed in insertion order, then linear interpolation between the
//! order statistics at the floor and ceil of `q·(n − 1)` of a sorted
//! copy. Every field must match bit for bit. Observations are built the
//! way every host records them, from integer microseconds, over narrow
//! ranges, so duplicates and ties at rank boundaries are common.

use framefeedback::metrics::{LatencyStats, LatencySummary};
use framefeedback::sim::SimDuration;
use proptest::prelude::*;

/// An observation of `us` microseconds, in milliseconds, as the hosts
/// compute it.
fn ms(us: u64) -> f64 {
    SimDuration::from_micros(us).as_secs_f64() * 1_000.0
}

/// The documented quantile: linear interpolation between the order
/// statistics at the floor and ceil of `q·(n − 1)`, from a sorted copy.
fn quantile_by_sort(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn reference(values: &[f64]) -> LatencySummary {
    let mean_ms = values.iter().sum::<f64>() / values.len() as f64;
    let quantile = |q| quantile_by_sort(values, q);
    LatencySummary {
        count: values.len(),
        mean_ms,
        p50_ms: quantile(0.50),
        p95_ms: quantile(0.95),
        p99_ms: quantile(0.99),
        max_ms: quantile(1.0),
    }
}

/// `None` if `values` summarize exactly as the reference does, else
/// which field differs.
fn mismatch(values: &[f64]) -> Option<String> {
    let mut stats = LatencyStats::new();
    for &v in values {
        stats.record_ms(v);
    }
    let got = stats.summary().expect("at least one observation");
    let want = reference(values);
    if got.count != want.count {
        return Some(format!("count {} != {}", got.count, want.count));
    }
    [
        ("mean_ms", got.mean_ms, want.mean_ms),
        ("p50_ms", got.p50_ms, want.p50_ms),
        ("p95_ms", got.p95_ms, want.p95_ms),
        ("p99_ms", got.p99_ms, want.p99_ms),
        ("max_ms", got.max_ms, want.max_ms),
    ]
    .iter()
    .find(|(_, g, w)| g.to_bits() != w.to_bits())
    .map(|(name, g, w)| format!("{name} {g:?} != {w:?} over {} values", values.len()))
}

proptest! {
    #[test]
    fn prop_summary_by_selection_equals_summary_by_sort(
        (base, width) in (0u64..300_000, 1u64..5_000),
        raw in proptest::collection::vec(any::<u64>(), 1..600),
    ) {
        let values: Vec<f64> = raw.iter().map(|r| ms(base + r % width)).collect();
        if let Some(why) = mismatch(&values) {
            prop_assert!(false, "{why}");
        }
    }

    #[test]
    fn prop_percentile_ms_equals_the_sorted_quantile(
        raw in proptest::collection::vec(0u64..2_000, 1..300),
        q in 0.0f64..=1.0,
    ) {
        let values: Vec<f64> = raw.iter().map(|&us| ms(us)).collect();
        let mut stats = LatencyStats::new();
        for &v in &values {
            stats.record_ms(v);
        }
        let want = quantile_by_sort(&values, q);
        let got = stats.percentile_ms(q).expect("at least one observation");
        prop_assert_eq!(got.to_bits(), want.to_bits(), "q = {}", q);
    }
}

#[test]
fn one_two_and_three_observations_summarize_like_a_sort() {
    for values in [
        vec![ms(41_250)],
        vec![ms(90_001), ms(12_345)],
        vec![ms(12_345), ms(90_001)],
        vec![ms(7), ms(7), ms(3)],
        vec![ms(250_000), ms(1), ms(125_000)],
    ] {
        assert_eq!(mismatch(&values), None, "{values:?}");
    }
}

#[test]
fn all_equal_observations_summarize_to_that_value() {
    for n in [1, 2, 3, 100, 599] {
        let values = vec![ms(33_333); n];
        assert_eq!(mismatch(&values), None, "n = {n}");
        let mut stats = LatencyStats::new();
        values.iter().for_each(|&v| stats.record_ms(v));
        let s = stats.summary().unwrap();
        for v in [s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms] {
            assert_eq!(v.to_bits(), ms(33_333).to_bits());
        }
    }
}
