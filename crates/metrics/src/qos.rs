//! Quality-of-service accounting in the paper's notation (Table I).
//!
//! Each measurement interval (1 s by default) yields a [`QosRecord`] with
//! the achieved rates: local `P_l`, offload `P_o`, timeout `T` (split into
//! network-induced `T_n` and load-induced `T_l`), and the derived total
//! throughput `P = P_o + P_l − T` that Figures 3 and 4 plot.
//!
//! This is the **single** QoS schema for both execution modes: the
//! simulator and the live TCP client emit their per-interval records
//! through the same shared device runtime (`ff-device`), so `ff-bench`
//! tables and plots and live run summaries all consume one record type.

use ff_sim::SimTime;
use serde::{Deserialize, Serialize};

/// The per-interval QoS measurement, mirroring the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct QosRecord {
    /// End of the measurement interval, seconds since start.
    pub t_secs: f64,
    /// Local processing rate `P_l` (successful local inferences / s).
    pub pl: f64,
    /// Offloading rate `P_o` (offload responses arrived, on time or not, / s).
    pub po: f64,
    /// Total timeout rate `T` (offloaded frames that missed the deadline / s).
    pub timeouts: f64,
    /// Timeouts attributable to the network (`T_n`).
    pub timeouts_network: f64,
    /// Timeouts attributable to server load: queueing or rejection (`T_l`).
    pub timeouts_load: f64,
    /// The controller's current offload-rate target (frames / s).
    pub po_target: f64,
    /// Accuracy-weighted throughput: successful inferences per second,
    /// each weighted by the predicted top-1 accuracy of the model that
    /// served it (Table III). Scores whether the frames that made the
    /// deadline were *worth* inferring. Serde-default so records
    /// serialized before this field existed still parse (as 0.0).
    #[serde(default)]
    pub accuracy_weighted_throughput: f64,
}

impl QosRecord {
    /// Total successful inference throughput `P = P_o + P_l − T`.
    ///
    /// This is the paper's headline metric ("The dark blue dots represent
    /// `P_o + P_l − T` and represent the throughput", §IV-D).
    pub fn throughput(&self) -> f64 {
        self.po + self.pl - self.timeouts
    }
}

/// The full per-interval QoS history of one device over one experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QosLog {
    records: Vec<QosRecord>,
}

/// Aggregate over a time range, as printed in experiment tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosAggregate {
    /// Start of the aggregated range (inclusive), seconds.
    pub from_secs: f64,
    /// End of the aggregated range (exclusive), seconds.
    pub to_secs: f64,
    /// Number of interval records in the range.
    pub intervals: usize,
    /// Mean total throughput `P` over the range.
    pub mean_throughput: f64,
    /// Mean local rate `P_l`.
    pub mean_pl: f64,
    /// Mean achieved offload rate `P_o`.
    pub mean_po: f64,
    /// Mean timeout rate `T`.
    pub mean_timeouts: f64,
    /// Mean controller offload target.
    pub mean_po_target: f64,
    /// Intervals in the range that processed at least one frame
    /// (`pl + po > 0`). Serde-default for pre-field artifacts.
    #[serde(default)]
    pub active_intervals: usize,
    /// Mean accuracy-weighted throughput over the **active** intervals
    /// only (0.0 when none were active). Unlike the legacy means, this
    /// does not divide by all-skipped intervals: a semantic filter that
    /// drops every frame of a static scene would otherwise dilute the
    /// score of the frames actually inferred. Serde-default for
    /// pre-field artifacts.
    #[serde(default)]
    pub mean_accuracy_weighted_throughput: f64,
}

impl QosLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log with room for `intervals` records: a run that knows
    /// how many controller periods it spans allocates its log once, at
    /// exactly that size.
    pub fn with_capacity(intervals: usize) -> Self {
        QosLog {
            records: Vec::with_capacity(intervals),
        }
    }

    /// Append one interval record; time must be non-decreasing.
    pub fn push(&mut self, r: QosRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                r.t_secs >= last.t_secs,
                "QosLog records must arrive in time order"
            );
        }
        self.records.push(r);
    }

    /// Convenience: build and append a record.
    #[allow(clippy::too_many_arguments)]
    pub fn push_at(
        &mut self,
        t: SimTime,
        pl: f64,
        po: f64,
        timeouts_network: f64,
        timeouts_load: f64,
        po_target: f64,
        accuracy_weighted_throughput: f64,
    ) {
        self.push(QosRecord {
            t_secs: t.as_secs_f64(),
            pl,
            po,
            timeouts: timeouts_network + timeouts_load,
            timeouts_network,
            timeouts_load,
            po_target,
            accuracy_weighted_throughput,
        });
    }

    /// All interval records, in time order.
    pub fn records(&self) -> &[QosRecord] {
        &self.records
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no intervals were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Aggregate statistics over `[from, to)` seconds.
    ///
    /// Single pass, no intermediate allocation — this sits on the sweep
    /// engine's per-cell summary path and runs once per grid cell.
    pub fn aggregate(&self, from: f64, to: f64) -> Option<QosAggregate> {
        let mut n = 0usize;
        let mut active = 0usize;
        let (mut tp, mut pl, mut po, mut to_sum, mut tgt, mut aw) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for r in self
            .records
            .iter()
            .filter(|r| r.t_secs >= from && r.t_secs < to)
        {
            n += 1;
            tp += r.throughput();
            pl += r.pl;
            po += r.po;
            to_sum += r.timeouts;
            tgt += r.po_target;
            if r.pl + r.po > 0.0 {
                active += 1;
                aw += r.accuracy_weighted_throughput;
            }
        }
        if n == 0 {
            return None;
        }
        let nf = n as f64;
        Some(QosAggregate {
            from_secs: from,
            to_secs: to,
            intervals: n,
            mean_throughput: tp / nf,
            mean_pl: pl / nf,
            mean_po: po / nf,
            mean_timeouts: to_sum / nf,
            mean_po_target: tgt / nf,
            active_intervals: active,
            // Guard the all-skipped case: with zero active intervals the
            // mean is 0.0, never 0/0 = NaN — and all-skipped intervals
            // never dilute the mean of the frames actually inferred.
            mean_accuracy_weighted_throughput: if active == 0 { 0.0 } else { aw / active as f64 },
        })
    }

    /// Aggregate over the whole log.
    pub fn aggregate_all(&self) -> Option<QosAggregate> {
        self.aggregate(f64::NEG_INFINITY, f64::INFINITY)
    }

    /// Mean throughput over the whole run — the scalar used for
    /// controller-vs-controller comparisons.
    pub fn mean_throughput(&self) -> f64 {
        self.aggregate_all().map_or(0.0, |a| a.mean_throughput)
    }

    /// Mean accuracy-weighted throughput over the whole run's active
    /// intervals — the scalar used for model-selection comparisons.
    pub fn mean_accuracy_weighted(&self) -> f64 {
        self.aggregate_all()
            .map_or(0.0, |a| a.mean_accuracy_weighted_throughput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, pl: f64, po: f64, tn: f64, tl: f64) -> QosRecord {
        QosRecord {
            t_secs: t,
            pl,
            po,
            timeouts: tn + tl,
            timeouts_network: tn,
            timeouts_load: tl,
            po_target: po,
            accuracy_weighted_throughput: 0.7 * (pl + po - tn - tl),
        }
    }

    #[test]
    fn throughput_is_po_plus_pl_minus_t() {
        let r = rec(1.0, 10.0, 20.0, 3.0, 2.0);
        assert_eq!(r.throughput(), 25.0);
    }

    #[test]
    fn aggregate_over_range() {
        let mut log = QosLog::new();
        log.push(rec(0.0, 10.0, 0.0, 0.0, 0.0));
        log.push(rec(1.0, 10.0, 10.0, 0.0, 0.0));
        log.push(rec(2.0, 10.0, 20.0, 5.0, 0.0));
        let a = log.aggregate(1.0, 3.0).unwrap();
        assert_eq!(a.intervals, 2);
        assert!((a.mean_throughput - ((20.0 + 25.0) / 2.0)).abs() < 1e-12);
        assert!((a.mean_po - 15.0).abs() < 1e-12);
        assert!(log.aggregate(10.0, 20.0).is_none());
    }

    #[test]
    fn push_at_sums_timeout_components() {
        let mut log = QosLog::new();
        log.push_at(SimTime::from_secs(1), 5.0, 12.0, 2.0, 1.0, 13.0, 9.8);
        let r = log.records()[0];
        assert_eq!(r.timeouts, 3.0);
        assert_eq!(r.t_secs, 1.0);
        assert_eq!(r.po_target, 13.0);
        assert_eq!(r.accuracy_weighted_throughput, 9.8);
    }

    #[test]
    fn all_skipped_intervals_do_not_dilute_the_accuracy_weighted_mean() {
        // Three intervals: two active at aw = 10, one all-skipped
        // (pl = po = 0, the semantic filter dropped every frame). The
        // aw mean must average the two active intervals, not divide by
        // three — while the legacy means keep their historical ÷n.
        let mut log = QosLog::new();
        log.push(rec(0.0, 10.0, 5.0, 0.0, 0.0));
        log.push(rec(1.0, 0.0, 0.0, 0.0, 0.0));
        log.push(rec(2.0, 10.0, 5.0, 0.0, 0.0));
        let a = log.aggregate_all().unwrap();
        assert_eq!(a.intervals, 3);
        assert_eq!(a.active_intervals, 2);
        assert!((a.mean_accuracy_weighted_throughput - 0.7 * 15.0).abs() < 1e-12);
        assert!((a.mean_throughput - 10.0).abs() < 1e-12, "legacy mean ÷ n");
    }

    #[test]
    fn zero_frame_log_aggregates_to_zero_not_nan() {
        // Every interval all-skipped: the guard must yield 0.0, not 0/0.
        let mut log = QosLog::new();
        log.push(rec(0.0, 0.0, 0.0, 0.0, 0.0));
        log.push(rec(1.0, 0.0, 0.0, 0.0, 0.0));
        let a = log.aggregate_all().unwrap();
        assert_eq!(a.active_intervals, 0);
        assert_eq!(a.mean_accuracy_weighted_throughput, 0.0);
        assert_eq!(log.mean_accuracy_weighted(), 0.0);
        assert_eq!(QosLog::new().mean_accuracy_weighted(), 0.0);
    }

    #[test]
    fn pre_field_records_still_parse_with_zero_weighted_throughput() {
        // A record exactly as serialized before the field existed.
        let legacy = "{\"t_secs\":1.0,\"pl\":3.0,\"po\":4.0,\"timeouts\":0.0,\
                      \"timeouts_network\":0.0,\"timeouts_load\":0.0,\"po_target\":4.0}";
        let parsed: QosRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.accuracy_weighted_throughput, 0.0);
        assert_eq!(parsed.pl, 3.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_records_panic() {
        let mut log = QosLog::new();
        log.push(rec(2.0, 0.0, 0.0, 0.0, 0.0));
        log.push(rec(1.0, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn mean_throughput_of_empty_log_is_zero() {
        assert_eq!(QosLog::new().mean_throughput(), 0.0);
    }
}
