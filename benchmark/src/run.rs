//! The repetition loop and the estimators that turn repetitions into
//! metrics.

use crate::host::Timed;
use crate::span::{SpanId, Spans};
use crate::stats::{best_eighth_mean, iqr_share, median};
use crate::workloads::{Outcome, Workload};
use std::time::Instant;

/// One repetition: construct, then execute.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Wall seconds `construct` took.
    pub construct_s: f64,
    /// Timing of the measured section of `execute`.
    pub exec: Timed,
    /// What the repetition computed.
    pub outcome: Outcome,
    /// Whether spans were recorded while it ran.
    pub traced: bool,
}

/// Run `reps` repetitions of `w`. In a traced run the recorder is on for
/// repetition 0 and every odd repetition and off for the even ones, so
/// the two halves interleave and their difference is the tracing cost.
pub fn run_reps<W: Workload>(w: &W, reps: usize, spans: &mut Spans, run: SpanId) -> Vec<Rep> {
    let tracing = spans.enabled();
    (0..reps)
        .map(|i| {
            let traced = tracing && (i == 0 || i % 2 == 1);
            spans.set_enabled(traced);
            let rep = spans.within(Some(run), format!("rep[{i}]"), |spans, rep| {
                let c = spans.open(Some(rep), W::CONSTRUCT);
                let start = Instant::now();
                let prepared = w.construct(i);
                let construct_s = start.elapsed().as_secs_f64();
                spans.close(c, 1);
                let (exec, outcome) = w.execute(prepared, spans, rep);
                let ops = outcome.ops;
                (
                    Rep {
                        construct_s,
                        exec,
                        outcome,
                        traced,
                    },
                    ops,
                )
            });
            spans.set_enabled(tracing);
            rep
        })
        .collect()
}

/// The metrics of one run, from its repetitions. Repetition 0 is the
/// warm-up: it counts for correctness and for nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Best-eighth construct time per repetition, seconds.
    pub setup_s: f64,
    /// Operations per second at the typical execute time (best-eighth
    /// mean for fixed work, median otherwise).
    pub frames_per_s: f64,
    /// Typical process CPU per operation, microseconds.
    pub cpu_us_per_frame: f64,
    /// Mean per-device goodput, frames/s.
    pub device_goodput_fps: f64,
    /// Offloads answered within the deadline ÷ offloads attempted.
    pub deadline_hit_share: f64,
    /// Operations resolved ÷ operations attempted.
    pub completed_share: f64,
    /// Every repetition hashed like repetition 0 and conserved its
    /// operations.
    pub result_identical: bool,
    /// Hash of repetition 0's simulated outputs, if the workload has one.
    pub hash: Option<u64>,
    /// Simulation events per repetition (0 where not exposed).
    pub events: u64,
    /// Operations attempted over the measured repetitions.
    pub attempted: u64,
    /// Operations attempted and not resolved.
    pub failed: u64,
    /// Median execute time of a repetition, milliseconds.
    pub rep_median_ms: f64,
    /// Inter-quartile range of the execute times over their median.
    pub rep_iqr_share: f64,
    /// Warm-up repetition's execute time minus the typical one, ms.
    pub first_rep_penalty_ms: f64,
    /// Typical execute time of the traced repetitions over the untraced
    /// ones, minus one (0 in an untraced run).
    pub trace_overhead_share: f64,
    /// Execute time of every repetition in run order, warm-up first, in
    /// ms per typical repetition's worth of operations (for the fixed-
    /// work simulations, simply its execute time).
    pub rep_ms: Vec<f64>,
}

fn wall_per_op(r: &Rep) -> f64 {
    r.exec.wall_s / r.outcome.ops as f64
}

/// Reduce repetitions to metrics. Execute times of `fixed_work` are
/// estimated one-sidedly (best-eighth mean), others by their median;
/// construct times are always fixed work.
pub fn summarize(reps: &[Rep], fixed_work: bool) -> Summary {
    assert!(reps.len() >= 3, "a run is a warm-up plus two repetitions");
    let typical = if fixed_work { best_eighth_mean } else { median };
    let (warmup, measured) = (&reps[0], &reps[1..]);
    let of = |f: fn(&Rep) -> f64| measured.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: fn(&Outcome) -> u64| measured.iter().map(|r| f(&r.outcome)).sum::<u64>();

    let wall = of(wall_per_op);
    let typical_wall = typical(&wall);
    let typical_ops = median(&of(|r| r.outcome.ops as f64));
    let (attempted, resolved) = (sum(|o| o.attempted), sum(|o| o.resolved));

    let half = |traced: bool| -> Option<f64> {
        let v: Vec<f64> = measured
            .iter()
            .filter(|r| r.traced == traced)
            .map(wall_per_op)
            .collect();
        (!v.is_empty()).then(|| typical(&v))
    };
    let trace_overhead_share = match (half(true), half(false)) {
        (Some(on), Some(off)) => on / off - 1.0,
        _ => 0.0,
    };

    Summary {
        setup_s: best_eighth_mean(&of(|r| r.construct_s)),
        frames_per_s: 1.0 / typical_wall,
        cpu_us_per_frame: typical(&of(|r| r.exec.cpu_s / r.outcome.ops as f64)) * 1e6,
        // The median of identical values is that value, to the bit.
        device_goodput_fps: median(&of(|r| r.outcome.goodput_fps)),
        deadline_hit_share: sum(|o| o.hits) as f64 / sum(|o| o.offloads) as f64,
        completed_share: resolved as f64 / attempted as f64,
        result_identical: reps
            .iter()
            .all(|r| r.outcome.conserved && r.outcome.hash == warmup.outcome.hash),
        hash: warmup.outcome.hash,
        events: warmup.outcome.events,
        attempted,
        failed: attempted - resolved.min(attempted),
        rep_median_ms: median(&wall) * typical_ops * 1e3,
        rep_iqr_share: iqr_share(&wall),
        first_rep_penalty_ms: (wall_per_op(warmup) - typical_wall) * typical_ops * 1e3,
        trace_overhead_share,
        rep_ms: reps
            .iter()
            .map(|r| wall_per_op(r) * typical_ops * 1e3)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, cpu_s: f64, construct_s: f64, hash: u64, traced: bool) -> Rep {
        Rep {
            construct_s,
            exec: Timed { wall_s, cpu_s },
            outcome: Outcome {
                ops: 1_000,
                attempted: 1_000,
                resolved: 1_000,
                offloads: 400,
                hits: 300,
                goodput_fps: 25.6,
                events: 9,
                hash: Some(hash),
                conserved: true,
            },
            traced,
        }
    }

    #[test]
    fn the_warm_up_is_timed_out_of_every_estimate() {
        let reps = [
            rep(9.0, 9.0, 9.0, 1, false),
            rep(1.0, 2.0, 0.5, 1, false),
            rep(1.0, 2.0, 0.5, 1, false),
            rep(3.0, 4.0, 0.7, 1, false),
            rep(1.0, 2.0, 0.5, 1, false),
        ];
        let s = summarize(&reps, true);
        assert_eq!(s.frames_per_s, 1_000.0);
        assert_eq!(s.cpu_us_per_frame, 2_000.0);
        assert_eq!(s.setup_s, 0.5);
        assert_eq!(s.first_rep_penalty_ms, 8_000.0);
        assert_eq!(s.rep_median_ms, 1_000.0);
        assert_eq!((s.attempted, s.failed), (4_000, 0));
        assert_eq!(s.deadline_hit_share, 0.75);
        assert_eq!(s.completed_share, 1.0);
        assert_eq!(s.device_goodput_fps, 25.6);
        assert!(s.result_identical);
    }

    #[test]
    fn work_that_is_not_fixed_is_summarised_by_its_median_repetition() {
        let reps = [
            rep(9.0, 9.0, 9.0, 1, false),
            rep(0.5, 1.0, 0.5, 1, false),
            rep(1.0, 2.0, 0.7, 1, false),
            rep(4.0, 8.0, 0.9, 1, false),
        ];
        let s = summarize(&reps, false);
        assert_eq!(s.frames_per_s, 1_000.0);
        assert_eq!(s.cpu_us_per_frame, 2_000.0);
        // Construct is fixed work whatever the execute phase is.
        assert_eq!(s.setup_s, 0.6);
        assert_eq!(summarize(&reps, true).frames_per_s, 1_000.0 / 0.75);
    }

    #[test]
    fn a_diverging_repetition_or_warm_up_fails_identity() {
        let mut reps = vec![
            rep(1.0, 1.0, 1.0, 1, false),
            rep(1.0, 1.0, 1.0, 1, false),
            rep(1.0, 1.0, 1.0, 2, false),
        ];
        assert!(!summarize(&reps, true).result_identical);
        reps[2].outcome.hash = Some(1);
        assert!(summarize(&reps, true).result_identical);
        reps[0].outcome.hash = Some(3);
        assert!(!summarize(&reps, true).result_identical);
        reps[0].outcome.hash = Some(1);
        reps[1].outcome.conserved = false;
        assert!(!summarize(&reps, true).result_identical);
    }

    #[test]
    fn unresolved_operations_are_failures() {
        let mut reps = vec![
            rep(1.0, 1.0, 1.0, 1, false),
            rep(1.0, 1.0, 1.0, 1, false),
            rep(1.0, 1.0, 1.0, 1, false),
        ];
        reps[1].outcome.resolved = 990;
        let s = summarize(&reps, true);
        assert_eq!((s.attempted, s.failed), (2_000, 10));
        assert_eq!(s.completed_share, 0.995);
    }

    #[test]
    fn trace_overhead_compares_the_interleaved_halves() {
        let reps = [
            rep(5.0, 5.0, 1.0, 1, true),
            rep(1.1, 1.0, 1.0, 1, true),
            rep(1.0, 1.0, 1.0, 1, false),
            rep(1.1, 1.0, 1.0, 1, true),
            rep(1.0, 1.0, 1.0, 1, false),
        ];
        let s = summarize(&reps, true);
        assert!((s.trace_overhead_share - 0.1).abs() < 1e-12);
        assert_eq!(
            summarize(&reps[..3], true).trace_overhead_share,
            1.1 / 1.0 - 1.0
        );
    }
}
