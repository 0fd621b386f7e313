//! Experiment scenario schedules — the paper's Tables V and VI.
//!
//! Both evaluation figures drive the system with piecewise-constant
//! condition schedules: Table V steps the network (bandwidth, loss) and
//! Table VI steps the background server load. [`StepSchedule`] is the
//! shared representation; `table_v()` / `table_vi()` are the exact
//! schedules from the paper, and `fig2_loss_injection()` reproduces the
//! tuning experiment of Figure 2.

use ff_net::NetworkConditions;
use serde::{Deserialize, Serialize};

/// A piecewise-constant schedule: value `v` applies from its start time
/// (seconds) until the next step's start; the last step applies forever.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSchedule<T> {
    steps: Vec<(f64, T)>,
}

impl<T: Clone> StepSchedule<T> {
    /// Build from `(start_secs, value)` steps. The first step must start
    /// at 0 and starts must be strictly increasing.
    pub fn new(steps: Vec<(f64, T)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one step");
        assert_eq!(steps[0].0, 0.0, "first step must start at t=0");
        for w in steps.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "step starts must be strictly increasing ({} then {})",
                w[0].0,
                w[1].0
            );
        }
        StepSchedule { steps }
    }

    /// A schedule holding one value forever.
    pub fn constant(value: T) -> Self {
        StepSchedule {
            steps: vec![(0.0, value)],
        }
    }

    /// The value in force at time `t` (seconds).
    pub fn value_at(&self, t_secs: f64) -> &T {
        assert!(t_secs >= 0.0, "schedule queried at negative time");
        let idx = self
            .steps
            .partition_point(|&(start, _)| start <= t_secs)
            .saturating_sub(1);
        &self.steps[idx].1
    }

    /// All `(start_secs, value)` steps.
    pub fn steps(&self) -> &[(f64, T)] {
        &self.steps
    }
}

/// Background server load during one phase (Table VI column): offered
/// offload requests per second from *other* tenants.
pub(crate) type BackgroundLoad = f64;

/// The exact network schedule of Table V.
///
/// | Time (s) | Bandwidth | Loss (%) |
/// |----------|-----------|----------|
/// | 0–30     | 10        | 0        |
/// | 30–45    | 4         | 0        |
/// | 45–60    | 1         | 0        |
/// | 60–90    | 10        | 0        |
/// | 90–105   | 10        | 7        |
/// | 105+     | 4         | 7        |
pub fn table_v() -> StepSchedule<NetworkConditions> {
    let c = NetworkConditions::new;
    StepSchedule::new(vec![
        (0.0, c(10.0, 0.0)),
        (30.0, c(4.0, 0.0)),
        (45.0, c(1.0, 0.0)),
        (60.0, c(10.0, 0.0)),
        (90.0, c(10.0, 7.0)),
        (105.0, c(4.0, 7.0)),
    ])
}

/// The exact background-load schedule of Table VI (requests/s).
///
/// | Time (s) | Request rate |
/// |----------|--------------|
/// | 0–10     | 0            |
/// | 10–20    | 90           |
/// | 20–35    | 120          |
/// | 35–50    | 135          |
/// | 50–60    | 150          |
/// | 60–75    | 130          |
/// | 75–90    | 120          |
/// | 90–100   | 90           |
/// | 100+     | 0            |
pub fn table_vi() -> StepSchedule<BackgroundLoad> {
    StepSchedule::new(vec![
        (0.0, 0.0),
        (10.0, 90.0),
        (20.0, 120.0),
        (35.0, 135.0),
        (50.0, 150.0),
        (60.0, 130.0),
        (75.0, 120.0),
        (90.0, 90.0),
        (100.0, 0.0),
    ])
}

/// Figure 2's condition: an ideal network, then 7% packet loss injected
/// after 27 seconds.
pub fn fig2_loss_injection() -> StepSchedule<NetworkConditions> {
    StepSchedule::new(vec![
        (0.0, NetworkConditions::new(10.0, 0.0)),
        (27.0, NetworkConditions::new(10.0, 7.0)),
    ])
}

/// An ideal network held forever (baseline condition).
pub fn ideal_network() -> StepSchedule<NetworkConditions> {
    StepSchedule::constant(NetworkConditions::ideal())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_matches_the_paper() {
        let s = table_v();
        let at = |t: f64| *s.value_at(t);
        assert_eq!(at(0.0).bandwidth_mbps, 10.0);
        assert_eq!(at(29.9).bandwidth_mbps, 10.0);
        assert_eq!(at(30.0).bandwidth_mbps, 4.0);
        assert_eq!(at(45.0).bandwidth_mbps, 1.0);
        assert_eq!(at(59.9).bandwidth_mbps, 1.0);
        assert_eq!(at(60.0).bandwidth_mbps, 10.0);
        assert_eq!(at(89.9).loss_pct, 0.0);
        assert_eq!(at(90.0).loss_pct, 7.0);
        assert_eq!(at(90.0).bandwidth_mbps, 10.0);
        assert_eq!(at(105.0).bandwidth_mbps, 4.0);
        assert_eq!(at(105.0).loss_pct, 7.0);
        assert_eq!(at(1e6).bandwidth_mbps, 4.0, "last phase holds forever");
    }

    #[test]
    fn table_vi_matches_the_paper() {
        let s = table_vi();
        let cases = [
            (0.0, 0.0),
            (9.9, 0.0),
            (10.0, 90.0),
            (20.0, 120.0),
            (35.0, 135.0),
            (50.0, 150.0),
            (59.9, 150.0),
            (60.0, 130.0),
            (75.0, 120.0),
            (90.0, 90.0),
            (100.0, 0.0),
            (500.0, 0.0),
        ];
        for (t, expected) in cases {
            assert_eq!(*s.value_at(t), expected, "at t={t}");
        }
    }

    #[test]
    fn fig2_injects_loss_at_27s() {
        let s = fig2_loss_injection();
        assert_eq!(s.value_at(26.9).loss_pct, 0.0);
        assert_eq!(s.value_at(27.0).loss_pct, 7.0);
        assert_eq!(s.value_at(27.0).bandwidth_mbps, 10.0);
    }

    #[test]
    fn constant_schedule_never_changes() {
        let s = StepSchedule::constant(7u32);
        assert_eq!(*s.value_at(0.0), 7);
        assert_eq!(*s.value_at(1e9), 7);
    }

    #[test]
    #[should_panic(expected = "t=0")]
    fn schedule_must_start_at_zero() {
        let _ = StepSchedule::new(vec![(1.0, 0u32)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn schedule_rejects_non_increasing_steps() {
        let _ = StepSchedule::new(vec![(0.0, 0u32), (5.0, 1), (5.0, 2)]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_query_time_panics() {
        let _ = table_vi().value_at(-1.0);
    }

    #[test]
    fn boundary_belongs_to_the_new_phase() {
        // Table V: at exactly t=30 the 4 Mbps phase is in force.
        assert_eq!(table_v().value_at(30.0).bandwidth_mbps, 4.0);
    }
}
