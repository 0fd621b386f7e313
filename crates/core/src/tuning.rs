//! Automated gain tuning — the §III-B procedure as code.
//!
//! The paper tunes FrameFeedback by hand: "gradually increase `K_P` until
//! the controller sensitivity was high and the PV oscillated under
//! constant conditions. Next, we increased `K_D` to reduce the
//! oscillations and stabilize the system." (A Ziegler–Nichols-inspired
//! relay procedure; their exact method does not apply because the
//! controller is PD, not PID.)
//!
//! [`tune`] automates exactly that loop against any closed-loop *trial
//! function*: the caller runs a candidate [`PidConfig`] in their plant
//! (the DES experiment, the live mode, or a synthetic model) and returns
//! the resulting `P_o`-target trace; the tuner measures oscillation and
//! walks the gains.

use crate::pid::PidConfig;

/// Starting proportional gain of the `K_P` sweep.
const KP_START: f64 = 0.05;
/// Multiplicative step of the `K_P` sweep.
const KP_GROWTH: f64 = 1.5;
/// Upper bound for `K_P` (sweep failure if exceeded).
const KP_MAX: f64 = 5.0;
/// Additive step of the `K_D` sweep.
const KD_STEP: f64 = 0.05;
/// Upper bound for `K_D`.
const KD_MAX: f64 = 2.0;
/// Oscillation index above which a trace counts as oscillating.
const OSCILLATION_THRESHOLD: f64 = 1.0;
/// Fraction of the trace (from the end) scored, skipping the ramp.
pub const TAIL_FRACTION: f64 = 0.6;

const _: () = assert!(KP_START > 0.0 && KP_GROWTH > 1.0 && KP_START <= KP_MAX);
const _: () = assert!(KD_STEP > 0.0 && KD_STEP <= KD_MAX);
const _: () = assert!(TAIL_FRACTION >= 0.0 && TAIL_FRACTION <= 1.0);

/// Result of a tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningOutcome {
    /// The tuned configuration (Table IV analogue).
    pub config: PidConfig,
    /// The `K_P` at which sustained oscillation first appeared.
    pub kp_at_oscillation: f64,
    /// Oscillation index of the proportional-only configuration.
    pub oscillation_before_damping: f64,
    /// Oscillation index of the final tuned configuration.
    pub oscillation_after_damping: f64,
}

/// Mean absolute successive difference over the trace tail — the
/// oscillation measure used by the tuner. A converged trace scores near
/// zero; a hunting controller scores on the order of its swing amplitude.
pub fn oscillation_index(trace: &[f64], tail_fraction: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&tail_fraction),
        "tail fraction must be in [0, 1]"
    );
    if trace.len() < 3 {
        return 0.0;
    }
    let start = ((trace.len() as f64) * (1.0 - tail_fraction)) as usize;
    let tail = &trace[start.min(trace.len() - 2)..];
    tail.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (tail.len() - 1) as f64
}

/// Run the §III-B tuning procedure.
///
/// `trial` runs one closed-loop experiment with the candidate gains and
/// returns the `P_o`-target trace (one sample per controller period).
///
/// Returns `None` if no `K_P` within bounds produces oscillation (the
/// plant is overdamped — any gain works) — callers can then keep their
/// current configuration.
pub fn tune<F>(mut trial: F) -> Option<TuningOutcome>
where
    F: FnMut(PidConfig) -> Vec<f64>,
{
    // Phase 1: raise K_P until the PV oscillates under constant conditions.
    let mut kp = KP_START;
    let mut kp_osc = None;
    while kp <= KP_MAX {
        let trace = trial(PidConfig::with_gains(kp, 0.0));
        let osc = oscillation_index(&trace, TAIL_FRACTION);
        if osc > OSCILLATION_THRESHOLD {
            kp_osc = Some((kp, osc));
            break;
        }
        kp *= KP_GROWTH;
    }
    let (kp, osc_before) = kp_osc?;

    // Phase 2: sweep K_D and keep the value that damps the oscillation
    // best (ties go to the smaller K_D — less derivative noise
    // amplification). K_D = 0 is in the grid, so the outcome can never be
    // worse than the proportional-only controller.
    let mut best_kd = 0.0;
    let mut best_osc = osc_before;
    let mut kd = KD_STEP;
    while kd <= KD_MAX {
        let trace = trial(PidConfig::with_gains(kp, kd));
        let osc = oscillation_index(&trace, TAIL_FRACTION);
        if osc < best_osc {
            best_osc = osc;
            best_kd = kd;
        }
        kd += KD_STEP;
    }

    Some(TuningOutcome {
        config: PidConfig::with_gains(kp, best_kd),
        kp_at_oscillation: kp,
        oscillation_before_damping: osc_before,
        oscillation_after_damping: best_osc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, Measurement};
    use crate::pid::FrameFeedback;

    /// A synthetic closed-loop plant: offloading above capacity `c`
    /// produces timeouts one interval later (transport lag), observed
    /// through the same 3-interval trailing average the real device
    /// measurement path uses. The lag is exactly what makes high-gain
    /// controllers oscillate.
    fn capacity_plant(c: f64, steps: usize) -> impl FnMut(PidConfig) -> Vec<f64> {
        move |config: PidConfig| {
            let mut ctl = FrameFeedback::with_config(config);
            let fs = 30.0;
            let mut po = 0.0_f64;
            let mut raw_pending = 0.0_f64; // timeouts observed next interval
            let mut window = [0.0_f64; 3];
            let mut trace = Vec::with_capacity(steps);
            for i in 0..steps {
                window[i % 3] = raw_pending;
                let t_now = window.iter().sum::<f64>() / 3.0;
                raw_pending = (po - c).max(0.0);
                po = ctl
                    .update(&Measurement {
                        fs,
                        po_achieved: po,
                        pl_achieved: 10.0,
                        timeout_rate: t_now,
                        heartbeat_ok: true,
                        dt_secs: 1.0,
                    })
                    .po_target;
                trace.push(po);
            }
            trace
        }
    }

    #[test]
    fn oscillation_index_distinguishes_stable_from_hunting() {
        let stable: Vec<f64> = (0..100).map(|i| 30.0 - 30.0 * 0.8_f64.powi(i)).collect();
        let hunting: Vec<f64> = (0..100).map(|i| 20.0 + 8.0 * (-1.0_f64).powi(i)).collect();
        assert!(oscillation_index(&stable, 0.6) < 0.1);
        assert!(oscillation_index(&hunting, 0.6) > 10.0);
    }

    #[test]
    fn oscillation_index_of_tiny_traces_is_zero() {
        assert_eq!(oscillation_index(&[], 0.6), 0.0);
        assert_eq!(oscillation_index(&[1.0, 2.0], 0.6), 0.0);
    }

    #[test]
    fn tuner_reproduces_the_paper_procedure_on_a_lagged_plant() {
        let outcome =
            tune(capacity_plant(15.0, 120)).expect("the lagged plant oscillates at high K_P");
        // Oscillation found, then damped.
        assert!(outcome.kp_at_oscillation > 0.0);
        assert!(outcome.config.kd > 0.0, "damping must be added");
        assert!(
            outcome.oscillation_after_damping < outcome.oscillation_before_damping,
            "tuning must reduce oscillation: {} -> {}",
            outcome.oscillation_before_damping,
            outcome.oscillation_after_damping
        );
    }

    #[test]
    fn tuned_gains_are_in_the_paper_ballpark() {
        // The paper landed on K_P = 0.2, K_D = 0.26 for its testbed; a
        // plant with capacity near the Fig. 2 operating point should tune
        // to the same order of magnitude.
        let outcome = tune(capacity_plant(15.0, 120)).unwrap();
        assert!(
            (0.02..=2.0).contains(&outcome.config.kp),
            "K_P {} out of plausible range",
            outcome.config.kp
        );
        assert!(
            (0.01..=2.0).contains(&outcome.config.kd),
            "K_D {} out of plausible range",
            outcome.config.kd
        );
    }

    #[test]
    fn overdamped_plant_yields_none() {
        // A plant with no feedback at all (never any timeouts): P_o ramps
        // to F_s and sits there — no K_P oscillates it.
        let trial = |config: PidConfig| {
            let mut ctl = FrameFeedback::with_config(config);
            let mut po = 0.0;
            (0..100)
                .map(|_| {
                    po = ctl
                        .update(&Measurement {
                            fs: 30.0,
                            po_achieved: po,
                            pl_achieved: 10.0,
                            timeout_rate: 0.0,
                            heartbeat_ok: true,
                            dt_secs: 1.0,
                        })
                        .po_target;
                    po
                })
                .collect()
        };
        assert!(tune(trial).is_none());
    }

    #[test]
    fn tuner_is_deterministic() {
        let a = tune(capacity_plant(15.0, 120)).unwrap();
        let b = tune(capacity_plant(15.0, 120)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "tail fraction")]
    fn bad_tail_fraction_panics() {
        oscillation_index(&[1.0, 2.0, 3.0], 1.5);
    }
}
