//! The FrameFeedback controller — the paper's contribution (§III).
//!
//! A discrete PD controller (the integral term is deliberately zero,
//! §III-A.1) driving the offload rate `P_o` toward the source frame rate
//! `F_s` while reacting to the end-to-end timeout rate `T` through the
//! piecewise process variable of Eq. 4:
//!
//! ```text
//! PV = P_o            if T = 0         SP = F_s
//! PV = T + 0.9·F_s    if T > 0
//! ```
//!
//! giving the piecewise error of Eq. 5:
//!
//! ```text
//! e(t) = F_s − P_o      if T = 0
//! e(t) = 0.1·F_s − T    if T > 0
//! ```
//!
//! The control output `u(t) = K_P·e + K_I·∫e + K_D·de/dt` (Eq. 2, with
//! `K_I = 0` this is Eq. 3) is clamped to the asymmetric update range of
//! Table IV — at most `+0.1·F_s` per step when increasing offloading, up
//! to `−0.5·F_s` when backing off — and accumulated into the `P_o`
//! target, itself clamped to `[0, F_s]`.

use crate::controller::{Controller, Decision, Measurement};
use serde::{Deserialize, Serialize};

/// Controller gains and limits (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PidConfig {
    /// Proportional gain `K_P`.
    pub kp: f64,
    /// Integral gain `K_I` (0 in the paper; non-zero enables the full-PID
    /// ablation of DESIGN.md §7).
    pub ki: f64,
    /// Derivative gain `K_D`.
    pub kd: f64,
    /// Most negative per-step update, as a multiple of `F_s` (−0.5).
    pub update_min_factor: f64,
    /// Most positive per-step update, as a multiple of `F_s` (+0.1).
    pub update_max_factor: f64,
    /// The timeout tolerance as a fraction of `F_s` (0.1): `e = 0` when
    /// `T` equals this fraction of the frame rate.
    pub timeout_tolerance: f64,
    /// Initial offload-rate target in frames/s.
    pub initial_po: f64,
}

impl Default for PidConfig {
    /// The exact settings of Table IV.
    fn default() -> Self {
        PidConfig {
            kp: 0.2,
            ki: 0.0,
            kd: 0.26,
            update_min_factor: -0.5,
            update_max_factor: 0.1,
            timeout_tolerance: 0.1,
            initial_po: 0.0,
        }
    }
}

impl PidConfig {
    /// Table IV defaults with different proportional/derivative gains —
    /// the Figure 2 sweep.
    pub fn with_gains(kp: f64, kd: f64) -> Self {
        PidConfig {
            kp,
            kd,
            ..Default::default()
        }
    }

    fn validate(&self) {
        assert!(self.kp.is_finite() && self.kp >= 0.0, "K_P must be >= 0");
        assert!(self.ki.is_finite() && self.ki >= 0.0, "K_I must be >= 0");
        assert!(self.kd.is_finite() && self.kd >= 0.0, "K_D must be >= 0");
        assert!(
            self.update_min_factor <= 0.0,
            "update minimum must not be positive"
        );
        assert!(
            self.update_max_factor > 0.0,
            "update maximum must be positive"
        );
        assert!(
            (0.0..1.0).contains(&self.timeout_tolerance),
            "timeout tolerance must be a fraction of F_s in [0, 1)"
        );
        assert!(
            self.initial_po >= 0.0 && self.initial_po.is_finite(),
            "initial P_o must be >= 0"
        );
    }
}

/// The piecewise error function of Eq. 5. Exposed for property tests and
/// the tuning harness.
pub(crate) fn piecewise_error(cfg: &PidConfig, fs: f64, po: f64, timeout_rate: f64) -> f64 {
    if timeout_rate <= 0.0 {
        fs - po
    } else {
        cfg.timeout_tolerance * fs - timeout_rate
    }
}

/// The FrameFeedback closed-loop controller.
#[derive(Debug, Clone)]
pub struct FrameFeedback {
    config: PidConfig,
    po_target: f64,
    prev_error: Option<f64>,
    integral: f64,
}

impl FrameFeedback {
    /// A controller with the paper's Table IV settings.
    pub fn new() -> Self {
        Self::with_config(PidConfig::default())
    }

    /// A controller with explicit (validated) settings.
    pub fn with_config(config: PidConfig) -> Self {
        config.validate();
        FrameFeedback {
            config,
            po_target: config.initial_po,
            prev_error: None,
            integral: 0.0,
        }
    }

    /// The raw (unclamped) control output for a given error — visible for
    /// tests and the tuning harness.
    fn control_output(&mut self, error: f64, dt: f64, fs: f64) -> f64 {
        let derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        if self.config.ki > 0.0 {
            // Anti-windup: accumulate only when the integral term can act
            // at all (K_I = 0 is the paper's configuration, where unbounded
            // accumulation would silently grow forever), and keep the
            // accumulated contribution within the Table IV per-step update
            // range so a long saturated phase cannot pin the output after
            // conditions change.
            self.integral += error * dt;
            let lo = self.config.update_min_factor * fs / self.config.ki;
            let hi = self.config.update_max_factor * fs / self.config.ki;
            self.integral = self.integral.clamp(lo, hi);
        }
        self.config.kp * error + self.config.ki * self.integral + self.config.kd * derivative
    }
}

impl Default for FrameFeedback {
    fn default() -> Self {
        Self::new()
    }
}

impl Controller for FrameFeedback {
    fn name(&self) -> &'static str {
        "framefeedback"
    }

    fn update(&mut self, m: &Measurement) -> Decision {
        m.validate();
        let error = piecewise_error(&self.config, m.fs, m.po_achieved, m.timeout_rate);
        let u = self.control_output(error, m.dt_secs, m.fs);
        self.prev_error = Some(error);

        // Table IV: clamp the per-step update to [−0.5·F_s, +0.1·F_s].
        let u = u.clamp(
            self.config.update_min_factor * m.fs,
            self.config.update_max_factor * m.fs,
        );

        // The actuated target is itself bounded by what exists: we cannot
        // offload more than the source produces, nor a negative rate.
        self.po_target = (self.po_target + u).clamp(0.0, m.fs);
        Decision {
            po_target: self.po_target,
        }
    }

    fn po_target(&self) -> f64 {
        self.po_target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FS: f64 = 30.0;

    fn measure(po: f64, t: f64) -> Measurement {
        Measurement {
            fs: FS,
            po_achieved: po,
            pl_achieved: 13.0,
            timeout_rate: t,
            heartbeat_ok: true,
            dt_secs: 1.0,
        }
    }

    #[test]
    fn table_iv_defaults() {
        let c = PidConfig::default();
        assert_eq!(c.kp, 0.2);
        assert_eq!(c.ki, 0.0);
        assert_eq!(c.kd, 0.26);
        assert_eq!(c.update_min_factor, -0.5);
        assert_eq!(c.update_max_factor, 0.1);
        assert_eq!(c.timeout_tolerance, 0.1);
    }

    #[test]
    fn error_function_matches_eq5() {
        let cfg = PidConfig::default();
        // T = 0: e = F_s − P_o.
        assert_eq!(piecewise_error(&cfg, FS, 10.0, 0.0), 20.0);
        assert_eq!(piecewise_error(&cfg, FS, 30.0, 0.0), 0.0);
        // T > 0: e = 0.1·F_s − T.
        assert_eq!(piecewise_error(&cfg, FS, 10.0, 3.0), 0.0);
        assert_eq!(piecewise_error(&cfg, FS, 10.0, 1.0), 2.0);
        assert_eq!(piecewise_error(&cfg, FS, 10.0, 13.0), -10.0);
    }

    #[test]
    fn integral_stays_zero_when_ki_is_zero() {
        // Regression: with the paper's K_I = 0, the integral used to
        // accumulate unboundedly anyway — dead state that grew forever
        // and would leak into the output the moment ki was reconfigured.
        let mut c = FrameFeedback::new();
        let mut po = 0.0;
        for _ in 0..10_000 {
            po = c.update(&measure(po, 0.0)).po_target;
        }
        assert_eq!(c.integral, 0.0, "integral must not accumulate at K_I = 0");
    }

    #[test]
    fn integral_contribution_is_clamped_when_ki_is_positive() {
        // Full-PID ablation: a long saturated phase (P_o pinned far from
        // F_s) must not wind the integral up past the Table IV per-step
        // update range, or recovery would lag for hundreds of intervals.
        let cfg = PidConfig {
            ki: 0.05,
            ..Default::default()
        };
        let mut c = FrameFeedback::with_config(cfg);
        for _ in 0..1_000 {
            // Persistent large positive error: P_o stuck at 0, no timeouts.
            c.update(&measure(0.0, 0.0));
        }
        let contribution = cfg.ki * c.integral;
        assert!(
            contribution <= cfg.update_max_factor * FS + 1e-9,
            "wound-up integral contribution {contribution} exceeds +0.1·F_s"
        );
        assert!(
            contribution >= cfg.update_min_factor * FS - 1e-9,
            "wound-up integral contribution {contribution} exceeds -0.5·F_s"
        );
        // And the loop still converges to F_s rather than oscillating on
        // stored error once conditions are clean.
        let mut po = c.po_target();
        for _ in 0..200 {
            po = c.update(&measure(po, 0.0)).po_target;
        }
        assert!((po - FS).abs() < 1.0, "did not settle near F_s: {po}");
    }

    #[test]
    fn ramps_up_under_clean_conditions_at_the_capped_rate() {
        let mut c = FrameFeedback::new();
        // No timeouts, large error: every step is clamped to +0.1·F_s.
        let mut po = 0.0;
        for step in 1..=10 {
            let d = c.update(&measure(po, 0.0));
            assert!(
                d.po_target <= step as f64 * 0.1 * FS + 1e-9,
                "step {step}: ramp faster than +0.1·F_s/step"
            );
            po = d.po_target;
        }
        assert!(po > 0.0);
    }

    #[test]
    fn reaches_fs_and_stays_there_when_clean() {
        let mut c = FrameFeedback::new();
        let mut po = 0.0;
        for _ in 0..100 {
            po = c.update(&measure(po, 0.0)).po_target;
        }
        assert!((po - FS).abs() < 1e-3, "P_o settled at {po}, expected F_s");
        // Still no timeouts: stays (asymptotically) at F_s.
        let po2 = c.update(&measure(po, 0.0)).po_target;
        assert!(po2 >= po && (po2 - FS).abs() < 1e-3);
    }

    #[test]
    fn heavy_timeouts_cut_po_fast() {
        let mut c = FrameFeedback::new();
        // Start at full offload.
        let mut po = 0.0;
        for _ in 0..100 {
            po = c.update(&measure(po, 0.0)).po_target;
        }
        assert!((po - FS).abs() < 1e-3);
        // Now every offloaded frame times out: T = P_o. The asymmetric
        // clamps let the controller back off much faster than it ramps up
        // (§III-B: "reacting more forcefully to timeouts").
        let before = po;
        po = c.update(&measure(po, po)).po_target;
        let drop = before - po;
        let max_up_step = 0.1 * FS;
        assert!(
            drop > 3.0 * max_up_step,
            "first reaction cut {drop:.1} fps; expected far more than the +{max_up_step} up-step"
        );
    }

    #[test]
    fn fixed_point_when_offloading_always_fails_is_tolerance_fs() {
        // §III-A.1: "P_o will stabilize to 0.1·F_s when offloading always
        // fails" — the probe floor.
        let mut c = FrameFeedback::new();
        let mut po = 15.0;
        for _ in 0..300 {
            // Everything offloaded times out.
            po = c.update(&measure(po, po)).po_target;
        }
        assert!(
            (po - 0.1 * FS).abs() < 0.5,
            "P_o fixed point {po:.2}, expected ~{}",
            0.1 * FS
        );
    }

    #[test]
    fn tolerated_timeouts_do_not_reduce_po() {
        // T exactly at 10% of F_s gives e = 0: no movement.
        let mut c = FrameFeedback::with_config(PidConfig {
            initial_po: 20.0,
            ..Default::default()
        });
        let d = c.update(&measure(20.0, 0.1 * FS));
        assert!((d.po_target - 20.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_is_immediate_when_conditions_return() {
        // After the floor, a clean interval raises P_o again at once.
        let mut c = FrameFeedback::new();
        let mut po = 15.0;
        for _ in 0..100 {
            po = c.update(&measure(po, po)).po_target;
        }
        let floored = po;
        let recovered = c.update(&measure(po, 0.0)).po_target;
        assert!(
            recovered > floored,
            "clean interval must raise P_o ({floored} -> {recovered})"
        );
    }

    #[test]
    fn po_target_never_leaves_bounds() {
        let mut c = FrameFeedback::new();
        let mut po = 0.0;
        // Alternate savage timeouts and clean intervals.
        for i in 0..200 {
            let t = if i % 3 == 0 { po } else { 0.0 };
            po = c.update(&measure(po, t)).po_target;
            assert!((0.0..=FS).contains(&po), "P_o {po} escaped [0, F_s]");
        }
    }

    #[test]
    fn derivative_term_anticipates_error_trend() {
        // Eq. 3: with a falling error the derivative contribution is
        // negative (damping an approach), with a rising error positive
        // (reacting faster) — compare PD against P-only on the same
        // two-step error sequences.
        let second_update = |cfg: PidConfig, po_seq: [f64; 2], t_seq: [f64; 2]| {
            let mut c = FrameFeedback::with_config(PidConfig {
                initial_po: 15.0,
                ..cfg
            });
            c.update(&measure(po_seq[0], t_seq[0]));
            let before = c.po_target();
            let after = c.update(&measure(po_seq[1], t_seq[1])).po_target;
            after - before
        };
        // Falling error: P_o climbing toward F_s (e: 20 → 10).
        let p_only = second_update(PidConfig::with_gains(0.2, 0.0), [10.0, 20.0], [0.0, 0.0]);
        let pd = second_update(PidConfig::with_gains(0.2, 0.26), [10.0, 20.0], [0.0, 0.0]);
        assert!(
            pd < p_only,
            "falling error: PD step {pd:.3} must be smaller than P-only {p_only:.3}"
        );
        // Rising error magnitude under timeouts (e: −2 → −7).
        let p_only = second_update(PidConfig::with_gains(0.2, 0.0), [20.0, 20.0], [5.0, 10.0]);
        let pd = second_update(PidConfig::with_gains(0.2, 0.26), [20.0, 20.0], [5.0, 10.0]);
        assert!(
            pd < p_only,
            "rising timeout error: PD must back off harder ({pd:.3} vs {p_only:.3})"
        );
    }

    #[test]
    fn integral_term_is_available_for_the_ablation() {
        let mut c = FrameFeedback::with_config(PidConfig {
            ki: 0.05,
            ..Default::default()
        });
        let mut po = 0.0;
        for _ in 0..50 {
            po = c.update(&measure(po, 0.0)).po_target;
        }
        assert!(po > 0.0);
    }

    #[test]
    #[should_panic(expected = "update maximum")]
    fn non_positive_update_max_rejected() {
        FrameFeedback::with_config(PidConfig {
            update_max_factor: 0.0,
            ..Default::default()
        });
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(FrameFeedback::new().name(), "framefeedback");
    }

    proptest! {
        /// Invariant: the per-step change in P_o target never exceeds the
        /// Table IV clamps, and the target stays in [0, F_s].
        #[test]
        fn prop_update_clamps_hold(
            po0 in 0.0f64..30.0,
            timeouts in proptest::collection::vec(0.0f64..40.0, 1..50),
        ) {
            let mut c = FrameFeedback::with_config(PidConfig {
                initial_po: po0,
                ..Default::default()
            });
            let mut po = po0;
            for &t in &timeouts {
                let before = c.po_target();
                po = c.update(&measure(po, t)).po_target;
                let delta = po - before;
                prop_assert!(delta <= 0.1 * FS + 1e-9, "delta {delta}");
                prop_assert!(delta >= -0.5 * FS - 1e-9, "delta {delta}");
                prop_assert!((0.0..=FS).contains(&po));
            }
        }

        /// With zero timeouts and P_o below F_s, the controller never
        /// decreases the offload target (monotone ramp).
        #[test]
        fn prop_clean_conditions_never_decrease_po(po0 in 0.0f64..29.0, steps in 1usize..50) {
            let mut c = FrameFeedback::with_config(PidConfig {
                initial_po: po0,
                ..Default::default()
            });
            let mut po = po0;
            for _ in 0..steps {
                let next = c.update(&measure(po, 0.0)).po_target;
                prop_assert!(next >= po - 1e-9, "{po} -> {next}");
                po = next;
            }
        }

        /// Table IV holds at any frame rate, not just the paper's 30 fps:
        /// for arbitrary `F_s` and arbitrary measurement sequences (achieved
        /// rates and timeout rates unrelated to the actual target), every
        /// step stays inside `[−0.5·F_s, +0.1·F_s]` and the target inside
        /// `[0, F_s]`.
        #[test]
        fn prop_update_clamps_hold_for_arbitrary_fs(
            fs in 1.0f64..240.0,
            po0_frac in 0.0f64..=1.0,
            observations in proptest::collection::vec((0.0f64..=2.0, 0.0f64..=2.0), 1..50),
        ) {
            let mut c = FrameFeedback::with_config(PidConfig {
                initial_po: po0_frac * fs,
                ..Default::default()
            });
            for &(po_frac, t_frac) in &observations {
                let before = c.po_target();
                let po = c.update(&Measurement {
                    fs,
                    po_achieved: po_frac * fs,
                    pl_achieved: 13.0,
                    timeout_rate: t_frac * fs,
                    heartbeat_ok: true,
                    dt_secs: 1.0,
                }).po_target;
                let delta = po - before;
                prop_assert!(delta <= 0.1 * fs + 1e-9, "delta {delta} > +0.1·F_s at F_s={fs}");
                prop_assert!(delta >= -0.5 * fs - 1e-9, "delta {delta} < -0.5·F_s at F_s={fs}");
                prop_assert!((0.0..=fs).contains(&po), "target {po} escaped [0, {fs}]");
            }
        }

        /// §III-A.1 probe floor at any frame rate: when every offloaded
        /// frame times out (`T = P_o`, an always-failing transport), the
        /// target converges to `0.1·F_s` from any initial `P_o`. The loop
        /// dynamics are scale-invariant in `F_s` — errors, updates, and
        /// clamps all scale linearly — so the settling band is relative.
        #[test]
        fn prop_always_failing_transport_converges_to_probe_floor(
            fs in 1.0f64..240.0,
            po0_frac in 0.0f64..=1.0,
        ) {
            let mut c = FrameFeedback::with_config(PidConfig {
                initial_po: po0_frac * fs,
                ..Default::default()
            });
            let mut po = po0_frac * fs;
            for _ in 0..400 {
                po = c.update(&Measurement {
                    fs,
                    po_achieved: po,
                    pl_achieved: 0.0,
                    timeout_rate: po,
                    heartbeat_ok: false,
                    dt_secs: 1.0,
                }).po_target;
            }
            prop_assert!(
                (po - 0.1 * fs).abs() <= 0.02 * fs,
                "P_o settled at {po:.3}, probe floor is {:.3} (F_s={fs})",
                0.1 * fs
            );
        }

        /// Sustained heavy timeouts always drive P_o down toward the
        /// probe floor, never below zero.
        #[test]
        fn prop_heavy_timeouts_drive_po_down(po0 in 10.0f64..30.0) {
            let mut c = FrameFeedback::with_config(PidConfig {
                initial_po: po0,
                ..Default::default()
            });
            let mut po = po0;
            for _ in 0..200 {
                po = c.update(&measure(po, po.max(0.1))).po_target;
            }
            prop_assert!(po <= 0.1 * FS + 1.0, "did not approach floor: {po}");
            prop_assert!(po >= 0.0);
        }
    }
}
