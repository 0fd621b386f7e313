//! The controller abstraction every offloading policy implements.
//!
//! Once per measurement interval (1 s in the paper) the device feeds its
//! controller a [`Measurement`] of the last interval and receives a
//! [`Decision`]: the offload-rate target for the next interval. The
//! device loop is controller-agnostic, which is how FrameFeedback and the
//! three baselines of §IV-B run under identical conditions.
//!
//! Units are plain `f64` frames-per-second and seconds so the same
//! controller code runs in the discrete-event simulator and in the live
//! TCP mode.

/// What the device measured over the last interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Source frame rate `F_s` (frames/s).
    pub fs: f64,
    /// Achieved offloading rate `P_o`: frames actually sent to the server
    /// during the interval (frames/s).
    pub po_achieved: f64,
    /// Achieved local inference rate `P_l` (frames/s).
    pub pl_achieved: f64,
    /// End-to-end timeout rate `T`: offloaded frames whose result missed
    /// the deadline, averaged over the controller's trailing window
    /// (frames/s).
    pub timeout_rate: f64,
    /// Result of this interval's heartbeat probe (a one-frame offload used
    /// by the all-or-nothing baseline, §IV-B.3): `true` iff the probe
    /// returned before the deadline. FrameFeedback ignores it.
    pub heartbeat_ok: bool,
    /// Interval length in seconds (1.0 in the paper).
    pub dt_secs: f64,
}

impl Measurement {
    /// Validation shared by all controllers: rates must be finite and
    /// non-negative and the interval positive.
    pub fn validate(&self) {
        assert!(
            self.fs.is_finite() && self.fs > 0.0,
            "F_s must be positive, got {}",
            self.fs
        );
        for (name, v) in [
            ("po_achieved", self.po_achieved),
            ("pl_achieved", self.pl_achieved),
            ("timeout_rate", self.timeout_rate),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be >= 0, got {v}");
        }
        assert!(
            self.dt_secs.is_finite() && self.dt_secs > 0.0,
            "dt must be positive, got {}",
            self.dt_secs
        );
    }
}

/// The controller's output: targets for the next interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Offload-rate target `P_o` in frames/s, guaranteed in `[0, F_s]`.
    pub po_target: f64,
}

/// An offloading policy (FrameFeedback or a baseline).
///
/// `Send` is a supertrait so boxed controllers can move into worker
/// threads: the sharded fleet driver owns one controller per device
/// inside per-shard simulation state that lives on its own thread.
pub trait Controller: Send {
    /// Short name used in experiment output ("framefeedback", "local", ...).
    fn name(&self) -> &'static str;

    /// Consume one interval's measurement; produce the next targets.
    fn update(&mut self, m: &Measurement) -> Decision;

    /// The current offload-rate target without updating.
    fn po_target(&self) -> f64;

    /// Unused: no host resets a controller, since every run builds its
    /// own (`ControllerSpec::build`). The empty default stays only
    /// because `benchmark/src/layers.rs` still defines it; it goes with
    /// the next change to the benchmark (ROADMAP item 9).
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> Measurement {
        Measurement {
            fs: 30.0,
            po_achieved: 10.0,
            pl_achieved: 13.0,
            timeout_rate: 0.0,
            heartbeat_ok: true,
            dt_secs: 1.0,
        }
    }

    #[test]
    fn valid_measurement_passes() {
        valid().validate();
    }

    #[test]
    #[should_panic(expected = "F_s")]
    fn zero_fs_rejected() {
        let mut m = valid();
        m.fs = 0.0;
        m.validate();
    }

    #[test]
    #[should_panic(expected = "timeout_rate")]
    fn negative_timeout_rejected() {
        let mut m = valid();
        m.timeout_rate = -1.0;
        m.validate();
    }

    #[test]
    #[should_panic(expected = "dt")]
    fn zero_dt_rejected() {
        let mut m = valid();
        m.dt_secs = 0.0;
        m.validate();
    }

    #[test]
    #[should_panic(expected = "po_achieved")]
    fn nan_po_rejected() {
        let mut m = valid();
        m.po_achieved = f64::NAN;
        m.validate();
    }
}
