//! # ff-baselines — the comparison controllers of §IV-B
//!
//! Three policies evaluated against FrameFeedback under identical
//! conditions:
//!
//! * [`LocalOnly`] — never offload; classify everything on-device,
//! * [`AlwaysOffload`] — offload every frame regardless of feedback,
//! * [`AllOrNothing`] — the DeepDecision-style interval policy: each
//!   measurement step, offload *all* frames iff this interval's heartbeat
//!   probe returned before the deadline, else go fully local.
//!
//! All three implement `ff_core::Controller`, so the device loop treats
//! them exactly like FrameFeedback.

#![warn(missing_docs)]

use ff_core::{Controller, Decision, Measurement};

/// §IV-B.1: local execution only. "Undesirable due to the low throughput
/// and high power usage of computing Image Classification on Raspberry
/// Pis", but the floor every other policy must beat.
#[derive(Debug, Clone, Default)]
pub struct LocalOnly;

impl LocalOnly {
    /// The local-only policy (stateless).
    pub fn new() -> Self {
        LocalOnly
    }
}

impl Controller for LocalOnly {
    fn name(&self) -> &'static str {
        "local-only"
    }

    fn update(&mut self, m: &Measurement) -> Decision {
        m.validate();
        Decision { po_target: 0.0 }
    }

    fn po_target(&self) -> f64 {
        0.0
    }
}

/// §IV-B.2: offload every frame at all times. "Since we disregard any
/// feedback, it is unlikely that this solution will be optimal unless the
/// system conditions are perfect."
#[derive(Debug, Clone, Default)]
pub struct AlwaysOffload {
    fs: f64,
}

impl AlwaysOffload {
    /// The always-offload policy.
    pub fn new() -> Self {
        AlwaysOffload { fs: 0.0 }
    }
}

impl Controller for AlwaysOffload {
    fn name(&self) -> &'static str {
        "always-offload"
    }

    fn update(&mut self, m: &Measurement) -> Decision {
        m.validate();
        self.fs = m.fs;
        Decision { po_target: m.fs }
    }

    fn po_target(&self) -> f64 {
        self.fs
    }
}

/// §IV-B.3: the all-or-nothing interval policy mimicking DeepDecision.
///
/// "At each measurement step (1 second) \[decide\] whether to offload all
/// frames in that interval or to classify frames locally. To make this
/// decision, we ... send a heartbeat request to profile the latency. If
/// the request is successful (returns before the deadline), we deem the
/// conditions sufficient for offloading."
#[derive(Debug, Clone)]
pub struct AllOrNothing {
    po_target: f64,
}

impl Default for AllOrNothing {
    fn default() -> Self {
        Self::new()
    }
}

impl AllOrNothing {
    /// The interval policy; starts local until a heartbeat succeeds.
    pub fn new() -> Self {
        // Until the first heartbeat answer arrives, stay local: the policy
        // has no evidence that offloading works.
        AllOrNothing { po_target: 0.0 }
    }
}

impl Controller for AllOrNothing {
    fn name(&self) -> &'static str {
        "all-or-nothing"
    }

    fn update(&mut self, m: &Measurement) -> Decision {
        m.validate();
        self.po_target = if m.heartbeat_ok { m.fs } else { 0.0 };
        Decision {
            po_target: self.po_target,
        }
    }

    fn po_target(&self) -> f64 {
        self.po_target
    }
}

/// A fixed-rate policy: offload at a constant target forever. Not a
/// deployable controller (it knows nothing), but the building block of
/// the clairvoyant-oracle regret analysis: grid-searching `Fixed(po)`
/// under constant conditions finds the best static rate those conditions
/// admit.
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    po: f64,
}

impl Fixed {
    /// A policy pinned at `po_target` frames/s (clamped to `F_s` at
    /// update time).
    pub fn new(po_target: f64) -> Self {
        assert!(
            po_target.is_finite() && po_target >= 0.0,
            "fixed target must be finite and non-negative"
        );
        Fixed { po: po_target }
    }
}

impl Controller for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn update(&mut self, m: &Measurement) -> Decision {
        m.validate();
        Decision {
            po_target: self.po.min(m.fs),
        }
    }

    fn po_target(&self) -> f64 {
        self.po
    }
}

/// An AIMD (additive-increase, multiplicative-decrease) controller — the
/// TCP-congestion-control answer to the same problem, included as an
/// *extra* comparison point beyond the paper's three baselines. Each
/// clean interval adds `increase` fps; any interval with timeouts above
/// the tolerance halves the rate. AIMD reacts as forcefully as
/// FrameFeedback but, lacking the proportional term, climbs back at a
/// fixed crawl regardless of how far conditions are from the target.
#[derive(Debug, Clone)]
pub struct Aimd {
    /// Additive step per clean interval (frames/s).
    pub increase: f64,
    /// Multiplicative factor on timeout (0 < decrease < 1).
    pub decrease: f64,
    /// Tolerated timeout rate as a fraction of `F_s` (matches
    /// FrameFeedback's 0.1 for a fair comparison).
    pub tolerance: f64,
    po_target: f64,
}

impl Default for Aimd {
    fn default() -> Self {
        Self::new()
    }
}

impl Aimd {
    /// AIMD with TCP-Reno-style defaults (+1 fps / ×0.5) and the same 10%
    /// timeout tolerance as FrameFeedback.
    pub fn new() -> Self {
        Aimd {
            increase: 1.0,
            decrease: 0.5,
            tolerance: 0.1,
            po_target: 0.0,
        }
    }
}

impl Controller for Aimd {
    fn name(&self) -> &'static str {
        "aimd"
    }

    fn update(&mut self, m: &Measurement) -> Decision {
        m.validate();
        if m.timeout_rate > self.tolerance * m.fs {
            self.po_target *= self.decrease;
        } else {
            self.po_target += self.increase;
        }
        self.po_target = self.po_target.clamp(0.0, m.fs);
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

    fn measure(heartbeat_ok: bool, timeout_rate: f64) -> Measurement {
        Measurement {
            fs: 30.0,
            po_achieved: 10.0,
            pl_achieved: 13.0,
            timeout_rate,
            heartbeat_ok,
            dt_secs: 1.0,
        }
    }

    #[test]
    fn local_only_never_offloads() {
        let mut c = LocalOnly::new();
        for t in [0.0, 30.0] {
            let d = c.update(&measure(true, t));
            assert_eq!(d.po_target, 0.0);
        }
        assert_eq!(c.po_target(), 0.0);
        assert_eq!(c.name(), "local-only");
    }

    #[test]
    fn always_offload_targets_fs_regardless_of_timeouts() {
        let mut c = AlwaysOffload::new();
        let d = c.update(&measure(false, 30.0));
        assert_eq!(d.po_target, 30.0);
        assert_eq!(c.po_target(), 30.0);
    }

    #[test]
    fn all_or_nothing_follows_the_heartbeat() {
        let mut c = AllOrNothing::new();
        assert_eq!(c.po_target(), 0.0, "starts local");
        assert_eq!(c.update(&measure(true, 0.0)).po_target, 30.0);
        assert_eq!(c.update(&measure(false, 0.0)).po_target, 0.0);
        assert_eq!(c.update(&measure(true, 25.0)).po_target, 30.0, "ignores T");
    }

    #[test]
    fn all_or_nothing_is_binary() {
        let mut c = AllOrNothing::new();
        for ok in [true, false, true, true, false] {
            let d = c.update(&measure(ok, 1.0));
            assert!(d.po_target == 0.0 || d.po_target == 30.0);
        }
    }

    #[test]
    fn aimd_increases_additively_and_decreases_multiplicatively() {
        let mut c = Aimd::new();
        assert_eq!(c.update(&measure(true, 0.0)).po_target, 1.0);
        assert_eq!(c.update(&measure(true, 0.0)).po_target, 2.0);
        // Tolerated timeouts (<= 10% of F_s) still count as clean.
        assert_eq!(c.update(&measure(true, 3.0)).po_target, 3.0);
        // Above tolerance: halve.
        assert_eq!(c.update(&measure(true, 10.0)).po_target, 1.5);
    }

    #[test]
    fn aimd_stays_within_bounds() {
        let mut c = Aimd::new();
        for _ in 0..100 {
            let po = c.update(&measure(true, 0.0)).po_target;
            assert!(po <= 30.0);
        }
        assert_eq!(c.po_target(), 30.0);
        for _ in 0..100 {
            let po = c.update(&measure(true, 30.0)).po_target;
            assert!(po >= 0.0);
        }
    }

    #[test]
    fn fixed_controller_holds_its_rate_clamped_to_fs() {
        let mut c = Fixed::new(17.0);
        assert_eq!(c.update(&measure(true, 0.0)).po_target, 17.0);
        assert_eq!(c.update(&measure(false, 30.0)).po_target, 17.0);
        let mut over = Fixed::new(99.0);
        assert_eq!(over.update(&measure(true, 0.0)).po_target, 30.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn fixed_rejects_nan() {
        Fixed::new(f64::NAN);
    }

    #[test]
    fn baselines_validate_measurements_too() {
        let mut m = measure(true, 0.0);
        m.fs = -1.0;
        let controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(ff_core::FrameFeedback::new()),
            Box::new(LocalOnly::new()),
            Box::new(AlwaysOffload::new()),
            Box::new(AllOrNothing::new()),
        ];
        for mut c in controllers {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.update(&m);
            }));
            assert!(
                result.is_err(),
                "controller accepted an invalid measurement"
            );
        }
    }
}
