//! Accuracy-aware model selection.
//!
//! The paper's runtime always offloads to the large remote model when
//! the splitter says "offload" ([`ModelSelection::AlwaysPaper`]). The
//! content-aware extension adds [`ModelSelection::ExpectedAccuracy`]: a
//! per-frame choice between the small on-device model and the large
//! remote one, maximising *expected* accuracy — the remote model is
//! better on paper (Table III), but a remote inference that misses its
//! deadline contributes nothing, so under high deadline risk the local
//! model's guaranteed answer wins.
//!
//! House contract: `AlwaysPaper` is the serde default and does zero
//! extra work per frame (not even a rate-estimator read), so legacy
//! runs are bit-identical to the pre-selection runtime — pinned by
//! `tests/content_inert.rs`.

use serde::{Deserialize, Serialize};

/// Which model answers a frame routed to "offload" by the splitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ModelSelection {
    /// Always use the remote model, exactly as in the paper.
    #[default]
    AlwaysPaper,
    /// Offload only when the remote model's accuracy, discounted by the
    /// current deadline risk, still beats the local model's.
    ExpectedAccuracy {
        /// Hysteresis margin: offloading must win by at least this much
        /// expected accuracy, so borderline frames stay local rather
        /// than flapping with the risk estimate.
        margin: f64,
    },
}

impl ModelSelection {
    /// Whether a splitter "offload" verdict should be demoted to local
    /// inference, given run-constant model accuracies and the current
    /// deadline-risk estimate (probability an offload misses its
    /// deadline, in `[0, 1]`).
    ///
    /// Expected accuracy of offloading is `remote · (1 − risk)`: a
    /// timed-out frame scores zero. The local model always answers in
    /// time, so its expected accuracy is just `local`.
    pub(crate) fn prefers_local(
        &self,
        local_accuracy: f64,
        remote_accuracy: f64,
        risk: f64,
    ) -> bool {
        match *self {
            ModelSelection::AlwaysPaper => false,
            ModelSelection::ExpectedAccuracy { margin } => {
                remote_accuracy * (1.0 - risk) < local_accuracy + margin
            }
        }
    }

    /// Stable wire code for the trace header (schema v2).
    pub(crate) fn code(&self) -> u8 {
        match self {
            ModelSelection::AlwaysPaper => 0,
            ModelSelection::ExpectedAccuracy { .. } => 1,
        }
    }

    /// The hysteresis margin, or 0 for the legacy policy.
    pub(crate) fn margin(&self) -> f64 {
        match *self {
            ModelSelection::AlwaysPaper => 0.0,
            ModelSelection::ExpectedAccuracy { margin } => margin,
        }
    }

    /// Rebuild from the trace-header wire pair. `None` for unknown codes.
    pub(crate) fn from_code(code: u8, margin: f64) -> Option<Self> {
        match code {
            0 => Some(ModelSelection::AlwaysPaper),
            1 => Some(ModelSelection::ExpectedAccuracy { margin }),
            _ => None,
        }
    }
}

/// Deadline risk from the windowed timeout rate and the offload-rate
/// target: the fraction of recent offloads that timed out, clamped to
/// a probability. The `max(1)` floor keeps the estimate finite when the
/// controller has throttled the target to zero.
pub(crate) fn deadline_risk(timeout_rate: f64, po_target: f64) -> f64 {
    (timeout_rate / po_target.max(1.0)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_paper_never_demotes() {
        let s = ModelSelection::AlwaysPaper;
        assert!(!s.prefers_local(0.99, 0.01, 1.0));
        assert!(!s.prefers_local(0.68, 0.77, 0.0));
    }

    #[test]
    fn expected_accuracy_demotes_exactly_when_discounted_remote_loses() {
        let s = ModelSelection::ExpectedAccuracy { margin: 0.0 };
        // Table III-ish: local 0.68, remote 0.77.
        assert!(!s.prefers_local(0.68, 0.77, 0.0)); // healthy: offload
        assert!(s.prefers_local(0.68, 0.77, 0.5)); // 0.385 < 0.68: local
                                                   // Break-even risk is 1 - 0.68/0.77 ≈ 0.1169.
        assert!(!s.prefers_local(0.68, 0.77, 0.11));
        assert!(s.prefers_local(0.68, 0.77, 0.12));
    }

    #[test]
    fn margin_shifts_the_break_even_point() {
        let none = ModelSelection::ExpectedAccuracy { margin: 0.0 };
        let some = ModelSelection::ExpectedAccuracy { margin: 0.05 };
        assert!(!none.prefers_local(0.68, 0.77, 0.08));
        assert!(some.prefers_local(0.68, 0.77, 0.08));
    }

    #[test]
    fn risk_estimate_is_a_probability() {
        assert_eq!(deadline_risk(0.0, 4.0), 0.0);
        assert_eq!(deadline_risk(2.0, 4.0), 0.5);
        assert_eq!(deadline_risk(9.0, 4.0), 1.0);
        // Throttled target: floor the divisor rather than divide by zero.
        assert_eq!(deadline_risk(0.5, 0.0), 0.5);
    }

    #[test]
    fn wire_codes_round_trip() {
        for s in [
            ModelSelection::AlwaysPaper,
            ModelSelection::ExpectedAccuracy { margin: 0.05 },
        ] {
            assert_eq!(ModelSelection::from_code(s.code(), s.margin()), Some(s));
        }
        assert_eq!(ModelSelection::from_code(9, 0.0), None);
    }

    #[test]
    fn serde_default_is_the_legacy_policy() {
        assert_eq!(ModelSelection::default(), ModelSelection::AlwaysPaper);
    }
}
