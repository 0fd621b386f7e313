//! Network condition descriptors (the knobs NetEm turns in §IV-C.1).

use serde::{Deserialize, Serialize};

/// Network conditions in force on a link (Table V columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConditions {
    /// Link bandwidth in Mbps.
    ///
    /// Table V prints "kbps", but the schedule's values (1–10) only
    /// reproduce Figure 3's three regimes at Mbps scale — see DESIGN.md,
    /// "Unit calibration note".
    pub bandwidth_mbps: f64,
    /// Packet loss probability in percent (applied per MTU-sized packet).
    pub loss_pct: f64,
}

impl NetworkConditions {
    /// Validated conditions.
    pub fn new(bandwidth_mbps: f64, loss_pct: f64) -> Self {
        let conditions = NetworkConditions {
            bandwidth_mbps,
            loss_pct,
        };
        if let Err(why) = conditions.check() {
            panic!("{why}");
        }
        conditions
    }

    /// Why these conditions cannot drive a link, if they cannot: the
    /// checks of [`Self::new`], for values that bypassed it (a schedule
    /// read from JSON).
    pub fn check(&self) -> Result<(), String> {
        let (bandwidth, loss) = (self.bandwidth_mbps, self.loss_pct);
        if !(bandwidth > 0.0 && bandwidth.is_finite()) {
            return Err(format!(
                "bandwidth must be positive and finite, got {bandwidth}"
            ));
        }
        if !(0.0..=100.0).contains(&loss) {
            return Err(format!("loss must be a percentage in [0, 100], got {loss}"));
        }
        Ok(())
    }

    /// The ideal condition used before degradation phases: 10 Mbps, no loss.
    pub fn ideal() -> Self {
        NetworkConditions::new(10.0, 0.0)
    }

    /// Loss probability as a fraction in `[0, 1]`.
    pub(crate) fn loss_probability(&self) -> f64 {
        self.loss_pct / 100.0
    }

    /// Seconds needed to serialize `bytes` onto the link.
    pub(crate) fn serialization_secs(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / (self.bandwidth_mbps * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_scales_with_bytes_and_bandwidth() {
        let c = NetworkConditions::new(10.0, 0.0);
        // 1.25 MB at 10 Mbps = 1 s.
        assert!((c.serialization_secs(1_250_000) - 1.0).abs() < 1e-9);
        let slow = NetworkConditions::new(1.0, 0.0);
        assert!((slow.serialization_secs(1_250_000) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn loss_probability_is_a_fraction() {
        assert_eq!(NetworkConditions::new(1.0, 7.0).loss_probability(), 0.07);
        assert_eq!(NetworkConditions::ideal().loss_probability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        NetworkConditions::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "loss")]
    fn over_100pct_loss_rejected() {
        NetworkConditions::new(1.0, 101.0);
    }
}
