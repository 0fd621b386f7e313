//! Device CPU-usage model (the §II-A.5 energy observation).
//!
//! The paper measures: "Raspberry Pi CPU usage drops from 50.2% to 22.3%
//! on average when transitioning from local execution to offloading."
//! We model device CPU as a base (capture + JPEG encode + OS) plus a
//! local-inference component proportional to the engine's busy fraction
//! plus a small networking component proportional to the offload share.
//! The two coefficients are calibrated so the model reproduces both of
//! the paper's endpoints exactly.

/// CPU usage model calibrated to the paper's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CpuModel {
    /// Always-on share: capture, encode, OS (percent).
    pub base_pct: f64,
    /// Added at 100% local-inference busy fraction (percent).
    pub local_coeff_pct: f64,
    /// Added at full offloading (`P_o = F_s`): serialization + TCP stack
    /// (percent).
    pub offload_coeff_pct: f64,
}

impl Default for CpuModel {
    /// Calibration: local-only (busy=1, offload=0) → 50.2%;
    /// full offloading (busy=0, offload share=1) → 22.3%.
    fn default() -> Self {
        CpuModel {
            base_pct: 15.0,
            local_coeff_pct: 35.2,
            offload_coeff_pct: 7.3,
        }
    }
}

impl CpuModel {
    /// Predicted average CPU usage in percent.
    ///
    /// * `local_busy_fraction` — fraction of time the inference engine
    ///   computed (0..=1),
    /// * `offload_share` — offloaded frames as a fraction of `F_s` (0..=1).
    pub(crate) fn usage_pct(&self, local_busy_fraction: f64, offload_share: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&local_busy_fraction),
            "busy fraction must be in [0, 1], got {local_busy_fraction}"
        );
        assert!(
            (0.0..=1.0 + 1e-9).contains(&offload_share),
            "offload share must be in [0, 1], got {offload_share}"
        );
        self.base_pct
            + self.local_coeff_pct * local_busy_fraction
            + self.offload_coeff_pct * offload_share
    }
}

/// Device power/energy model (the §II-A.5 energy remark, quantified).
///
/// The paper observes that "effective offloading leads to lower power
/// usage on edge devices" but does not measure power. A Raspberry Pi 4B
/// draws ~2.7 W idle and ~6.4 W under full 4-core load; power scales
/// approximately linearly with CPU utilization between those points, so
/// we map the calibrated CPU model onto that line and derive
/// energy-per-inference — the metric an energy-constrained deployment
/// would actually optimize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Power at 0% CPU (watts). Pi 4B measured idle draw.
    pub idle_watts: f64,
    /// Additional power at 100% CPU (watts).
    pub dynamic_watts: f64,
    /// The CPU model translating activity into utilization.
    pub(crate) cpu: CpuModel,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            idle_watts: 2.7,
            dynamic_watts: 3.7,
            cpu: CpuModel::default(),
        }
    }
}

impl EnergyModel {
    /// Average device power in watts for the given operating point.
    pub fn power_watts(&self, local_busy_fraction: f64, offload_share: f64) -> f64 {
        let cpu = self.cpu.usage_pct(local_busy_fraction, offload_share);
        self.idle_watts + self.dynamic_watts * (cpu / 100.0)
    }

    /// Energy per successful inference in joules: average power divided by
    /// the achieved throughput. Returns `None` for zero throughput.
    pub fn joules_per_inference(
        &self,
        local_busy_fraction: f64,
        offload_share: f64,
        throughput_fps: f64,
    ) -> Option<f64> {
        assert!(
            throughput_fps >= 0.0 && throughput_fps.is_finite(),
            "throughput must be finite and non-negative"
        );
        (throughput_fps > 0.0)
            .then(|| self.power_watts(local_busy_fraction, offload_share) / throughput_fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_only_endpoint_matches_paper() {
        let m = CpuModel::default();
        assert!((m.usage_pct(1.0, 0.0) - 50.2).abs() < 1e-9);
    }

    #[test]
    fn full_offload_endpoint_matches_paper() {
        let m = CpuModel::default();
        assert!((m.usage_pct(0.0, 1.0) - 22.3).abs() < 1e-9);
    }

    #[test]
    fn offloading_always_cheaper_than_local() {
        let m = CpuModel::default();
        assert!(m.usage_pct(0.0, 1.0) < m.usage_pct(1.0, 0.0));
        // Mixed operation lies between the endpoints.
        let mixed = m.usage_pct(0.5, 0.5);
        assert!(mixed > m.usage_pct(0.0, 1.0) && mixed < m.usage_pct(1.0, 0.0));
    }

    #[test]
    fn idle_device_is_just_the_base() {
        let m = CpuModel::default();
        assert_eq!(m.usage_pct(0.0, 0.0), m.base_pct);
    }

    #[test]
    #[should_panic(expected = "busy fraction")]
    fn out_of_range_busy_fraction_panics() {
        CpuModel::default().usage_pct(1.5, 0.0);
    }

    #[test]
    fn power_interpolates_between_idle_and_full_load() {
        let e = EnergyModel::default();
        let idle = e.power_watts(0.0, 0.0);
        let local = e.power_watts(1.0, 0.0);
        let offload = e.power_watts(0.0, 1.0);
        assert!(idle > 2.7 && idle < 4.0, "idle-ish draw {idle}");
        assert!(
            local > offload,
            "local {local} W must exceed offloading {offload} W"
        );
        assert!(local < 6.4 + 1e-9, "cannot exceed full-load draw");
    }

    #[test]
    fn offloading_is_more_energy_efficient_per_inference() {
        // The real payoff: local-only does ~13 fps at high power;
        // offloading does ~30 fps at low power.
        let e = EnergyModel::default();
        let local = e.joules_per_inference(1.0, 0.0, 13.0).unwrap();
        let offload = e.joules_per_inference(0.0, 1.0, 30.0).unwrap();
        assert!(
            offload < local / 2.0,
            "offloading {offload:.3} J/inf should be far below local {local:.3} J/inf"
        );
    }

    #[test]
    fn zero_throughput_yields_no_energy_figure() {
        assert!(EnergyModel::default()
            .joules_per_inference(0.0, 0.0, 0.0)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "throughput")]
    fn negative_throughput_panics() {
        EnergyModel::default().joules_per_inference(0.0, 0.0, -1.0);
    }
}
