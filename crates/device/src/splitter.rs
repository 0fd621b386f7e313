//! Frame-level actuation of the controller's offload rate.
//!
//! The controller outputs a *rate* (`P_o` frames/s); the device must turn
//! it into per-frame offload/local decisions. A credit (token-bucket)
//! splitter does this deterministically and with zero long-run bias: each
//! captured frame earns `po_target / F_s` credits, and a frame is
//! offloaded exactly when a whole credit is available.

/// Per-frame routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Send this frame to the edge server.
    Offload,
    /// Hand this frame to the local inference engine (which may drop it if
    /// busy — that is the engine's concern, not the splitter's).
    Local,
}

/// Credit-based deterministic rate splitter.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameSplitter {
    credit: f64,
}

impl FrameSplitter {
    /// A splitter with zero accumulated credit.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Route one captured frame from a pre-computed credit increment
    /// (`po_target / fs`). Callers route at frame rate, so they compute
    /// the division once per target update and validate it there.
    pub(crate) fn advance(&mut self, incr: f64) -> Route {
        self.credit += incr;
        if self.credit >= 1.0 {
            self.credit -= 1.0;
            Route::Offload
        } else {
            Route::Local
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl FrameSplitter {
        /// Route one frame at offload target `po_target` of `fs`, as the
        /// runtime does with its precomputed increment.
        fn route(&mut self, po_target: f64, fs: f64) -> Route {
            self.advance(po_target / fs)
        }
    }

    fn offload_count(po: f64, fs: f64, frames: usize) -> usize {
        let mut s = FrameSplitter::new();
        (0..frames)
            .filter(|_| s.route(po, fs) == Route::Offload)
            .count()
    }

    #[test]
    fn zero_target_never_offloads() {
        assert_eq!(offload_count(0.0, 30.0, 300), 0);
    }

    #[test]
    fn full_target_always_offloads() {
        assert_eq!(offload_count(30.0, 30.0, 300), 300);
    }

    #[test]
    fn half_target_offloads_every_other_frame() {
        let mut s = FrameSplitter::new();
        let routes: Vec<Route> = (0..10).map(|_| s.route(15.0, 30.0)).collect();
        // Credit 0.5, 1.0→offload, 0.5, 1.0→offload...
        assert_eq!(routes.iter().filter(|r| **r == Route::Offload).count(), 5);
        // Offloads are evenly spaced, not bursty.
        let positions: Vec<usize> = routes
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Route::Offload)
            .map(|(i, _)| i)
            .collect();
        for w in positions.windows(2) {
            assert_eq!(w[1] - w[0], 2, "offloads must alternate");
        }
    }

    #[test]
    fn long_run_rate_matches_target() {
        for po in [3.0, 7.5, 13.0, 22.1, 29.0] {
            let n = 3_000;
            let got = offload_count(po, 30.0, n) as f64;
            let expected = po / 30.0 * n as f64;
            assert!(
                (got - expected).abs() <= 1.0,
                "target {po}: offloaded {got} of {n}, expected {expected}"
            );
        }
    }

    #[test]
    fn rate_changes_apply_smoothly() {
        let mut s = FrameSplitter::new();
        let mut offloads = 0;
        for _ in 0..30 {
            if s.route(30.0, 30.0) == Route::Offload {
                offloads += 1;
            }
        }
        assert_eq!(offloads, 30);
        for _ in 0..30 {
            if s.route(0.0, 30.0) == Route::Offload {
                offloads += 1;
            }
        }
        assert_eq!(offloads, 30, "no stale credit after target drops to 0");
    }

    proptest! {
        /// Over any horizon, the offloaded count differs from the ideal
        /// fluid count by at most one frame (zero long-run bias).
        #[test]
        fn prop_credit_splitter_is_unbiased(
            po_frac in 0.0f64..=1.0,
            frames in 1usize..2_000,
        ) {
            let fs = 30.0;
            let po = po_frac * fs;
            let got = offload_count(po, fs, frames) as f64;
            let ideal = po / fs * frames as f64;
            prop_assert!((got - ideal).abs() <= 1.0, "got {got}, ideal {ideal}");
        }

        /// Rate conservation for arbitrary `F_s` and per-frame targets:
        /// every frame gets exactly one route, so the achieved split
        /// satisfies `P_o + P_l = F_s`, and the offloaded share never
        /// exceeds the credit actually earned (`P_o ≤ Σ target/F_s`,
        /// rounded up) — i.e. `P_o + P_l ≤ F_s` with no over-offload.
        #[test]
        fn prop_achieved_split_conserves_capture_rate(
            fs in 1.0f64..120.0,
            targets in proptest::collection::vec(0.0f64..=1.0, 1..500),
        ) {
            let mut s = FrameSplitter::new();
            let mut offloads = 0usize;
            let mut locals = 0usize;
            let mut earned = 0.0;
            for frac in &targets {
                let po = frac * fs;
                earned += po / fs;
                match s.route(po, fs) {
                    Route::Offload => offloads += 1,
                    Route::Local => locals += 1,
                }
            }
            prop_assert_eq!(offloads + locals, targets.len());
            prop_assert!(
                (offloads as f64) <= earned + 1e-6,
                "offloaded {} frames but only earned {:.6} credits",
                offloads, earned
            );
        }

        /// The credit balance is never negative and never reaches a whole
        /// frame after routing (a full credit is always spent immediately),
        /// for arbitrary `F_s` and any target sequence.
        #[test]
        fn prop_credit_stays_in_unit_interval(
            fs in 1.0f64..120.0,
            targets in proptest::collection::vec(0.0f64..=1.0, 1..500),
        ) {
            let mut s = FrameSplitter::new();
            for frac in &targets {
                s.route(frac * fs, fs);
                prop_assert!(
                    (0.0..1.0).contains(&s.credit),
                    "credit {} escaped [0, 1)", s.credit
                );
            }
        }

        /// Credits are conserved across control-interval boundaries: the
        /// fractional credit left when the target changes carries into the
        /// next interval, so `offloads + credit == Σ target/F_s` exactly
        /// (up to float error) no matter where the boundary falls.
        #[test]
        fn prop_credits_conserved_across_interval_boundaries(
            fs in 1.0f64..120.0,
            first_frac in 0.0f64..=1.0,
            second_frac in 0.0f64..=1.0,
            first_len in 1usize..300,
            second_len in 1usize..300,
        ) {
            let mut s = FrameSplitter::new();
            let mut offloads = 0usize;
            for (frac, len) in [(first_frac, first_len), (second_frac, second_len)] {
                for _ in 0..len {
                    if s.route(frac * fs, fs) == Route::Offload {
                        offloads += 1;
                    }
                }
            }
            let earned = first_frac * first_len as f64 + second_frac * second_len as f64;
            prop_assert!(
                (offloads as f64 + s.credit - earned).abs() < 1e-6,
                "offloads {} + credit {:.9} != earned {:.9}",
                offloads, s.credit, earned
            );
        }
    }
}
