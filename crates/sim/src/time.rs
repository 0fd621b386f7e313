//! Simulated time.
//!
//! All simulation time is kept as an integer number of **microseconds** so
//! that event ordering is exact and runs are bit-reproducible. Floating
//! point only appears at the edges (configuration in seconds, reporting in
//! seconds) and is converted through the checked constructors here.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in microseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

/// Microseconds per second.
pub(crate) const MICROS_PER_SEC: u64 = 1_000_000;
/// Microseconds per millisecond.
pub(crate) const MICROS_PER_MILLI: u64 = 1_000;

/// `x.round() as u64` for finite non-negative `x`, without the libm
/// call — on baseline x86-64, `f64::round` compiles to a library call,
/// and the float→time conversions run several times per simulated frame.
///
/// Bit-identical to `x.round() as u64` on this domain: `x as u64`
/// truncates toward zero, the remainder `x - t` is exact (Sterbenz for
/// `t ≥ 1`, trivial for `t = 0`), and rounding half away from zero on a
/// non-negative value is exactly "add one when the remainder reaches
/// one half". At or above 2^53 every representable value is an integer,
/// so the cast alone (which saturates like `round() as u64`) suffices.
#[inline]
pub fn round_nonneg_f64(x: f64) -> u64 {
    debug_assert!(x >= 0.0, "round_nonneg_f64 requires non-negative input");
    if x < (1u64 << 53) as f64 {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x as u64
    }
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Build an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Build an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MICROS_PER_MILLI)
    }

    /// Build an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Build an instant from fractional seconds, rounding to the nearest
    /// microsecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimTime::from_secs_f64 requires finite non-negative seconds, got {s}"
        );
        SimTime(round_nonneg_f64(s * MICROS_PER_SEC as f64))
    }

    /// Raw microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MILLI
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub(crate) fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Build a span from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Build a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MILLI)
    }

    /// Build a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Build a span from fractional seconds, rounding to the nearest
    /// microsecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimDuration::from_secs_f64 requires finite non-negative seconds, got {s}"
        );
        SimDuration(round_nonneg_f64(s * MICROS_PER_SEC as f64))
    }

    /// The span in raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MILLI
    }

    /// The span in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whether the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply the span by a non-negative factor, rounding to the nearest
    /// microsecond. Panics on negative or non-finite factors.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64 requires a finite non-negative factor, got {factor}"
        );
        SimDuration(round_nonneg_f64(self.0 as f64 * factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: instant + duration exceeded u64 microseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: duration larger than instant"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction would be negative; use saturating_since"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration overflow in multiplication"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(250).as_micros(), 250_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn float_conversion_rounds_to_nearest_microsecond() {
        assert_eq!(SimTime::from_secs_f64(1.000_000_4).as_micros(), 1_000_000);
        assert_eq!(SimTime::from_secs_f64(1.000_000_6).as_micros(), 1_000_001);
        let t = SimDuration::from_secs_f64(0.25);
        assert_eq!(t.as_millis(), 250);
    }

    #[test]
    fn fast_round_matches_libm_round_at_the_edges() {
        // The classic double-rounding trap: the largest f64 below 0.5.
        // `floor(x + 0.5)`-style rewrites get this wrong; the remainder
        // comparison must not.
        let just_under_half = f64::from_bits(0.5_f64.to_bits() - 1);
        let cases = [
            0.0,
            just_under_half,
            0.5,
            0.999_999_999_999_999_9,
            1.5,
            2.5,
            (1u64 << 52) as f64 + 0.5,
            (1u64 << 53) as f64 - 1.0,
            (1u64 << 53) as f64,
            1e300,
            f64::MAX,
        ];
        for x in cases {
            assert_eq!(
                round_nonneg_f64(x),
                x.round() as u64,
                "round_nonneg_f64 diverged from f64::round at {x:e}"
            );
        }
    }

    proptest::proptest! {
        /// Differential check over the full non-negative finite domain:
        /// the libm-free rounding used by the hot-path conversions is
        /// bit-identical to `f64::round`.
        #[test]
        fn prop_fast_round_matches_libm_round(bits in proptest::prelude::any::<u64>()) {
            let x = f64::from_bits(bits).abs();
            if x.is_finite() {
                proptest::prelude::prop_assert_eq!(round_nonneg_f64(x), x.round() as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs_f64(-0.1);
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d).as_millis(), 11_500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2, t + d);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_instant_subtraction_panics() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        let _ = a - b;
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_millis(25));
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(250));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(5).to_string(), "0.000005s");
    }

    #[test]
    fn ordering_matches_numeric_order() {
        let mut v = vec![
            SimTime::from_secs(2),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(2)
            ]
        );
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_micros(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }
}
