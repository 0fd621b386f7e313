//! Background (multi-tenant) traffic generation.
//!
//! In the Table VI experiment, "other devices ... inject request volume"
//! (§IV-C.2). We model that injected volume as a Poisson process whose
//! rate follows the Table VI schedule: memoryless arrivals are the
//! standard model for the superposition of many independent clients.
//!
//! [`PoissonArrivals`] samples the gaps at the rate in force;
//! [`Background`] is one run's whole process, driven by the host that
//! owns the tier.

use crate::server::{Request, TenantId};
use ff_models::ModelKind;
use ff_sim::{SimDuration, SimTime};
use rand::Rng;

/// First tag of the background-tenant range: request `seq` of a run's
/// background process is tagged `BACKGROUND_TAG_BASE + seq`.
pub const BACKGROUND_TAG_BASE: u64 = 1 << 61;

/// Samples Poisson arrival gaps for the aggregate background load.
#[derive(Debug, Clone)]
pub(crate) struct PoissonArrivals<R: Rng> {
    rng: R,
}

impl<R: Rng> PoissonArrivals<R> {
    /// A sampler drawing gaps from `rng`.
    pub(crate) fn new(rng: R) -> Self {
        PoissonArrivals { rng }
    }

    /// The next arrival after `now` at `rate_per_sec`, or `None` when the
    /// rate is zero (the caller should re-poll at the next schedule step).
    pub(crate) fn next_after(&mut self, now: SimTime, rate_per_sec: f64) -> Option<SimTime> {
        assert!(
            rate_per_sec >= 0.0 && rate_per_sec.is_finite(),
            "rate must be finite and non-negative, got {rate_per_sec}"
        );
        if rate_per_sec == 0.0 {
            return None;
        }
        // Inverse-CDF exponential sampling; clamp u away from 0 so ln is finite.
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap_secs = -u.ln() / rate_per_sec;
        Some(now + SimDuration::from_secs_f64(gap_secs))
    }
}

/// Poisson load offered to the tier by tenants outside the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundConfig {
    /// `(t_secs, requests/s)` rate steps in time order; the first takes
    /// effect at the start of the run, whatever its instant.
    pub steps: Vec<(f64, f64)>,
    /// The model the requests are billed as.
    pub model: ModelKind,
}

impl BackgroundConfig {
    /// Why this schedule cannot run, if it cannot, naming the field: an
    /// empty schedule, or a step whose time is not finite, >= 0 and
    /// after the last, or whose rate is not finite and >= 0.
    pub fn check(&self) -> Result<(), String> {
        if self.steps.is_empty() {
            return Err("`background.steps` is empty".into());
        }
        let mut last = -1.0;
        for &(t, rate) in &self.steps {
            if !(t.is_finite() && t > last && rate.is_finite() && rate >= 0.0) {
                return Err(format!(
                    "`background.steps` needs ascending finite times from 0 and finite \
                     rates >= 0, got ({t}, {rate})"
                ));
            }
            last = t;
        }
        Ok(())
    }
}

/// One run's background process: the rate in force and at most one
/// pending arrival, which the host files. It calls
/// [`load_change`](Self::load_change) at each rate step (step 0 at the
/// start of the run) and [`arrive`](Self::arrive) at each arrival.
#[derive(Debug)]
pub struct Background<R: Rng> {
    config: BackgroundConfig,
    arrivals: PoissonArrivals<R>,
    tenant: TenantId,
    rate: f64,
    /// Whether the next arrival is already filed.
    pending: bool,
    seq: u64,
}

impl<R: Rng> Background<R> {
    /// The process `config` describes, drawing its gaps from `rng` and
    /// billing every request to `tenant`.
    pub fn new(config: BackgroundConfig, rng: R, tenant: TenantId) -> Self {
        Background {
            config,
            arrivals: PoissonArrivals::new(rng),
            tenant,
            rate: 0.0,
            pending: false,
            seq: 0,
        }
    }

    /// Rate step `step` takes effect at `now`: the instant of the next
    /// arrival, if one is to be filed.
    pub fn load_change(&mut self, step: usize, now: SimTime) -> Option<SimTime> {
        self.rate = self.config.steps[step].1;
        self.next_arrival(now)
    }

    /// The filed arrival happens at `now`: its request, and the instant
    /// of the next arrival, if one is to be filed.
    pub fn arrive(&mut self, now: SimTime) -> (Request, Option<SimTime>) {
        let request = Request {
            tenant: self.tenant,
            model: self.config.model,
            submitted_at: now,
            tag: BACKGROUND_TAG_BASE + self.seq,
        };
        self.seq += 1;
        self.pending = false;
        (request, self.next_arrival(now))
    }

    /// The next arrival after `now`, unless one is already filed or the
    /// rate in force is zero.
    fn next_arrival(&mut self, now: SimTime) -> Option<SimTime> {
        if self.pending {
            return None;
        }
        let at = self.arrivals.next_after(now, self.rate)?;
        self.pending = true;
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::RngFactory;

    #[test]
    fn zero_rate_yields_no_arrival() {
        let mut p = PoissonArrivals::new(RngFactory::new(1).stream("bg"));
        assert_eq!(p.next_after(SimTime::ZERO, 0.0), None);
    }

    #[test]
    fn mean_gap_matches_rate() {
        let mut p = PoissonArrivals::new(RngFactory::new(2).stream("bg"));
        let rate = 120.0;
        let mut now = SimTime::ZERO;
        let n = 20_000;
        for _ in 0..n {
            now = p.next_after(now, rate).unwrap();
        }
        let mean_gap = now.as_secs_f64() / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean_gap - expected).abs() / expected < 0.03,
            "mean gap {mean_gap:.6}s vs expected {expected:.6}s"
        );
    }

    #[test]
    fn arrivals_are_strictly_after_now() {
        let mut p = PoissonArrivals::new(RngFactory::new(3).stream("bg"));
        let now = SimTime::from_secs(5);
        for _ in 0..1000 {
            let t = p.next_after(now, 1000.0).unwrap();
            assert!(t > now);
        }
    }

    #[test]
    fn same_seed_reproduces_arrivals() {
        let mut a = PoissonArrivals::new(RngFactory::new(4).stream("bg"));
        let mut b = PoissonArrivals::new(RngFactory::new(4).stream("bg"));
        let mut ta = SimTime::ZERO;
        let mut tb = SimTime::ZERO;
        for _ in 0..100 {
            ta = a.next_after(ta, 90.0).unwrap();
            tb = b.next_after(tb, 90.0).unwrap();
            assert_eq!(ta, tb);
        }
    }

    fn config(steps: Vec<(f64, f64)>) -> BackgroundConfig {
        let model = ModelKind::MobileNetV3Small;
        BackgroundConfig { steps, model }
    }

    /// Panic on what `check` refuses.
    fn validate(config: BackgroundConfig) {
        if let Err(why) = config.check() {
            panic!("{why}");
        }
    }

    #[test]
    fn a_stepped_schedule_validates() {
        validate(config(vec![(0.0, 0.0), (2.0, 90.0)]));
    }

    #[test]
    #[should_panic(expected = "`background.steps` is empty")]
    fn an_empty_schedule_is_rejected() {
        validate(config(vec![]));
    }

    #[test]
    #[should_panic(expected = "`background.steps` needs ascending")]
    fn unordered_step_times_are_rejected() {
        validate(config(vec![(0.0, 10.0), (5.0, 20.0), (5.0, 30.0)]));
    }

    #[test]
    #[should_panic(expected = "`background.steps` needs ascending")]
    fn a_negative_step_time_is_rejected() {
        validate(config(vec![(-1.0, 10.0)]));
    }

    #[test]
    #[should_panic(expected = "`background.steps` needs ascending")]
    fn a_nan_rate_is_rejected() {
        validate(config(vec![(0.0, f64::NAN)]));
    }

    #[test]
    #[should_panic(expected = "`background.steps` needs ascending")]
    fn a_negative_rate_is_rejected() {
        validate(config(vec![(0.0, 10.0), (1.0, -5.0)]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        PoissonArrivals::new(RngFactory::new(5).stream("bg")).next_after(SimTime::ZERO, -1.0);
    }

    #[test]
    fn gap_variance_is_exponential_like() {
        // For Exp(λ), std = mean. Check coefficient of variation ≈ 1.
        let mut p = PoissonArrivals::new(RngFactory::new(6).stream("bg"));
        let rate = 50.0;
        let mut gaps = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..20_000 {
            let next = p.next_after(now, rate).unwrap();
            gaps.push((next - now).as_secs_f64());
            now = next;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv:.3}");
    }
}
