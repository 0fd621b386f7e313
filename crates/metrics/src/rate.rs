//! Sliding-window rate estimation.
//!
//! FrameFeedback's controller input is "the average of `T` from the last
//! few seconds" (paper §III-A.1). [`WindowedRate`] implements exactly that:
//! it records discrete occurrences (frames processed, timeouts, ...) and
//! reports the per-second rate over a trailing window.
//!
//! The window is an argument of every call, not a field: a fleet keeps
//! one estimator per device, all over one configured window, which the
//! caller holds once.

use ff_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Counts occurrences and reports their rate over a trailing time window.
///
/// Every call names the `window`, and one estimator must always be
/// called with the same positive one: a zero window makes every rate
/// undefined (it reads 0).
#[derive(Debug, Clone, Default)]
pub struct WindowedRate {
    /// (instant, count) records, oldest first. Records at the same instant
    /// are coalesced.
    events: VecDeque<(SimTime, u64)>,
    total_in_window: u64,
}

impl WindowedRate {
    /// An estimator with nothing recorded.
    pub fn new() -> Self {
        WindowedRate::default()
    }

    /// Record one occurrence at `now`.
    pub fn record(&mut self, now: SimTime, window: SimDuration) {
        self.record_n(now, 1, window);
    }

    /// Record `n` occurrences at `now`. Records must be fed in
    /// non-decreasing time order (the natural order of a simulation run).
    fn record_n(&mut self, now: SimTime, n: u64, window: SimDuration) {
        if let Some(&(last, _)) = self.events.back() {
            assert!(
                now >= last,
                "WindowedRate records must arrive in time order ({now} < {last})"
            );
        }
        if n == 0 {
            self.evict(now, window);
            return;
        }
        match self.events.back_mut() {
            Some((last, count)) if *last == now => *count += n,
            _ => self.events.push_back((now, n)),
        }
        self.total_in_window += n;
        self.evict(now, window);
    }

    fn evict(&mut self, now: SimTime, window: SimDuration) {
        // Keep events with t > now - window, i.e. drop t <= now - window.
        let floor = if now >= SimTime::ZERO + window {
            now - window
        } else {
            return; // window extends past t=0; nothing can be stale yet
        };
        while let Some(&(t, count)) = self.events.front() {
            if t <= floor {
                self.events.pop_front();
                self.total_in_window -= count;
            } else {
                break;
            }
        }
    }

    /// Per-second rate over the trailing window at instant `now`.
    ///
    /// Before a full window has elapsed since t = 0, the divisor is the
    /// elapsed time, so early rates are not artificially deflated.
    pub fn rate_at(&mut self, now: SimTime, window: SimDuration) -> f64 {
        self.evict(now, window);
        let elapsed = now.saturating_since(SimTime::ZERO).as_secs_f64();
        let denom = elapsed.min(window.as_secs_f64());
        if denom <= 0.0 {
            return 0.0;
        }
        self.total_in_window as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    /// An estimator over a fixed window, as its callers hold one.
    struct Over(WindowedRate, SimDuration);

    impl Over {
        fn new(window: SimDuration) -> Self {
            Over(WindowedRate::new(), window)
        }
        fn record(&mut self, now: SimTime) {
            self.0.record(now, self.1);
        }
        fn record_n(&mut self, now: SimTime, n: u64) {
            self.0.record_n(now, n, self.1);
        }
        /// Occurrences within `(now - window, now]`.
        fn count_at(&mut self, now: SimTime) -> u64 {
            self.0.evict(now, self.1);
            self.0.total_in_window
        }
        fn rate_at(&mut self, now: SimTime) -> f64 {
            self.0.rate_at(now, self.1)
        }
    }

    #[test]
    fn steady_stream_reports_its_rate() {
        let mut r = Over::new(SimDuration::from_secs(4));
        // 10 events per second for 10 seconds.
        for t in 0..10u64 {
            for k in 0..10u64 {
                r.record(SimTime::from_millis(t * 1000 + k * 100));
            }
        }
        let rate = r.rate_at(SimTime::from_millis(9900));
        assert!((rate - 10.0).abs() < 1.0, "rate {rate} should be ~10/s");
    }

    #[test]
    fn old_events_age_out() {
        let mut r = Over::new(SimDuration::from_secs(2));
        r.record_n(s(0), 100);
        assert_eq!(r.count_at(s(1)), 100);
        assert_eq!(r.count_at(s(2)), 0, "event at t=0 leaves at t=window");
        assert_eq!(r.rate_at(s(5)), 0.0);
    }

    #[test]
    fn early_rates_use_elapsed_time() {
        let mut r = Over::new(SimDuration::from_secs(10));
        r.record_n(SimTime::from_millis(500), 5);
        // Only 1s has elapsed; denominator is 1s, not 10s.
        let rate = r.rate_at(s(1));
        assert!((rate - 5.0).abs() < 1e-9, "got {rate}");
    }

    #[test]
    fn rate_at_time_zero_is_zero() {
        let mut r = Over::new(SimDuration::from_secs(1));
        assert_eq!(r.rate_at(SimTime::ZERO), 0.0);
        r.record(SimTime::ZERO);
        assert_eq!(r.rate_at(SimTime::ZERO), 0.0, "zero elapsed time");
    }

    #[test]
    fn coalesces_same_instant_records() {
        let mut r = Over::new(SimDuration::from_secs(1));
        for _ in 0..1000 {
            r.record(s(1));
        }
        assert_eq!(r.count_at(s(1)), 1000);
        assert_eq!(r.0.events.len(), 1, "same-instant records should coalesce");
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_records_panic() {
        let mut r = Over::new(SimDuration::from_secs(1));
        r.record(s(2));
        r.record(s(1));
    }

    #[test]
    fn a_zero_window_reads_no_rate() {
        let mut r = Over::new(SimDuration::ZERO);
        r.record_n(s(1), 3);
        assert_eq!(r.count_at(s(1)), 0);
        assert_eq!(r.rate_at(s(2)), 0.0);
    }
}
