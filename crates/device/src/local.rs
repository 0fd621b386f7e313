//! The on-device inference engine.
//!
//! A single-server queue with a **one-frame latest-frame buffer**: while
//! an inference runs, the most recently captured frame waits in a pending
//! slot (a newer arrival replaces — skips — the older one, as real-time
//! video pipelines do). This keeps the engine busy back to back, so its
//! saturated throughput equals the Table II rate instead of losing time
//! to frame-cadence quantization.
//!
//! Service time is `1 / P_l` with small multiplicative jitter (CPU
//! inference time varies a few percent run to run); the mean is
//! calibrated to the measured Table II rates via `ff-models`.
//!
//! ## Completions are not calendar events
//!
//! The engine knows when the inference in flight finishes, and nothing
//! but its own device can observe that instant: the controller sees
//! local execution only as completions counted over an interval, the
//! splitter only as "busy or not" when it offers the next frame. So the
//! fleet engines file no completion event. [`EngineState::apply_due`] is
//! the one rule for when an outstanding completion takes effect — before
//! the device's next locally routed capture, before its next controller
//! tick, and once at the end of the run — and it reproduces, completion
//! for completion and draw for draw, what a calendar that filed each one
//! would have done (`testhooks` keeps that calendar as the oracle).
//!
//! A fleet keeps one [`EngineState`] per device and the [`Service`] of
//! each (device, model) pair once; [`LocalEngine`] is the two together,
//! with the counters a host that owns its engine reports.

use ff_models::{DeviceKind, ModelKind};
use ff_sim::{SimDuration, SimTime};
use rand::Rng;

/// Outcome of offering a frame to the local engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalOutcome {
    /// Inference started; it completes at `done_at`, applied by
    /// `EngineState::apply_due`.
    Started {
        /// Instant at which the inference finishes.
        done_at: SimTime,
    },
    /// The engine is busy; the frame waits in the pending slot.
    Queued,
    /// The engine is busy and the pending slot was occupied: this frame
    /// replaced the older pending frame, which is skipped.
    Replaced,
}

/// What an engine's services read besides its own state: the mean time
/// per inference and its jitter. Devices of one kind running one model
/// share one of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Service {
    /// Mean service time, `1 / P_l`.
    pub mean: SimDuration,
    /// Multiplicative jitter half-width.
    pub jitter: f64,
}

impl Service {
    /// Run-to-run variation of CPU inference time.
    pub(crate) const JITTER: f64 = 0.05;

    /// The service of `device` running `model` (Table II rates).
    pub(crate) fn of(device: DeviceKind, model: ModelKind) -> Service {
        Service::with_rate(device.local_rate_fps(model))
    }

    /// A service at an explicit rate in frames/s.
    pub(crate) fn with_rate(rate_fps: f64) -> Service {
        assert!(rate_fps > 0.0, "local rate must be positive");
        Service {
            mean: SimDuration::from_secs_f64(1.0 / rate_fps),
            jitter: Service::JITTER,
        }
    }
}

/// One engine's own state: the inference in flight, the pending slot and
/// the randomness of the next service, run against a shared [`Service`].
#[derive(Debug, Clone)]
pub(crate) struct EngineState<R: Rng> {
    /// When the inference in flight completes, or [`IDLE`]: a sentinel
    /// rather than an `Option`, which would cost every row 8 bytes.
    busy_until: SimTime,
    pending: bool,
    /// The inference in flight was already in flight when the device's
    /// last controller tick ran (see [`EngineState::apply_due`]).
    spans_tick: bool,
    rng: R,
}

/// `EngineState::busy_until` of an idle engine. No inference completes
/// at the end of time, so no in-flight one can be mistaken for it.
const IDLE: SimTime = SimTime::MAX;

impl<R: Rng> EngineState<R> {
    /// An idle engine drawing its service times from `rng`.
    pub(crate) fn new(rng: R) -> Self {
        EngineState {
            busy_until: IDLE,
            pending: false,
            spans_tick: false,
            rng,
        }
    }

    /// When the inference in flight completes, if one is.
    #[inline]
    fn in_flight(&self) -> Option<SimTime> {
        (self.busy_until != IDLE).then_some(self.busy_until)
    }

    /// Whether the engine is computing at `now`.
    pub(crate) fn is_busy(&self, now: SimTime) -> bool {
        self.in_flight().is_some_and(|t| t > now)
    }

    fn start_service(&mut self, service: &Service, now: SimTime) -> SimTime {
        let factor = if service.jitter == 0.0 {
            1.0
        } else {
            self.rng
                .gen_range(1.0 - service.jitter..=1.0 + service.jitter)
        };
        let done = now + service.mean.mul_f64(factor);
        self.busy_until = done;
        self.spans_tick = false;
        done
    }

    /// Offer a frame at `now`; a started inference runs `now..done_at`.
    pub(crate) fn offer(&mut self, service: &Service, now: SimTime) -> LocalOutcome {
        if self.is_busy(now) {
            return if self.pending {
                LocalOutcome::Replaced
            } else {
                self.pending = true;
                LocalOutcome::Queued
            };
        }
        let done_at = self.start_service(service, now);
        LocalOutcome::Started { done_at }
    }

    /// The inference in flight finished at `now`. Returns the next
    /// completion instant if the pending frame starts immediately.
    fn complete(&mut self, service: &Service, now: SimTime) -> Option<SimTime> {
        debug_assert!(
            self.in_flight().is_some_and(|t| t == now),
            "completion out of sync with engine state"
        );
        self.busy_until = IDLE;
        if self.pending {
            self.pending = false;
            Some(self.start_service(service, now))
        } else {
            None
        }
    }

    /// Apply the completions that have fallen due, oldest first, each at
    /// its own instant: `bill(done_at, next)`, where `next` is the
    /// completion instant of the pending frame if it starts at `done_at`
    /// (one draw from the engine's stream) — due in turn, maybe. Returns
    /// how many were applied.
    ///
    /// The caller is an event of the engine's own device at `now`, and
    /// "due" means what a calendar holding one event per completion would
    /// already have popped:
    ///
    /// * before a capture that is about to [`offer`](Self::offer), or at
    ///   the end of the run (`before_tick == false`): `done_at ≤ now`;
    /// * before a controller tick (`before_tick == true`): `done_at < now`,
    ///   and `done_at == now` only if the inference was already in flight
    ///   when the *previous* tick ran. Both events were filed when their
    ///   predecessor fired — this tick by the previous tick, the
    ///   completion at its start of service — so at a shared instant the
    ///   one filed first pops first, and [`tick_passed`](Self::tick_passed)
    ///   records exactly which that is.
    pub(crate) fn apply_due(
        &mut self,
        service: &Service,
        now: SimTime,
        before_tick: bool,
        mut bill: impl FnMut(SimTime, Option<SimTime>),
    ) -> u64 {
        let mut applied = 0;
        while let Some(done_at) = self.in_flight() {
            let due = done_at < now || (done_at == now && (!before_tick || self.spans_tick));
            if !due {
                break;
            }
            let next = self.complete(service, done_at);
            bill(done_at, next);
            applied += 1;
        }
        applied
    }

    /// The device's controller tick has just run: whatever is in flight
    /// now was started before it. Call at the end of every tick handler.
    pub(crate) fn tick_passed(&mut self) {
        self.spans_tick = self.in_flight().is_some();
    }
}

/// What an engine did, counted: what [`LocalEngine`] reports, and what
/// a fleet's watched row keeps for its engine (no other row needs it).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EngineTally {
    /// Summed service time of every inference started, for CPU
    /// accounting.
    pub(crate) busy_time: SimDuration,
    pub(crate) completed: u64,
    pub(crate) skipped: u64,
}

impl EngineTally {
    /// A frame offered at `now` met `outcome`.
    pub(crate) fn offered(&mut self, now: SimTime, outcome: LocalOutcome) {
        match outcome {
            LocalOutcome::Started { done_at } => self.busy_time += done_at - now,
            LocalOutcome::Replaced => self.skipped += 1,
            LocalOutcome::Queued => {}
        }
    }

    /// The inference in flight completed at `done_at`, and the pending
    /// frame, if any, started in its place to complete at `next`.
    pub(crate) fn completed(&mut self, done_at: SimTime, next: Option<SimTime>) {
        self.completed += 1;
        if let Some(next) = next {
            self.busy_time += next - done_at;
        }
    }

    /// Fraction of `[0, now]` spent computing — the input to the CPU
    /// usage model.
    pub(crate) fn busy_fraction(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        // busy_time may exceed `now` by the tail of an in-flight inference.
        (self.busy_time.as_secs_f64() / now.as_secs_f64()).min(1.0)
    }
}

/// The local (on-device) inference engine with its service and counters
/// owned: `EngineState` run against its own `Service`.
#[derive(Debug, Clone)]
pub struct LocalEngine<R: Rng> {
    service: Service,
    state: EngineState<R>,
    tally: EngineTally,
}

impl<R: Rng> LocalEngine<R> {
    /// An engine with an explicit service rate in frames/s.
    pub fn with_rate(rate_fps: f64, rng: R) -> Self {
        LocalEngine {
            service: Service::with_rate(rate_fps),
            state: EngineState::new(rng),
            tally: EngineTally::default(),
        }
    }

    /// Offer a frame at `now`.
    pub fn offer(&mut self, now: SimTime) -> LocalOutcome {
        let outcome = self.state.offer(&self.service, now);
        self.tally.offered(now, outcome);
        outcome
    }

    /// The inference in flight finished at `now` (calendar-driven
    /// callers; see [`EngineState::apply_due`] for the others).
    #[cfg(test)]
    fn complete(&mut self, now: SimTime) -> Option<SimTime> {
        let next = self.state.complete(&self.service, now);
        self.tally.completed(now, next);
        next
    }

    /// Apply the completions that have fallen due, oldest first:
    /// `bill(done_at)` for each (`EngineState::apply_due`).
    pub fn apply_due(
        &mut self,
        now: SimTime,
        before_tick: bool,
        mut bill: impl FnMut(SimTime),
    ) -> u64 {
        let tally = &mut self.tally;
        self.state
            .apply_due(&self.service, now, before_tick, |done_at, next| {
                tally.completed(done_at, next);
                bill(done_at);
            })
    }

    /// The device's controller tick has just run
    /// (`EngineState::tick_passed`).
    pub fn tick_passed(&mut self) {
        self.state.tick_passed();
    }

    /// Frames inferred locally so far (services completed).
    pub fn completed(&self) -> u64 {
        self.tally.completed
    }

    /// Frames skipped because both the engine and the pending slot were
    /// occupied.
    pub fn skipped(&self) -> u64 {
        self.tally.skipped
    }
}

/// Test hooks for the local-completion oracle in
/// `tests/local_completions.rs`: one device's captures and controller
/// ticks played against its engine twice — with every completion filed on
/// a calendar, as the engines did before completions left it, and with
/// `EngineState::apply_due` called the way `FleetCore` calls it.
#[doc(hidden)]
pub mod testhooks {
    use super::{EngineState, LocalOutcome, Service};
    use ff_sim::{RngFactory, SimDuration, SimTime};
    use rand::RngCore;
    use rand_chacha::ChaCha8Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One device's run, as its engine sees it.
    #[derive(Debug, Clone)]
    pub struct Script {
        /// Mean service rate of the engine.
        pub rate_fps: f64,
        /// Multiplicative service jitter (the engine ships with 0.05).
        pub jitter: f64,
        /// Seed of the engine's stream.
        pub seed: u64,
        /// Capture instants, strictly ascending, and whether the splitter
        /// routed that frame to the local engine.
        pub captures: Vec<(SimTime, bool)>,
        /// Controller period: ticks at `period, 2·period, … ≤ end_at`.
        pub period: SimDuration,
        /// The run ends here, inclusively.
        pub end_at: SimTime,
    }

    /// Everything about the run the rest of the device could observe.
    #[derive(Debug, Default, PartialEq)]
    pub struct Observed {
        /// Completion instants, in the order they took effect.
        pub completions: Vec<SimTime>,
        /// What each locally routed capture was told.
        pub offers: Vec<LocalOutcome>,
        /// `interval.local_done` as each tick read it, then what was
        /// billed after the last tick.
        pub done_per_tick: Vec<u64>,
        /// Captures + ticks + completions: `events_handled`.
        pub events: u64,
        /// The stream's next value after the run, equal iff both runs
        /// drew the same number of service times.
        pub next_draw: u64,
    }

    impl Observed {
        /// A tick, or the end of the run, reads the completions billed
        /// since the last one did.
        fn close_interval(&mut self) {
            let read_before: u64 = self.done_per_tick.iter().sum();
            let billed = self.completions.len() as u64;
            self.done_per_tick.push(billed - read_before);
        }
    }

    fn engine(script: &Script) -> (Service, EngineState<ChaCha8Rng>) {
        let service = Service {
            jitter: script.jitter,
            ..Service::with_rate(script.rate_fps)
        };
        (
            service,
            EngineState::new(RngFactory::new(script.seed).stream("local")),
        )
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Event {
        Capture(usize),
        LocalDone,
        Tick,
    }

    /// The eager discipline: every completion is a calendar event, filed
    /// when its service starts and popped in `(time, filing order)`.
    ///
    /// `Err` on the one schedule it mishandles: a completion and a locally
    /// routed capture of the same microsecond with the capture filed
    /// first. The capture then finds the engine no longer busy (`busy_until
    /// > now` fails) and starts a second service over the unfinished first,
    /// whose completion event is thereby orphaned — `EngineState::complete`'s
    /// `debug_assert` in debug builds, a double-booked engine in release.
    /// `apply_due` completes first at such a tie.
    pub fn eager(script: &Script) -> Result<Observed, String> {
        let (service, mut engine) = engine(script);
        let mut calendar = BinaryHeap::new();
        let mut filed = 0u64;
        let mut file = |calendar: &mut BinaryHeap<_>, at: SimTime, event: Event| {
            calendar.push(Reverse((at, filed, event)));
            filed += 1;
        };
        if let Some(&(first, _)) = script.captures.first() {
            file(&mut calendar, first, Event::Capture(0));
        }
        file(&mut calendar, SimTime::ZERO + script.period, Event::Tick);

        let mut seen = Observed::default();
        while let Some(Reverse((now, _, event))) = calendar.pop() {
            if now > script.end_at {
                break;
            }
            seen.events += 1;
            match event {
                Event::Capture(i) => {
                    if script.captures[i].1 {
                        let outcome = engine.offer(&service, now);
                        if let LocalOutcome::Started { done_at } = outcome {
                            file(&mut calendar, done_at, Event::LocalDone);
                        }
                        seen.offers.push(outcome);
                    }
                    if let Some(&(next, _)) = script.captures.get(i + 1) {
                        file(&mut calendar, next, Event::Capture(i + 1));
                    }
                }
                Event::LocalDone => {
                    if engine.in_flight() != Some(now) {
                        return Err(format!(
                            "completion at {now} orphaned: a capture of the same \
                             instant restarted the engine until {:?}",
                            engine.in_flight()
                        ));
                    }
                    seen.completions.push(now);
                    if let Some(next_done) = engine.complete(&service, now) {
                        file(&mut calendar, next_done, Event::LocalDone);
                    }
                }
                Event::Tick => {
                    seen.close_interval();
                    let next = now + script.period;
                    if next <= script.end_at {
                        file(&mut calendar, next, Event::Tick);
                    }
                }
            }
        }
        seen.close_interval();
        seen.next_draw = engine.rng.next_u64();
        Ok(seen)
    }

    /// The shipped discipline: captures and ticks are the only calendar
    /// events (merged here by the same filing order), and completions take
    /// effect through `apply_due` at the three places `FleetCore` calls it.
    pub fn lazy(script: &Script) -> Observed {
        let (service, mut engine) = engine(script);
        let mut seen = Observed::default();
        let mut captures = script.captures.iter().peekable();
        let mut next_tick = SimTime::ZERO + script.period;
        // Filing order of the pending capture and the pending tick: each
        // is filed while its predecessor is handled, the first two at
        // set-up.
        let (mut capture_filed, mut tick_filed, mut filed) = (0u64, 1u64, 2u64);
        loop {
            let capture_at = captures.peek().map(|&&(at, _)| at);
            let tick_at = (next_tick <= script.end_at).then_some(next_tick);
            let capture_first = match (capture_at, tick_at) {
                (Some(c), Some(t)) => (c, capture_filed) < (t, tick_filed),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let completions = &mut seen.completions;
            if capture_first {
                let &(now, local) = captures.next().expect("peeked");
                if now > script.end_at {
                    break;
                }
                seen.events += 1;
                if local {
                    let bill = |at, _| completions.push(at);
                    seen.events += engine.apply_due(&service, now, false, bill);
                    seen.offers.push(engine.offer(&service, now));
                }
                capture_filed = filed;
                filed += 1;
            } else {
                let now = next_tick;
                let bill = |at, _| completions.push(at);
                seen.events += 1 + engine.apply_due(&service, now, true, bill);
                seen.close_interval();
                engine.tick_passed();
                tick_filed = filed;
                filed += 1;
                next_tick = now + script.period;
            }
        }
        let completions = &mut seen.completions;
        let bill = |at, _| completions.push(at);
        seen.events += engine.apply_due(&service, script.end_at, false, bill);
        seen.close_interval();
        seen.next_draw = engine.rng.next_u64();
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_sim::RngFactory;
    use rand_chacha::ChaCha8Rng;

    fn engine(rate: f64) -> LocalEngine<ChaCha8Rng> {
        LocalEngine::with_rate(rate, RngFactory::new(11).stream("local"))
    }

    /// Drive an engine with a fixed-cadence stream and return completions/s.
    fn saturate(rate: f64, offered_fps: f64, secs: u64) -> f64 {
        let mut e = engine(rate);
        let dt = SimDuration::from_secs_f64(1.0 / offered_fps);
        let horizon = SimTime::from_secs(secs);
        let mut next_offer = SimTime::ZERO;
        let mut next_done: Option<SimTime> = None;
        loop {
            match next_done {
                Some(d) if d <= next_offer => {
                    next_done = e.complete(d);
                }
                _ => {
                    if next_offer >= horizon {
                        break;
                    }
                    if let LocalOutcome::Started { done_at } = e.offer(next_offer) {
                        next_done = Some(done_at);
                    }
                    next_offer += dt;
                }
            }
        }
        e.completed() as f64 / secs as f64
    }

    #[test]
    fn calibrated_to_table_ii() {
        let service = Service::of(DeviceKind::Pi4BRev12, ModelKind::MobileNetV3Small);
        assert!((1.0 / service.mean.as_secs_f64() - 13.0).abs() < 0.01);
    }

    #[test]
    fn busy_engine_queues_then_replaces() {
        let mut e = engine(10.0); // ~100 ms service
        let LocalOutcome::Started { done_at } = e.offer(SimTime::ZERO) else {
            panic!("idle engine must start")
        };
        assert!(done_at.as_millis() >= 90 && done_at.as_millis() <= 110);
        assert_eq!(e.offer(SimTime::from_millis(30)), LocalOutcome::Queued);
        assert_eq!(e.offer(SimTime::from_millis(60)), LocalOutcome::Replaced);
        assert_eq!(e.skipped(), 1);
        // Completion immediately starts the pending frame.
        let next = e.complete(done_at);
        assert!(next.is_some(), "pending frame must start back to back");
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn saturated_throughput_matches_the_calibrated_rate() {
        let fps = saturate(13.0, 30.0, 100);
        assert!(
            (fps - 13.0).abs() < 0.7,
            "saturated local rate {fps:.2}, expected ~13"
        );
    }

    #[test]
    fn underloaded_engine_matches_the_offered_rate() {
        let fps = saturate(13.0, 5.0, 100);
        assert!(
            (fps - 5.0).abs() < 0.3,
            "underloaded rate {fps:.2}, expected ~5"
        );
    }

    #[test]
    fn busy_fraction_saturates_to_one() {
        let mut e = engine(13.0);
        let mut now = SimTime::ZERO;
        let mut done: Option<SimTime> = None;
        for _ in 0..300 {
            if let Some(d) = done {
                if d <= now {
                    done = e.complete(d);
                }
            }
            if let LocalOutcome::Started { done_at } = e.offer(now) {
                done = Some(done_at);
            }
            now += SimDuration::from_secs_f64(1.0 / 30.0);
        }
        let f = e.tally.busy_fraction(now);
        assert!(f > 0.9 && f <= 1.0, "saturated busy fraction {f}");
    }

    #[test]
    fn idle_engine_has_zero_busy_fraction() {
        let e = engine(13.0);
        assert_eq!(e.tally.busy_fraction(SimTime::from_secs(10)), 0.0);
        assert_eq!(e.tally.busy_fraction(SimTime::ZERO), 0.0);
    }

    #[test]
    fn service_jitter_is_bounded() {
        let mut e = engine(10.0);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            if let LocalOutcome::Started { done_at } = e.offer(now) {
                let ms = (done_at - now).as_millis();
                assert!((95..=105).contains(&ms), "service {ms} ms");
                e.complete(done_at);
                now = done_at;
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = engine(0.0);
    }

    #[test]
    fn rate_switch_applies_to_new_services() {
        // A local-model change hands the engine another service: an
        // in-flight inference finishes at its old speed.
        let (fast, slow) = (Service::with_rate(10.0), Service::with_rate(2.0));
        let mut e = EngineState::new(RngFactory::new(11).stream("local"));
        let LocalOutcome::Started { done_at } = e.offer(&fast, SimTime::ZERO) else {
            panic!()
        };
        assert!(done_at.as_millis() <= 110);
        assert_eq!(e.apply_due(&slow, done_at, false, |_, _| {}), 1);
        let LocalOutcome::Started { done_at: d2 } = e.offer(&slow, done_at) else {
            panic!()
        };
        let ms = (d2 - done_at).as_millis();
        assert!((475..=525).contains(&ms), "new service {ms} ms");
    }
}
