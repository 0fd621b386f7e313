//! Local-inference completions are applied by the engine, not filed on
//! the calendar — and nothing the rest of the device can observe changes.
//!
//! `ff_device::local_testhooks` plays one device's captures and controller
//! ticks against its `LocalEngine` twice: `eager` files every completion
//! as a calendar event, the discipline the fleet engines used to follow;
//! `lazy` calls `LocalEngine::apply_due` — the shipped function — at the
//! three places `FleetCore` calls it. Both must report the same completion
//! instants, `offer` outcomes, per-tick completion counts, number of
//! service-time draws and event total.
//!
//! There is exactly one kind of schedule on which they do not, and there
//! the eager calendar is the one at fault; see
//! [`a_capture_filed_before_a_same_instant_completion_double_books_the_eager_engine`].

use framefeedback::device::local_testhooks::{eager, lazy, Script};
use framefeedback::device::LocalOutcome;
use framefeedback::models::{DeviceKind, ModelKind};
use framefeedback::sim::{SimDuration, SimTime};
use proptest::prelude::*;

const PERIOD: SimDuration = SimDuration::from_secs(1);

fn us(micros: u64) -> SimTime {
    SimTime::from_micros(micros)
}

/// The service time the engine derives from `rate_fps`, in microseconds.
fn service_us(rate_fps: f64) -> u64 {
    SimDuration::from_secs_f64(1.0 / rate_fps).as_micros()
}

/// Captures every `interval_us` from 0, routed by `local(i)`.
fn cadence(frames: u64, interval_us: u64, local: impl Fn(u64) -> bool) -> Vec<(SimTime, bool)> {
    (0..frames)
        .map(|i| (us(i * interval_us), local(i)))
        .collect()
}

fn script(rate_fps: f64, jitter: f64, captures: Vec<(SimTime, bool)>) -> Script {
    let last = captures.last().map_or(SimTime::ZERO, |&(at, _)| at);
    Script {
        rate_fps,
        jitter,
        seed: 7,
        captures,
        period: PERIOD,
        // The fleet runs one deadline past its last capture.
        end_at: last + SimDuration::from_millis(250),
    }
}

#[track_caller]
fn assert_agree(script: &Script) {
    let eager = eager(script).unwrap_or_else(|why| panic!("eager calendar: {why}\n{script:?}"));
    assert_eq!(eager, lazy(script), "{script:?}");
}

#[test]
fn the_table_ii_grid_agrees_completion_for_completion() {
    // Every device × model pair at the paper's 30 fps for 20 s, seven
    // frames in ten routed locally: 0.4 fps engines whose service outlasts
    // two controller periods (both `EfficientNetB4` pairs on a Pi 3 and a
    // Pi 4) up to 13.4 fps ones, with the shipped 5 % jitter.
    for device in DeviceKind::ALL {
        for model in ModelKind::ALL {
            let rate = device.local_rate_fps(model);
            let captures = cadence(600, 33_333, |i| (i * 7) % 10 < 7);
            let script = script(rate, 0.05, captures);
            assert_agree(&script);
            let seen = lazy(&script);
            assert!(
                !seen.completions.is_empty(),
                "{} / {}: nothing completed",
                device.name(),
                model.name()
            );
            assert_eq!(
                seen.events,
                600 + 20 + seen.completions.len() as u64,
                "captures + ticks + completions"
            );
        }
    }
}

#[test]
fn a_service_of_whole_frame_intervals_ties_with_a_capture_and_agrees() {
    // No jitter, service = k frame intervals: every completion falls on
    // the microsecond of a capture. Its event was filed when the service
    // started, k ≥ 1 captures back — before that capture's own event — so
    // both disciplines complete first. With k = 1 the capture then finds
    // the engine idle and starts it; with k > 1 a frame was waiting, the
    // completion started it, and the capture waits in turn.
    for k in [1u64, 2, 3] {
        let interval = 50_000;
        let rate = 1e6 / (k * interval) as f64;
        assert_eq!(service_us(rate), k * interval);
        let script = script(rate, 0.0, cadence(200, interval, |_| true));
        assert_agree(&script);
        let seen = lazy(&script);
        let started = |o: &&LocalOutcome| matches!(o, LocalOutcome::Started { .. });
        assert_eq!(
            seen.offers.iter().filter(started).count(),
            if k == 1 { 200 } else { 1 },
            "k = {k}"
        );
    }
}

#[test]
fn a_completion_tied_with_a_tick_is_billed_by_filing_order() {
    // Service = one controller period, no jitter. The capture at 0 starts
    // a service that ends on the first tick — started after that tick was
    // filed (at set-up), so the tick reads 0 completions and the second
    // interval gets it. The completion then starts the pending frame, a
    // service that again ends exactly on a tick, and again after it.
    let mut captures = cadence(2, 100_000, |_| true);
    captures.push((us(1_400_000), true));
    let mut script = script(1.0, 0.0, captures);
    script.end_at = us(4_000_000);
    assert_eq!(service_us(script.rate_fps), PERIOD.as_micros());
    assert_agree(&script);
    let seen = lazy(&script);
    assert_eq!(
        seen.completions,
        [us(1_000_000), us(2_000_000), us(3_000_000)]
    );
    assert_eq!(seen.done_per_tick, [0, 1, 1, 1, 0]);

    // The same engine, its first service started *before* set-up's tick
    // could matter: a capture exactly on a tick, popped before it, starts
    // a service that the next tick finds finished.
    let mut script = script_with_first_capture_on_a_tick();
    script.end_at = us(3_000_000);
    assert_agree(&script);
    assert_eq!(lazy(&script).done_per_tick, [0, 1, 0, 0]);
}

/// One local capture at exactly 1 s on a 1 fps engine without jitter. The
/// capture event is filed at set-up before the first tick, so it pops
/// first at 1 s; its completion at 2 s was filed before the 2 s tick.
fn script_with_first_capture_on_a_tick() -> Script {
    script(1.0, 0.0, vec![(us(1_000_000), true)])
}

#[test]
fn a_capture_filed_before_a_same_instant_completion_double_books_the_eager_engine() {
    // The latent bug of the eager calendar, pinned. Service 100 ms, no
    // jitter. Capture 0 starts the engine (done at 100 ms); capture 1 at
    // 40 ms waits in the pending slot and files capture 2, due at 200 ms.
    // At 100 ms the completion starts the pending frame — done at 200 ms,
    // an event filed *after* capture 2's. So at 200 ms the capture pops
    // first, `offer` sees `busy_until > now` fail, and starts a second
    // service over the first: the completion that follows finds an engine
    // busy until 300 ms (`LocalEngine::complete`'s `debug_assert` in debug
    // builds; in release the frame in flight is silently dropped and the
    // engine double-booked). `apply_due` completes first at that tie.
    let captures = vec![(us(0), true), (us(40_000), true), (us(200_000), true)];
    let script = script(10.0, 0.0, captures);
    let why = eager(&script).expect_err("the eager calendar mishandles this schedule");
    assert!(why.contains("orphaned"), "{why}");

    let seen = lazy(&script);
    assert_eq!(
        seen.completions,
        [us(100_000), us(200_000), us(300_000)],
        "three frames in, three inferences out"
    );
    assert!(seen
        .offers
        .iter()
        .all(|o| !matches!(o, LocalOutcome::Replaced)));
}

proptest! {
    /// Arbitrary schedules: engines from 0.4 to 25 fps, cameras from one
    /// frame every two controller periods up to 30 fps, replayed
    /// schedules with gaps of a period and more, any local/offload mix,
    /// with and without jitter — and service times deliberately locked to
    /// the frame interval or the controller period so that exact ties are
    /// common rather than measure-zero.
    #[test]
    fn prop_apply_due_reproduces_the_eager_calendar(
        (rate_sel, interval_sel, jitter, seed) in (0u32..1000, 0usize..6, any::<bool>(), any::<u64>()),
        frames in proptest::collection::vec((0u8..10, 0u8..16), 1..120),
        local_share in 0u8..=10,
    ) {
        let interval = [2_000_000u64, 1_000_000, 500_000, 100_000, 50_000, 33_333][interval_sel];
        let rate_fps = match rate_sel % 4 {
            // Anywhere in the range.
            0 => 0.4 + 24.6 * f64::from(rate_sel) / 1000.0,
            // Service = k frame intervals, or = k controller periods.
            1 => (1e6 / (f64::from(rate_sel % 5 + 1) * interval as f64)).clamp(0.4, 25.0),
            2 => 1.0 / f64::from(rate_sel % 2 + 1),
            // Service = a frame interval and a half.
            _ => (1e6 / (1.5 * interval as f64)).clamp(0.4, 25.0),
        };
        let mut at = 0u64;
        let captures: Vec<(SimTime, bool)> = frames
            .iter()
            .map(|&(route, gap)| {
                let this = at;
                // One capture in sixteen is followed by a replayed gap of
                // one to three controller periods.
                at += interval + if gap == 0 { u64::from(route % 3 + 1) * 1_000_000 } else { 0 };
                (us(this), route < local_share)
            })
            .collect();
        let mut script = script(rate_fps, if jitter { 0.05 } else { 0.0 }, captures);
        script.seed = seed;
        match eager(&script) {
            Ok(seen) => prop_assert_eq!(seen, lazy(&script), "{:?}", script),
            // Not filtered: the eager calendar may only give up where a
            // completion shares its microsecond with a local capture, the
            // double-booking pinned above. Anything else is a failure.
            Err(why) => {
                let seen = lazy(&script);
                let tied = script.captures.iter().any(|&(at, local)| {
                    local && seen.completions.contains(&at)
                });
                prop_assert!(tied, "eager gave up without a tie: {}\n{:?}", why, script);
            }
        }
    }
}
