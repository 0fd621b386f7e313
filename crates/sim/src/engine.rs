//! The simulation executor.
//!
//! A [`Simulation`] owns a model implementing [`SimModel`] and a
//! future-event list. The executor pops the earliest event, advances the
//! clock, and hands the event to the model together with a [`Ctx`] the
//! model uses to schedule follow-up events.
//!
//! This "one model, typed events" shape sidesteps the aliasing problems of
//! closure-based schedulers: the model has exclusive `&mut self` access
//! while handling an event, and the queue is only reachable through `Ctx`.

use crate::queue::{EventQueue, Popped};
use crate::time::SimTime;

/// A simulatable system.
pub trait SimModel {
    /// The event alphabet of the system.
    type Event;

    /// Handle one event at the current simulated instant.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);
}

/// Scheduling context handed to the model during event handling.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    events_handled: u64,
}

impl<'a, E> Ctx<'a, E> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled by the executor so far, including the one
    /// being handled. Lets models report executor throughput to
    /// telemetry without reaching around the `Simulation`.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// Panics if `at` is in the past: a causality violation is always a
    /// model bug and silently reordering it would corrupt results.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        check_causal(self.now, at);
        self.queue.push(at, event);
    }

    /// [`schedule_at`](Self::schedule_at) for an event of a class that is
    /// filed in time order — one always scheduled the same distance ahead
    /// of `now` (the next capture, a deadline, …) is one case, one link's
    /// FIFO deliveries another: give each such class its own `lane`
    /// (`< LANES`) and its events wait in a FIFO instead of the calendar.
    /// Purely a speed hint — the event fires exactly when and in the order
    /// `schedule_at` would fire it, also when `at` is not in step with the
    /// lane (see the queue's module docs).
    pub fn schedule_lane(&mut self, lane: usize, at: SimTime, event: E) {
        self.schedule_lane_batch(lane, at, 1, event);
    }

    /// One entry standing for `n` consecutive
    /// [`schedule_lane`](Self::schedule_lane) calls with the same `at`
    /// (`1 ≤ n ≤` [`LANE_RUN_MAX`](crate::LANE_RUN_MAX)):
    /// `event` is handled once, in the position of the first, and counts
    /// as `n` events handled. The model applies the other `n − 1` itself.
    /// Consecutive calls at one `at` pop back to back, so `m` pushes
    /// split over several entries pop and count as one entry for `m`.
    pub fn schedule_lane_batch(&mut self, lane: usize, at: SimTime, n: u32, event: E) {
        check_causal(self.now, at);
        self.queue.push_lane(lane, at, n, event);
    }

    /// Number of pending events (excluding the one being handled; a
    /// lane entry standing for `n` counts `n`).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

/// Panic if `at` is in the past: a causality violation is always a model
/// bug and silently reordering it would corrupt results.
fn check_causal(now: SimTime, at: SimTime) {
    assert!(
        at >= now,
        "causality violation: scheduling at {at} while now is {now}"
    );
}

/// Why a `run_*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon passed; the next event (if any) lies beyond it.
    HorizonReached,
    /// The event budget given to `run_steps` was exhausted.
    BudgetExhausted,
}

/// Outcome of one `dispatch_next` call (internal to the run loops).
enum Dispatch {
    QueueEmpty,
    BeyondHorizon,
    Handled,
}

/// A discrete-event simulation: a model plus a clock and an event queue.
pub struct Simulation<M: SimModel> {
    model: M,
    pub(crate) queue: EventQueue<M::Event>,
    now: SimTime,
    events_handled: u64,
}

impl<M: SimModel> Simulation<M> {
    /// A simulation of `model` with an empty event queue at t = 0.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events_handled: 0,
        }
    }

    /// Like [`new`](Self::new) but on an explicitly constructed event
    /// queue — the way to select the timing-wheel backend
    /// ([`QueueBackend::Wheel`](crate::QueueBackend::Wheel)) for fleet-scale runs. Every backend
    /// produces bit-identical results; only speed differs.
    pub fn with_queue(model: M, queue: EventQueue<M::Event>) -> Self {
        Simulation {
            model,
            queue,
            now: SimTime::ZERO,
            events_handled: 0,
        }
    }

    /// The current simulated instant (time of the last handled event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Immutable access to the model (for inspection between runs).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for reconfiguration between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Seed the queue before (or between) runs.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        check_causal(self.now, at);
        self.queue.push(at, event);
    }

    /// Firing time of the earliest pending event, if any (see
    /// `EventQueue::peek_time`).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Make room on lane `lane` for `additional` more seeded events.
    pub fn reserve_lane(&mut self, lane: usize, additional: usize) {
        self.queue.reserve_lane(lane, additional);
    }

    /// Seed lane `lane` of the queue (see [`Ctx::schedule_lane`]).
    pub fn schedule_lane(&mut self, lane: usize, at: SimTime, event: M::Event) {
        check_causal(self.now, at);
        self.queue.push_lane(lane, at, 1, event);
    }

    /// Pop-and-handle one event with `horizon` as the cutoff — the
    /// single place every `run_*` loop body (and therefore every
    /// queue backend) is exercised.
    fn dispatch_next(&mut self, horizon: SimTime) -> Dispatch {
        let (t, n, ev) = match self.queue.pop_counted(horizon) {
            Popped::Empty => return Dispatch::QueueEmpty,
            Popped::Beyond => return Dispatch::BeyondHorizon,
            Popped::Event(t, (n, ev)) => (t, n, ev),
        };
        debug_assert!(t >= self.now, "event queue yielded an event in the past");
        self.now = t;
        self.events_handled += u64::from(n);
        let mut ctx = Ctx {
            now: t,
            queue: &mut self.queue,
            events_handled: self.events_handled,
        };
        self.model.handle(&mut ctx, ev);
        Dispatch::Handled
    }

    /// Run until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Run until the queue drains or the next event would fire **after**
    /// `horizon` (events exactly at the horizon are handled).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            match self.dispatch_next(horizon) {
                Dispatch::QueueEmpty => return RunOutcome::QueueEmpty,
                Dispatch::BeyondHorizon => {
                    // The clock still advances to the horizon so that
                    // wall-clock-style reporting between runs is sensible.
                    self.now = self.now.max(horizon);
                    return RunOutcome::HorizonReached;
                }
                Dispatch::Handled => {}
            }
        }
    }

    /// Run at most `budget` events (or until drained); a lane entry
    /// standing for several events is one step.
    pub(crate) fn run_steps(&mut self, budget: u64) -> RunOutcome {
        for _ in 0..budget {
            match self.dispatch_next(SimTime::MAX) {
                // Nothing outruns a `SimTime::MAX` horizon, so the
                // second arm never fires; folded in for totality.
                Dispatch::QueueEmpty | Dispatch::BeyondHorizon => {
                    return RunOutcome::QueueEmpty;
                }
                Dispatch::Handled => {}
            }
        }
        RunOutcome::BudgetExhausted
    }

    /// Consume the simulation and return the model.
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Backend, QueueBackend};
    use crate::time::SimDuration;

    /// A toy model: a ticker that counts ticks and re-schedules itself
    /// until it has ticked `stop_after` times.
    struct Ticker {
        period: SimDuration,
        ticks: u32,
        stop_after: u32,
        tick_times: Vec<SimTime>,
    }

    #[derive(Debug)]
    enum TickEvent {
        Tick,
    }

    impl SimModel for Ticker {
        type Event = TickEvent;
        fn handle(&mut self, ctx: &mut Ctx<'_, TickEvent>, _ev: TickEvent) {
            self.ticks += 1;
            self.tick_times.push(ctx.now());
            if self.ticks < self.stop_after {
                ctx.schedule_at(ctx.now() + self.period, TickEvent::Tick);
            }
        }
    }

    fn ticker(stop_after: u32) -> Simulation<Ticker> {
        let mut sim = Simulation::new(Ticker {
            period: SimDuration::from_secs(1),
            ticks: 0,
            stop_after,
            tick_times: Vec::new(),
        });
        sim.schedule_at(SimTime::ZERO, TickEvent::Tick);
        sim
    }

    #[test]
    fn ticker_drains_after_its_last_tick() {
        let mut sim = ticker(5);
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert_eq!(sim.model().ticks, 5);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.events_handled(), 5);
    }

    #[test]
    fn horizon_cuts_the_run_and_advances_clock() {
        let mut sim = ticker(1000);
        let outcome = sim.run_until(SimTime::from_secs(10));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Ticks at t=0..=10 inclusive: 11 ticks.
        assert_eq!(sim.model().ticks, 11);
        assert_eq!(sim.now(), SimTime::from_secs(10));
        // Resuming continues from the pending event.
        let outcome = sim.run_until(SimTime::from_secs(12));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.model().ticks, 13);
    }

    #[test]
    fn empty_queue_reports_drained() {
        struct Inert;
        impl SimModel for Inert {
            type Event = ();
            fn handle(&mut self, _ctx: &mut Ctx<'_, ()>, _ev: ()) {}
        }
        let mut sim = Simulation::new(Inert);
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert_eq!(sim.run_steps(1), RunOutcome::QueueEmpty);
    }

    #[test]
    fn run_steps_respects_budget() {
        let mut sim = ticker(1000);
        assert_eq!(sim.run_steps(3), RunOutcome::BudgetExhausted);
        assert_eq!(sim.model().ticks, 3);
    }

    #[test]
    fn tick_times_are_periodic() {
        let mut sim = ticker(4);
        sim.run();
        assert_eq!(
            sim.model().tick_times,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_in_the_past_panics() {
        let mut sim = ticker(3);
        sim.run();
        sim.schedule_at(SimTime::ZERO, TickEvent::Tick);
    }

    #[test]
    fn same_instant_events_fire_in_insertion_order() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl SimModel for Recorder {
            type Event = u32;
            fn handle(&mut self, _ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.seen.push(ev);
            }
        }
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(1), i);
        }
        sim.run();
        assert_eq!(sim.model().seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn into_model_returns_final_state() {
        let mut sim = ticker(2);
        sim.run();
        let m = sim.into_model();
        assert_eq!(m.ticks, 2);
    }

    #[test]
    fn wheel_backend_reproduces_the_heap_run_exactly() {
        let make = |backend| {
            let mut sim = Simulation::with_queue(
                Ticker {
                    period: SimDuration::from_millis(333),
                    ticks: 0,
                    stop_after: 500,
                    tick_times: Vec::new(),
                },
                EventQueue::with_backend(backend),
            );
            sim.schedule_at(SimTime::ZERO, TickEvent::Tick);
            sim
        };
        let mut heap = make(QueueBackend::Heap);
        let mut wheel = make(QueueBackend::Wheel);
        assert!(matches!(heap.queue.backend, Backend::Heap(_)));
        assert!(matches!(wheel.queue.backend, Backend::Wheel(_)));
        // Interleave horizon-bounded and budgeted runs to hit every loop.
        assert_eq!(
            heap.run_until(SimTime::from_secs(10)),
            wheel.run_until(SimTime::from_secs(10))
        );
        assert_eq!(heap.run_steps(7), wheel.run_steps(7));
        assert_eq!(heap.run_steps(1), wheel.run_steps(1));
        assert_eq!(heap.run(), wheel.run());
        assert_eq!(heap.now(), wheel.now());
        assert_eq!(heap.events_handled(), wheel.events_handled());
        assert_eq!(heap.model().tick_times, wheel.model().tick_times);
    }
}
