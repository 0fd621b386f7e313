//! Deadline timers for the reactor: the sim's hierarchical timing wheel
//! driven by wall-clock time.
//!
//! The reactor schedules the same event kinds the simulator does —
//! capture pacing, offload deadlines, controller ticks, local inference
//! completions — so it reuses [`ff_sim::TimerWheel`] verbatim (amortized
//! O(1) push/pop, `(time, seq)` FIFO determinism) and merely maps
//! `Instant`s onto the wheel's microsecond axis through the device tier's
//! `WallClock`. Backward clock jumps are legal: the wheel files
//! behind-cursor pushes in a side heap and still pops in exact
//! `(time, seq)` order, which the tests below pin down.

use ff_sim::{PopBefore, SimTime, TimerWheel};

/// A wall-clock deadline wheel over payloads of type `E`.
pub(crate) struct DeadlineWheel<E> {
    wheel: TimerWheel<E>,
    seq: u64,
}

impl<E> Default for DeadlineWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> DeadlineWheel<E> {
    /// An empty wheel.
    pub(crate) fn new() -> Self {
        DeadlineWheel {
            wheel: TimerWheel::new(),
            seq: 0,
        }
    }

    /// Schedule `event` to fire at `at`. Scheduling in the past is legal
    /// and fires on the next [`pop_due`](Self::pop_due).
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.wheel.push(at.as_micros(), seq, event);
    }

    /// The earliest pending fire time, if any.
    pub(crate) fn next_deadline(&mut self) -> Option<SimTime> {
        self.wheel.peek().map(|(t, _)| SimTime::from_micros(t))
    }

    /// Pop the earliest timer due at or before `now`; `None` when the
    /// earliest timer is still in the future (or nothing is pending).
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.wheel.pop_before(now.as_micros()) {
            PopBefore::Event(t, _seq, e) => Some((SimTime::from_micros(t), e)),
            PopBefore::Beyond | PopBefore::Empty => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut DeadlineWheel<u32>, now: SimTime) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some((_, e)) = w.pop_due(now) {
            out.push(e);
        }
        out
    }

    #[test]
    fn fires_in_time_order_with_fifo_ties() {
        let mut w = DeadlineWheel::new();
        w.schedule(SimTime::from_millis(30), 3);
        w.schedule(SimTime::from_millis(10), 1);
        w.schedule(SimTime::from_millis(10), 2);
        assert_eq!(w.next_deadline(), Some(SimTime::from_millis(10)));
        assert_eq!(drain(&mut w, SimTime::from_millis(10)), vec![1, 2]);
        assert!(w.pop_due(SimTime::from_millis(29)).is_none());
        assert_eq!(drain(&mut w, SimTime::from_millis(30)), vec![3]);
        assert!(w.wheel.is_empty());
    }

    #[test]
    fn expiry_ordering_survives_backward_clock_jumps() {
        let mut w = DeadlineWheel::new();
        // Fire one timer far along the timeline, then "jump back": new
        // timers scheduled before the wheel cursor must still fire, in
        // exact time order relative to everything else.
        w.schedule(SimTime::from_secs(100), 0);
        assert_eq!(drain(&mut w, SimTime::from_secs(100)), vec![0]);
        w.schedule(SimTime::from_secs(50), 1); // behind the cursor
        w.schedule(SimTime::from_secs(150), 3);
        w.schedule(SimTime::from_secs(50), 2); // tie with #1, FIFO
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(50)));
        assert_eq!(drain(&mut w, SimTime::from_secs(49)), Vec::<u32>::new());
        assert_eq!(drain(&mut w, SimTime::from_secs(50)), vec![1, 2]);
        assert_eq!(drain(&mut w, SimTime::from_secs(200)), vec![3]);
    }

    #[test]
    fn forward_clock_jumps_fire_everything_due_in_order() {
        let mut w = DeadlineWheel::new();
        for i in 0..100u32 {
            w.schedule(SimTime::from_millis(u64::from(i) * 7), i);
        }
        // A large forward jump (the host slept) delivers the whole
        // backlog at once, still sorted by deadline.
        let fired = drain(&mut w, SimTime::from_secs(10));
        assert_eq!(fired, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_the_horizon_exactly() {
        let mut w = DeadlineWheel::new();
        w.schedule(SimTime::from_micros(1_000), 1);
        assert!(w.pop_due(SimTime::from_micros(999)).is_none());
        let (at, e) = w.pop_due(SimTime::from_micros(1_000)).expect("due");
        assert_eq!((at, e), (SimTime::from_micros(1_000), 1));
    }
}
