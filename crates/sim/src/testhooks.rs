//! Test hooks: the lane-identity property, written once.
//!
//! [`replay`] plays a script of queue operations into a [`Simulation`]
//! whose queue uses lanes and into a plain binary heap fed one push per
//! logical event, and reports the first point at which the two disagree.
//! The facade's `tests/lane_identity.rs` drives it with arbitrary scripts
//! on both backends, so the root `cargo test` runs the property; there is
//! deliberately no second copy of it among this crate's unit tests.

use crate::engine::{Ctx, SimModel, Simulation};
use crate::queue::{EventQueue, Popped, QueueBackend, LANES};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of a [`replay`] script. Every `ahead` is in microseconds past
/// the latest instant the script has reached (the latest event popped or
/// horizon run to), which keeps any script causal.
#[derive(Debug, Clone, Copy)]
pub enum LaneOp {
    /// `Simulation::schedule_at`.
    Push {
        /// Distance ahead of the instant reached.
        ahead: u64,
    },
    /// A lane push standing for `n ≥ 1` events on lane `lane % LANES`.
    /// Nothing keeps `ahead` in step with the lane, so scripts exercise
    /// the out-of-order paths as well as the FIFO.
    PushLane {
        /// Lane index (taken modulo `LANES`).
        lane: usize,
        /// Distance ahead of the instant reached.
        ahead: u64,
        /// Events the entry stands for.
        n: u32,
    },
    /// `EventQueue::pop`.
    Pop,
    /// `EventQueue::pop_before`.
    PopBefore {
        /// Horizon, ahead of the instant reached.
        ahead: u64,
    },
    /// `Simulation::run_until`.
    RunUntil {
        /// Horizon, ahead of the instant reached.
        ahead: u64,
    },
    /// `Simulation::run_steps`.
    RunSteps {
        /// Entries to dispatch at most.
        budget: u64,
    },
    /// `EventQueue::clear`.
    Clear,
}

/// Payload: the index of the op that pushed it, and how many events it
/// stands for.
type Event = (usize, u32);

/// Records each logical event it is handed.
struct Recorder {
    seen: Vec<(SimTime, usize)>,
}

impl SimModel for Recorder {
    type Event = Event;
    fn handle(&mut self, ctx: &mut Ctx<'_, Event>, (id, n): Event) {
        for _ in 0..n {
            self.seen.push((ctx.now(), id));
        }
    }
}

/// The oracle: one heap, one counter, one entry per logical event.
#[derive(Default)]
struct Oracle {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
    popped: Vec<(SimTime, usize)>,
}

impl Oracle {
    fn push(&mut self, at: SimTime, id: usize) {
        self.heap.push(Reverse((at, self.next_seq, id)));
        self.next_seq += 1;
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, ..))| *t)
    }

    fn pop(&mut self, count: u64) {
        for _ in 0..count {
            if let Some(Reverse((t, _, id))) = self.heap.pop() {
                self.popped.push((t, id));
            }
        }
    }
}

/// Play `ops` on a laned queue over `backend` and on the oracle; `Err`
/// describes the first disagreement in popped `(time, event)` sequence,
/// pending count, next firing time or events handled.
pub fn replay(backend: QueueBackend, ops: &[LaneOp]) -> Result<(), String> {
    let mut sim = Simulation::with_queue(
        Recorder { seen: Vec::new() },
        EventQueue::with_backend(backend),
    );
    let mut oracle = Oracle::default();
    // The latest instant popped or run to; every push is at or after it.
    let mut reached = SimTime::ZERO;
    let mut dispatched = 0u64;
    let after = |reached: SimTime, ahead: u64| {
        let at = reached.checked_add(SimDuration::from_micros(ahead));
        at.unwrap_or(SimTime::MAX)
    };

    // The final drain is one more `RunUntil` that nothing outlasts.
    let drain = LaneOp::RunUntil { ahead: u64::MAX };
    for (id, &op) in ops.iter().chain([&drain]).enumerate() {
        match op {
            LaneOp::Push { ahead } => {
                let at = after(reached, ahead);
                sim.schedule_at(at, (id, 1));
                oracle.push(at, id);
            }
            LaneOp::PushLane { lane, ahead, n } => {
                let at = after(reached, ahead);
                sim.queue.push_lane(lane % LANES, at, n, (id, n));
                for _ in 0..n {
                    oracle.push(at, id);
                }
            }
            LaneOp::Pop | LaneOp::PopBefore { .. } => {
                let horizon = match op {
                    LaneOp::PopBefore { ahead } => after(reached, ahead),
                    _ => SimTime::MAX,
                };
                let want = match oracle.next_time() {
                    None => "empty",
                    Some(t) if t > horizon => "beyond",
                    Some(_) => "event",
                };
                let popped = match op {
                    LaneOp::Pop => match sim.queue.pop() {
                        Some((t, event)) => Popped::Event(t, event),
                        None => Popped::Empty,
                    },
                    _ => sim.queue.pop_before(horizon),
                };
                let got = match popped {
                    Popped::Empty => "empty",
                    Popped::Beyond => "beyond",
                    Popped::Event(t, (pushed_by, n)) => {
                        let model = sim.model_mut();
                        model.seen.extend((0..n).map(|_| (t, pushed_by)));
                        oracle.pop(u64::from(n));
                        reached = reached.max(t);
                        "event"
                    }
                };
                if got != want {
                    return Err(format!(
                        "op {id} {op:?}: popped {got}, the heap says {want}"
                    ));
                }
            }
            LaneOp::RunUntil { ahead } => {
                let horizon = after(reached, ahead);
                sim.run_until(horizon);
                while oracle.next_time().is_some_and(|t| t <= horizon) {
                    oracle.pop(1);
                    dispatched += 1;
                }
                // `run_until` moves the clock to the horizon, and nothing
                // may be scheduled behind the clock.
                if horizon != SimTime::MAX {
                    reached = horizon;
                }
            }
            LaneOp::RunSteps { budget } => {
                let before = sim.events_handled();
                sim.run_steps(budget);
                let handled = sim.events_handled() - before;
                oracle.pop(handled);
                dispatched += handled;
            }
            LaneOp::Clear => {
                sim.queue.clear();
                oracle.heap.clear();
            }
        }
        reached = reached.max(sim.now());
        let seen = &sim.model().seen;
        if *seen != oracle.popped {
            let at = seen
                .iter()
                .zip(&oracle.popped)
                .take_while(|(a, b)| a == b)
                .count();
            return Err(format!(
                "op {id} {op:?}: event #{at} is {:?}, the heap pops {:?}",
                seen.get(at),
                oracle.popped.get(at)
            ));
        }
        if sim.queue.len() != oracle.heap.len() {
            return Err(format!(
                "op {id} {op:?}: {} pending, the heap holds {}",
                sim.queue.len(),
                oracle.heap.len()
            ));
        }
        if sim.events_handled() != dispatched {
            return Err(format!(
                "op {id} {op:?}: {} events handled, the heap popped {dispatched}",
                sim.events_handled()
            ));
        }
        if matches!(op, LaneOp::Clear | LaneOp::RunSteps { .. })
            && sim.queue.peek_time() != oracle.next_time()
        {
            return Err(format!("op {id} {op:?}: next firing times differ"));
        }
    }
    Ok(())
}
