//! Phased coordinator/worker execution for sharded simulations.
//!
//! [`run_phased`] is the thread harness under conservative time-window
//! synchronization: one **coordinator** closure on the calling thread
//! and one **worker** state per shard, advanced in lockstep rounds.
//! Round `r` runs
//!
//! ```text
//! coordinator(r)            (workers blocked at the round barrier)
//! --- barrier ---
//! worker(shard, r, state)   (coordinator blocked, one thread per shard)
//! --- barrier ---
//! coordinator(r + 1) ...
//! ```
//!
//! The two barriers make every round a pair of strictly alternating
//! critical sections: the coordinator phase and the worker phase never
//! overlap, so data handed across the barrier (mailboxes of timestamped
//! events) needs no locking discipline beyond `Sync` ownership, and the
//! schedule of phase boundaries is independent of thread timing — which
//! is what lets a sharded simulation promise bit-identical results at
//! any shard count.
//!
//! The coordinator keeps a thread of its own although it sleeps through
//! every worker phase. Running shard 0's worker phase on it instead (`k`
//! threads for `k` shards) was tried: 6–17 % faster in the median on a
//! 2-core host, but it ties the serial phase to one core for the whole
//! run, and on a busy shared host the run times spread twice as widely.
//!
//! The harness itself knows nothing about simulations: it moves each
//! state into its thread, drives the round structure, and moves the
//! states back out at the end.

use std::panic::resume_unwind;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// The barrier broke: a participant panicked.
struct Poisoned;

/// `std::sync::Barrier` plus a poison flag: a reusable barrier for a
/// fixed set of threads that alternate phases, where a participant that
/// unwinds releases everyone else with an error instead of leaving them
/// waiting for an arrival that will never come.
struct PhaseBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    released: Condvar,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    /// Counts completed phases, so a waiter can tell its own phase's
    /// release from a spurious wake-up.
    phase: u64,
    poisoned: bool,
}

impl PhaseBarrier {
    fn new(parties: usize) -> Self {
        PhaseBarrier {
            parties,
            state: Mutex::default(),
            released: Condvar::new(),
        }
    }

    /// Block until all `parties` have arrived, or the barrier is
    /// poisoned.
    fn wait(&self) -> Result<(), Poisoned> {
        let mut state = self.state();
        state.arrived += 1;
        if state.arrived == self.parties {
            state.arrived = 0;
            state.phase += 1;
            self.released.notify_all();
        } else {
            let phase = state.phase;
            while state.phase == phase && !state.poisoned {
                state = self
                    .released
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if state.poisoned {
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    /// Release every current and future waiter with an error.
    fn poison(&self) {
        self.state().poisoned = true;
        self.released.notify_all();
    }

    fn state(&self) -> MutexGuard<'_, BarrierState> {
        // Nothing panics while holding the lock; a panicking participant
        // must still be able to poison.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poisons the barrier if the thread holding it unwinds.
struct PoisonOnPanic<'a>(&'a PhaseBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.poison();
        }
    }
}

/// Run `rounds` lockstep rounds over `states`, one worker thread per
/// state plus the coordinator on the calling thread.
///
/// Per round `r`: first `coordinator(r)` runs alone; then every worker
/// runs `worker(shard_index, r, &mut state)` in parallel; then the next
/// round begins. Returns the states in their original order.
///
/// With no states the coordinator still runs all rounds (degenerate but
/// well-defined).
///
/// # Panics
///
/// A panic in the coordinator or in any worker breaks the barrier: every
/// other thread leaves at its next wait, and `run_phased` re-raises the
/// original panic on the calling thread. It never hangs.
pub fn run_phased<S, C, W>(mut states: Vec<S>, rounds: u64, mut coordinator: C, worker: W) -> Vec<S>
where
    S: Send,
    C: FnMut(u64),
    W: Fn(usize, u64, &mut S) + Sync,
{
    let k = states.len();
    if k == 0 {
        for r in 0..rounds {
            coordinator(r);
        }
        return states;
    }
    let barrier = &PhaseBarrier::new(k + 1);
    let worker = &worker;
    thread::scope(|scope| {
        let handles: Vec<_> = states
            .drain(..)
            .enumerate()
            .map(|(i, mut state)| {
                scope.spawn(move || {
                    let _poison = PoisonOnPanic(barrier);
                    for r in 0..rounds {
                        barrier.wait().ok()?;
                        worker(i, r, &mut state);
                        barrier.wait().ok()?;
                    }
                    Some(state)
                })
            })
            .collect();
        {
            let _poison = PoisonOnPanic(barrier);
            for r in 0..rounds {
                coordinator(r);
                // Release the workers into round `r`, then wait for all
                // of them to finish it.
                if barrier.wait().is_err() || barrier.wait().is_err() {
                    break;
                }
            }
        }
        let mut out = Vec::with_capacity(k);
        for handle in handles {
            match handle.join() {
                Ok(Some(state)) => out.push(state),
                // Left through the broken barrier; the thread that broke
                // it is still to be joined.
                Ok(None) => {}
                Err(panic) => resume_unwind(panic),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn phases_strictly_alternate() {
        // Every worker appends (round, shard); the coordinator appends
        // (round, usize::MAX) before releasing the round. The log must
        // show each round's coordinator entry before any of that
        // round's worker entries, and all of round r before round r+1.
        let log = Mutex::new(Vec::new());
        let states = vec![(), (), ()];
        run_phased(
            states,
            5,
            |r| log.lock().unwrap().push((r, usize::MAX)),
            |shard, r, _state| log.lock().unwrap().push((r, shard)),
        );
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 5 * 4);
        for r in 0..5u64 {
            let chunk = &log[(r as usize) * 4..(r as usize) * 4 + 4];
            assert_eq!(chunk[0], (r, usize::MAX), "coordinator first in {r}");
            let mut shards: Vec<usize> = chunk[1..].iter().map(|&(_, s)| s).collect();
            shards.sort_unstable();
            assert_eq!(shards, vec![0, 1, 2]);
            for &(round, _) in chunk {
                assert_eq!(round, r);
            }
        }
    }

    #[test]
    fn states_come_back_in_order_with_all_rounds_applied() {
        let states: Vec<u64> = vec![100, 200, 300];
        let out = run_phased(
            states,
            10,
            |_r| {},
            |shard, _r, state| *state += 1 + shard as u64,
        );
        assert_eq!(out, vec![110, 220, 330]);
    }

    #[test]
    fn zero_states_still_runs_the_coordinator() {
        let mut n = 0;
        let out: Vec<()> = run_phased(Vec::new(), 7, |_| n += 1, |_, _, _: &mut ()| {});
        assert!(out.is_empty());
        assert_eq!(n, 7);
    }

    /// Run `f` on its own thread and fail, instead of hanging the suite,
    /// if it has not finished within the watchdog's patience.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(20))
            .expect("run_phased hung instead of propagating the panic")
    }

    fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
        panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn a_panicking_worker_propagates_instead_of_hanging() {
        // Whichever shard fails, the original panic must come out of
        // `run_phased`, with the other threads released.
        for failing in [0usize, 1, 2] {
            let outcome = within_watchdog(move || {
                std::panic::catch_unwind(|| {
                    run_phased(
                        vec![(), (), ()],
                        5,
                        |_| {},
                        |shard, r, _: &mut ()| {
                            if shard == failing && r == 2 {
                                panic!("shard {shard} failed in round {r}");
                            }
                        },
                    )
                })
            });
            let panic = outcome.expect_err("the worker's panic must propagate");
            assert_eq!(
                panic_message(panic),
                format!("shard {failing} failed in round 2")
            );
        }
    }

    #[test]
    fn a_panicking_coordinator_releases_the_workers() {
        let outcome = within_watchdog(|| {
            std::panic::catch_unwind(|| {
                run_phased(
                    vec![(), ()],
                    5,
                    |r| assert!(r < 2, "coordinator failed in round {r}"),
                    |_, _, _: &mut ()| {},
                )
            })
        });
        let panic = outcome.expect_err("the coordinator's panic must propagate");
        assert_eq!(panic_message(panic), "coordinator failed in round 2");
    }
}
