//! # ff-sim — deterministic discrete-event simulation engine
//!
//! The substrate on which the FrameFeedback reproduction runs. The paper's
//! testbed (Raspberry Pis, a V100 server, a NetEm-shaped wireless link) is
//! replaced by a discrete-event simulation; this crate provides the three
//! primitives every other simulated component builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time,
//! * [`EventQueue`] / [`Simulation`] — a deterministic executor with
//!   insertion-order tie-breaking for simultaneous events,
//! * [`RngFactory`] — named, independently seeded ChaCha8 random streams
//!   so that runs are bit-reproducible.
//!
//! ## Example
//!
//! ```
//! use ff_sim::{Ctx, SimDuration, SimModel, SimTime, Simulation};
//!
//! struct Counter { n: u32 }
//! enum Ev { Bump }
//!
//! impl SimModel for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, _ev: Ev) {
//!         self.n += 1;
//!         if self.n < 3 {
//!             ctx.schedule_at(ctx.now() + SimDuration::from_millis(10), Ev::Bump);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { n: 0 });
//! sim.schedule_at(SimTime::ZERO, Ev::Bump);
//! sim.run();
//! assert_eq!(sim.model().n, 3);
//! assert_eq!(sim.now(), SimTime::from_millis(20));
//! ```

#![warn(missing_docs)]

mod engine;
mod par;
mod queue;
mod rng;
#[doc(hidden)]
pub mod testhooks;
mod time;
mod wheel;

pub use engine::{Ctx, RunOutcome, SimModel, Simulation};
pub use par::{run_phased, run_phased_skipping};
pub use queue::{EventQueue, QueueBackend, LANES, LANE_RUN_MAX};
pub use rng::{IndexedStream, RngFactory};
pub use time::{round_nonneg_f64, SimDuration, SimTime};
pub use wheel::{PopBefore, TimerWheel};
