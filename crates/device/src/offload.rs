//! How an offloaded frame resolves.
//!
//! Every offloaded frame gets a deadline (`captured_at + 250 ms`, §II-B):
//! it either succeeds within it or times out, and a timeout is attributed
//! to a cause (`T_n` network vs `T_l` server load — Table I). The
//! bookkeeping that decides is [`crate::flight::FlightTable`]; the
//! hash-map `OffloadTracker` it replaced is kept, behind
//! [`testhooks`], as the oracle of `tests/flight_oracle.rs`.

use ff_sim::{SimDuration, SimTime};
use std::collections::HashMap;

/// Cause attribution for a timeout (Table I's `T_n` / `T_l` split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutCause {
    /// The network dropped the frame or consumed most of the deadline.
    Network,
    /// The server rejected the request or queued it past the deadline.
    ServerLoad,
}

/// Life-cycle state of one in-flight offloaded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Sent; still traversing the uplink.
    InNetwork,
    /// The uplink dropped it; the device only learns at the deadline.
    DroppedByNetwork,
    /// Arrived at the server (at the recorded instant); awaiting batch.
    AtServer { arrived_at: SimTime },
    /// Rejected by the server's batch-overflow policy.
    RejectedByServer,
}

/// Where a successful offload's end-to-end latency was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Capture → arrival at the server (uplink serialization, queueing,
    /// retransmissions, propagation). `None` if the arrival stage was
    /// never reported.
    pub uplink: Option<SimDuration>,
    /// Arrival at the server → response at the device (batch queueing,
    /// execution, downlink propagation). `None` when `uplink` is `None`.
    pub server_and_down: Option<SimDuration>,
}

/// Resolution of an offloaded frame, reported exactly once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadResolution {
    /// The response arrived with end-to-end latency within the deadline.
    Success {
        /// Capture-to-response latency.
        latency: SimDuration,
        /// Where the latency was spent.
        breakdown: LatencyBreakdown,
    },
    /// The deadline passed without a (timely) response.
    Timeout {
        /// Attributed cause (`T_n` vs `T_l`).
        cause: TimeoutCause,
    },
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    captured_at: SimTime,
    stage: Stage,
}

/// Test hooks for the flight-table oracle in `tests/flight_oracle.rs`.
#[doc(hidden)]
pub mod testhooks {
    pub use super::OffloadTracker;
}

/// Tracks all offloaded frames that have not yet been resolved.
#[derive(Debug, Clone)]
pub struct OffloadTracker {
    deadline: SimDuration,
    in_flight: HashMap<u64, InFlight>,
    resolved_success: u64,
    resolved_timeout: u64,
}

impl OffloadTracker {
    /// A tracker enforcing the given end-to-end deadline.
    pub fn new(deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        OffloadTracker {
            deadline,
            in_flight: HashMap::default(),
            resolved_success: 0,
            resolved_timeout: 0,
        }
    }

    /// The deadline instant for a frame captured at `captured_at`.
    pub fn deadline_for(&self, captured_at: SimTime) -> SimTime {
        captured_at + self.deadline
    }

    /// Register a frame the device just offloaded.
    pub fn sent(&mut self, tag: u64, captured_at: SimTime) {
        let prev = self.in_flight.insert(
            tag,
            InFlight {
                captured_at,
                stage: Stage::InNetwork,
            },
        );
        assert!(prev.is_none(), "tag {tag} offloaded twice");
    }

    /// The uplink reported this frame dropped (overflow or loss): the frame
    /// will time out; we already know the cause is the network.
    pub fn network_dropped(&mut self, tag: u64) {
        if let Some(f) = self.in_flight.get_mut(&tag) {
            f.stage = Stage::DroppedByNetwork;
        }
    }

    /// The frame arrived at the server.
    pub fn arrived_at_server(&mut self, tag: u64, at: SimTime) {
        if let Some(f) = self.in_flight.get_mut(&tag) {
            f.stage = Stage::AtServer { arrived_at: at };
        }
    }

    /// The server rejected the request (batch overflow).
    pub fn rejected_by_server(&mut self, tag: u64) {
        if let Some(f) = self.in_flight.get_mut(&tag) {
            f.stage = Stage::RejectedByServer;
        }
    }

    /// A response reached the device at `now`. Returns the resolution, or
    /// `None` if the frame was already resolved (late response after its
    /// deadline event fired).
    pub fn response_arrived(&mut self, tag: u64, now: SimTime) -> Option<OffloadResolution> {
        let f = self.in_flight.remove(&tag)?;
        let latency = now.saturating_since(f.captured_at);
        if latency <= self.deadline {
            self.resolved_success += 1;
            let breakdown = match f.stage {
                Stage::AtServer { arrived_at } => LatencyBreakdown {
                    uplink: Some(arrived_at.saturating_since(f.captured_at)),
                    server_and_down: Some(now.saturating_since(arrived_at)),
                },
                _ => LatencyBreakdown::default(),
            };
            Some(OffloadResolution::Success { latency, breakdown })
        } else {
            // Should not normally happen: the deadline event resolves the
            // frame first. Handle it anyway (events at the same instant).
            self.resolved_timeout += 1;
            Some(OffloadResolution::Timeout {
                cause: self.attribute(&f, now),
            })
        }
    }

    /// The deadline event for `tag` fired at `now`. Returns the timeout
    /// resolution, or `None` if the frame already succeeded.
    pub fn deadline_expired(&mut self, tag: u64, now: SimTime) -> Option<OffloadResolution> {
        let f = self.in_flight.remove(&tag)?;
        debug_assert!(now >= self.deadline_for(f.captured_at));
        self.resolved_timeout += 1;
        Some(OffloadResolution::Timeout {
            cause: self.attribute(&f, now),
        })
    }

    /// Resolve every in-flight frame whose deadline has strictly passed
    /// (`now > captured_at + deadline`), for hosts that poll instead of
    /// scheduling per-frame deadline events. Expired frames are returned
    /// in ascending tag order so polling hosts stay deterministic.
    pub fn expire_due(&mut self, now: SimTime) -> Vec<(u64, OffloadResolution)> {
        let mut due: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, f)| now > self.deadline_for(f.captured_at))
            .map(|(&tag, _)| tag)
            .collect();
        due.sort_unstable();
        due.into_iter()
            .map(|tag| {
                let resolution = self
                    .deadline_expired(tag, now)
                    .expect("frame was in flight");
                (tag, resolution)
            })
            .collect()
    }

    fn attribute(&self, f: &InFlight, _now: SimTime) -> TimeoutCause {
        match f.stage {
            Stage::InNetwork | Stage::DroppedByNetwork => TimeoutCause::Network,
            Stage::RejectedByServer => TimeoutCause::ServerLoad,
            Stage::AtServer { arrived_at } => {
                // The frame reached the server but the response was late.
                // Attribute by where the deadline budget went.
                let network_share = arrived_at.saturating_since(f.captured_at);
                if network_share > self.deadline / 2 {
                    TimeoutCause::Network
                } else {
                    TimeoutCause::ServerLoad
                }
            }
        }
    }

    /// Requests still unresolved.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Offloads resolved as successes.
    pub fn successes(&self) -> u64 {
        self.resolved_success
    }

    /// Offloads resolved as timeouts.
    pub fn timeouts(&self) -> u64 {
        self.resolved_timeout
    }
}
