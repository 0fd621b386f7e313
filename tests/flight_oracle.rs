//! `FlightTable` against the hash-map tracker it replaced.
//!
//! Every host tracks its in-flight offloads in a `FlightTable`, a ring
//! indexed by the tag's sequence bits. `ff_device::offload_testhooks`
//! keeps the `OffloadTracker` it replaced — a plain `HashMap` from tag
//! to frame — as the oracle: any sequence of sends, drops, arrivals,
//! rejections, responses, deadline events and polling sweeps must
//! resolve the same frames the same way on both.

use framefeedback::device::offload_testhooks::OffloadTracker;
use framefeedback::device::{FlightTable, OffloadResolution};
use framefeedback::sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// `⌈deadline × F_s⌉`, as the fleet sizes its tables.
fn window_frames(deadline: SimDuration, fps: f64) -> usize {
    (deadline.as_secs_f64() * fps).ceil() as usize
}

/// One randomized operation against both trackers.
#[derive(Debug, Clone)]
enum Op {
    Sent(u64),
    Dropped(u64),
    Arrived(u64),
    Rejected(u64),
    Response(u64),
    Deadline(u64),
    /// A polling host's sweep: no tag, everything overdue goes.
    ExpireDue,
}

fn op(kind: u8, tag: u64) -> Op {
    match kind {
        0 => Op::Sent(tag),
        1 => Op::Dropped(tag),
        2 => Op::Arrived(tag),
        3 => Op::Rejected(tag),
        4 => Op::Response(tag),
        5 => Op::Deadline(tag),
        _ => Op::ExpireDue,
    }
}

/// Deadline (ms) and frame rate of the differential's tables: the
/// paper's (inline), then windows of 15, 30, 60 and 120 frames, which
/// start spilled at 16, 32, 64 and 128 slots.
const WINDOWS: [(u64, f64); 5] = [
    (250, 30.0),
    (250, 60.0),
    (1_000, 30.0),
    (1_000, 60.0),
    (2_000, 60.0),
];

/// Drive `FlightTable` and the hash-map `OffloadTracker` through
/// `ops`, one every 40 ms so both success and timeout paths are
/// exercised, and demand identical resolutions and counters.
fn assert_matches_tracker(deadline_ms: u64, fps: f64, ops: Vec<Op>) -> Result<(), String> {
    let deadline = SimDuration::from_millis(deadline_ms);
    let mut slab = FlightTable::new(deadline, window_frames(deadline, fps));
    let mut map = OffloadTracker::new(deadline);
    let mut live: Vec<(u64, SimTime)> = Vec::new();
    for (step, op) in ops.into_iter().enumerate() {
        let now = SimTime::from_millis(step as u64 * 40);
        match op {
            Op::Sent(tag) => {
                if !live.iter().any(|&(t, _)| t == tag) {
                    slab.sent(tag, now);
                    map.sent(tag, now);
                    live.push((tag, now));
                }
            }
            Op::Dropped(tag) => {
                slab.network_dropped(tag);
                map.network_dropped(tag);
            }
            Op::Arrived(tag) => {
                slab.arrived_at_server(tag, now);
                map.arrived_at_server(tag, now);
            }
            Op::Rejected(tag) => {
                slab.rejected_by_server(tag);
                map.rejected_by_server(tag);
            }
            Op::Response(tag) => {
                let a = slab.response_arrived(tag, now);
                let b = map.response_arrived(tag, now);
                prop_assert_eq!(a, b);
                live.retain(|&(t, _)| t != tag);
            }
            Op::Deadline(tag) => {
                // Only fire deadlines that are actually due, to
                // respect the trackers' debug assertions.
                let due = match live.iter().find(|&&(t, _)| t == tag) {
                    Some(&(_, captured)) => now >= map.deadline_for(captured),
                    None => true,
                };
                if due {
                    let a = slab.deadline_expired(tag, now);
                    let b = map.deadline_expired(tag, now);
                    prop_assert_eq!(a, b);
                    live.retain(|&(t, _)| t != tag);
                }
            }
            Op::ExpireDue => {
                // Same tags, same (ascending) order, same causes.
                let a = slab.expire_due(now);
                let b: Vec<_> = map
                    .expire_due(now)
                    .into_iter()
                    .map(|(tag, resolution)| match resolution {
                        OffloadResolution::Timeout { cause } => (tag, cause),
                        OffloadResolution::Success { .. } => unreachable!("sweeps only expire"),
                    })
                    .collect();
                prop_assert_eq!(a, b);
                live.retain(|&(_, captured)| now <= map.deadline_for(captured));
            }
        }
        prop_assert_eq!(slab.in_flight(), map.in_flight());
        prop_assert_eq!(slab.successes(), map.successes());
        prop_assert_eq!(slab.timeouts(), map.timeouts());
    }
    Ok(())
}

proptest! {
    /// Differential: any operation sequence — per-tag deadline
    /// events and polling sweeps alike — drives `FlightTable` and
    /// `OffloadTracker` to identical resolutions and counters, on a
    /// table that stays inline, one that spills mid-sequence, one
    /// that re-seats its spilled ring, and ones that start spilled.
    ///
    /// Tags are `lane + (k << stride_log2)`: stride 1 is a device's
    /// dense sequence numbers, stride 8 makes every tag of a lane
    /// congruent modulo the inline ring, larger strides modulo the
    /// spilled sizes too. With `plain` they are a live host's frame
    /// counter instead: every send takes the next number, the other
    /// operations address one of the last twenty.
    #[test]
    fn flight_table_matches_offload_tracker(
        window in 0usize..WINDOWS.len(),
        stride_log2 in 0u32..7,
        plain in any::<bool>(),
        draws in proptest::collection::vec((0u64..3, 0u64..24, 0u8..7), 1..160),
    ) {
        let (deadline_ms, fps) = WINDOWS[window];
        let mut next_seq = 0u64;
        let ops = draws
            .into_iter()
            .map(|(lane, k, kind)| {
                let tag = if !plain {
                    lane + (k << stride_log2)
                } else if kind == 0 {
                    next_seq += 1;
                    next_seq - 1
                } else {
                    next_seq.saturating_sub(1 + (lane * 24 + k) % 20)
                };
                op(kind, tag)
            })
            .collect();
        assert_matches_tracker(deadline_ms, fps, ops)?;
    }
}
