//! The event queue's FIFO lanes change nothing but speed.
//!
//! A queue using lanes and a plain binary heap fed one push per logical
//! event must pop the identical `(time, event)` sequence, agree on the
//! pending count and on events handled, under any interleaving of plain
//! pushes, lane pushes (in step with the lane and not), entries standing
//! for several events, `pop`, `pop_before` slices, `run_until`,
//! `run_steps` and `clear` — on both backends. The property lives in
//! `ff_sim::testhooks::replay`; this file generates the scripts, so the
//! root `cargo test` is what runs it.

use framefeedback::sim::testhooks::{replay, LaneOp};
use framefeedback::sim::QueueBackend;
use proptest::prelude::*;

/// Expand one generated tuple into an operation. Distances are either
/// tiny — so pushes from different sources collide on one instant and
/// lane pushes fall out of step by a microsecond — or scaled across the
/// wheel's level boundaries and its overflow region.
fn op((kind, raw, shift_sel, pick): (u8, u16, u8, u8)) -> LaneOp {
    let ahead = if raw % 3 == 0 {
        u64::from(raw % 4)
    } else {
        u64::from(raw) << [0u32, 6, 14, 30, 47][shift_sel as usize % 5]
    };
    // The low bits pick the lane, the rest a small count.
    let (lane, n) = (pick as usize % 4, pick / 4);
    match kind {
        0..=3 => LaneOp::Push { ahead },
        4..=9 => LaneOp::PushLane { lane, ahead, n: 1 },
        10..=11 => LaneOp::PushLane {
            lane,
            ahead,
            n: u32::from(n % 5) + 1,
        },
        12 => LaneOp::Pop,
        13..=14 => LaneOp::PopBefore { ahead },
        15..=16 => LaneOp::RunUntil { ahead },
        17..=18 => LaneOp::RunSteps {
            budget: u64::from(n % 7),
        },
        _ => LaneOp::Clear,
    }
}

proptest! {
    #[test]
    fn prop_a_laned_queue_pops_like_one_heap_on_both_backends(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0u8..20, any::<u16>(), 0u8..5, any::<u8>()), 1..300),
            8,
        ),
    ) {
        for script in scripts {
            let ops: Vec<LaneOp> = script.into_iter().map(op).collect();
            for backend in [QueueBackend::Heap, QueueBackend::Wheel] {
                if let Err(why) = replay(backend, &ops) {
                    panic!("{backend:?}: {why}\n{ops:?}");
                }
            }
        }
    }
}

#[test]
fn a_same_instant_tie_between_a_lane_and_the_backend_pops_in_push_order() {
    // One instant, five sources: the pop order is the push order, and the
    // entry for three events pops in the first one's place.
    let ops = [
        LaneOp::Push { ahead: 9 },
        LaneOp::PushLane {
            lane: 2,
            ahead: 9,
            n: 1,
        },
        LaneOp::PushLane {
            lane: 3,
            ahead: 9,
            n: 3,
        },
        LaneOp::Push { ahead: 9 },
        LaneOp::PushLane {
            lane: 2,
            ahead: 4,
            n: 1,
        }, // out of step: backend
        LaneOp::PushLane {
            lane: 3,
            ahead: 4,
            n: 2,
        }, // out of step: inserted
        LaneOp::PushLane {
            lane: 0,
            ahead: 9,
            n: 1,
        },
        LaneOp::RunSteps { budget: 3 },
        LaneOp::PopBefore { ahead: 0 },
        LaneOp::Pop,
    ];
    for backend in [QueueBackend::Heap, QueueBackend::Wheel] {
        replay(backend, &ops).unwrap_or_else(|why| panic!("{backend:?}: {why}"));
    }
}
