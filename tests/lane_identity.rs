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
//!
//! The last test lifts the claim to a whole fleet: the heap backend with
//! fresh batch buffers and the timing wheel with reused ones must compute
//! the same run, bit for bit.

use framefeedback::controller::{Controller, FrameFeedback};
use framefeedback::device::{
    run_fleet, EngineOptions, FleetConfig, FleetDeviceConfig, FleetDeviceResult,
};
use framefeedback::models::{DeviceKind, ModelKind};
use framefeedback::server::{ServerSpec, TierConfig};
use framefeedback::sim::testhooks::{replay, LaneOp};
use framefeedback::sim::QueueBackend;
use framefeedback::workload::table_v;
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

#[test]
fn wheel_backend_and_buffer_reuse_reproduce_the_heap_run_exactly() {
    // 64 Table V devices on two servers: enough load that batches
    // overflow, so completions and rejections both flow through the
    // reused `BatchOutput` on one side and fresh ones on the other.
    let fleet = |backend, reuse_batch_buffers| {
        let mut c = FleetConfig {
            devices: vec![
                FleetDeviceConfig {
                    device: DeviceKind::Pi4BRev12,
                    model: ModelKind::MobileNetV3Small,
                };
                64
            ],
            network: table_v(),
            tier: Some(TierConfig::uniform(2, ServerSpec::default())),
            engine: EngineOptions {
                backend,
                reuse_batch_buffers,
                shards: 1,
            },
            ..FleetConfig::default()
        };
        c.stream.total_frames = 450;
        let controllers = (0..64)
            .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
            .collect();
        run_fleet(c, controllers)
    };
    let a = fleet(QueueBackend::Heap, false);
    let b = fleet(QueueBackend::Wheel, true);

    // Every float of a QoS log, as raw bits.
    let bits = |d: &FleetDeviceResult| -> Vec<u64> {
        d.qos
            .records()
            .iter()
            .flat_map(|r| {
                [
                    r.t_secs,
                    r.pl,
                    r.po,
                    r.timeouts,
                    r.timeouts_network,
                    r.timeouts_load,
                    r.po_target,
                    r.accuracy_weighted_throughput,
                ]
            })
            .map(f64::to_bits)
            .collect()
    };
    assert!(a.server_stats.completions > 0 && a.server_stats.rejections > 0);
    assert_eq!(a.devices.len(), b.devices.len());
    for (i, (da, db)) in a.devices.iter().zip(&b.devices).enumerate() {
        assert_eq!(bits(da), bits(db), "device {i}: QoS log diverged");
        assert_eq!(da.frames_offloaded, db.frames_offloaded, "device {i}");
        assert_eq!(da.frames_local, db.frames_local, "device {i}");
        assert_eq!(da.offload_successes, db.offload_successes, "device {i}");
        assert_eq!(da.offload_timeouts, db.offload_timeouts, "device {i}");
    }
    assert_eq!(a.server_stats, b.server_stats);
    assert_eq!(a.rejections_by_device, b.rejections_by_device);
    assert_eq!(a.events_handled, b.events_handled);
}
