//! Differential determinism for the multi-server tier.
//!
//! Two contracts pinned here:
//!
//! 1. **N = 1 is the legacy topology, bit for bit.** Running any config
//!    with an explicit single-server [`TierConfig`] must reproduce the
//!    `tier: None` path exactly — same QoS records (compared as f64 bit
//!    patterns, no tolerance), same counters — for both the
//!    single-device experiment and the fleet. The refactor moved the
//!    server behind the tier; this test is the proof it moved nothing
//!    else.
//! 2. **Fleet grids are schedule-independent.** A 4-server grid crossing
//!    routing (with its dedicated RNG stream) and token-bucket admission
//!    must aggregate bit-identically at 1, 4, and 8 workers — the same
//!    guarantee `sweep_determinism.rs` pins for single-device grids,
//!    now covering the tier's routing RNG and gossip state.

use framefeedback::device::{
    run_experiment, run_fleet, ExperimentConfig, FleetConfig, FleetDeviceConfig,
};
use framefeedback::metrics::QosRecord;
use framefeedback::models::{DeviceKind, GpuProfile, ModelKind};
use framefeedback::server::{OverflowPolicy, ServerSpec, TierConfig};
use framefeedback::sim::SimDuration;
use framefeedback::sweep::{
    run_fleet_sweep, AdmissionSpec, ControllerSpec, FleetSweepSpec, RoutingSpec, SweepOptions,
};

const MASTER_SEED: u64 = 0x713A_5EED;

/// Bit-pattern equality for QoS records: `to_bits` on every f64 field,
/// so a `-0.0` vs `0.0` or NaN drift fails where `==` would lie.
fn assert_qos_bits_equal(a: &[QosRecord], b: &[QosRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record counts differ");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        for (field, (va, vb)) in [
            ("t_secs", (ra.t_secs, rb.t_secs)),
            ("pl", (ra.pl, rb.pl)),
            ("po", (ra.po, rb.po)),
            ("timeouts", (ra.timeouts, rb.timeouts)),
            (
                "timeouts_network",
                (ra.timeouts_network, rb.timeouts_network),
            ),
            ("timeouts_load", (ra.timeouts_load, rb.timeouts_load)),
            ("po_target", (ra.po_target, rb.po_target)),
            (
                "accuracy_weighted_throughput",
                (
                    ra.accuracy_weighted_throughput,
                    rb.accuracy_weighted_throughput,
                ),
            ),
        ] {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{what}: record {i} field {field}: {va} vs {vb}"
            );
        }
    }
}

#[test]
fn single_server_tier_reproduces_the_legacy_experiment_exactly() {
    let mut legacy = ExperimentConfig::default();
    legacy.seed = MASTER_SEED;
    legacy.stream.total_frames = 600; // 20 s
    let mut tiered = legacy.clone();
    tiered.tier = Some(TierConfig::single(
        GpuProfile::default(),
        OverflowPolicy::default(),
    ));

    let a = run_experiment(
        legacy,
        Box::new(framefeedback::controller::FrameFeedback::new()),
    );
    let b = run_experiment(
        tiered,
        Box::new(framefeedback::controller::FrameFeedback::new()),
    );

    assert_qos_bits_equal(a.qos.records(), b.qos.records(), "experiment qos");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "full experiment results must serialize identically"
    );
}

#[test]
fn single_server_tier_reproduces_the_legacy_fleet_exactly() {
    let legacy = || {
        let mut c = FleetConfig::default();
        c.seed = MASTER_SEED;
        c.stream.total_frames = 600;
        c
    };
    let controllers = || {
        (0..3)
            .map(|_| {
                Box::new(framefeedback::controller::FrameFeedback::new())
                    as Box<dyn framefeedback::controller::Controller>
            })
            .collect::<Vec<_>>()
    };
    let mut tiered = legacy();
    tiered.tier = Some(TierConfig::single(
        GpuProfile::default(),
        OverflowPolicy::RejectNewest,
    ));

    let a = run_fleet(legacy(), controllers());
    let b = run_fleet(tiered, controllers());

    for (i, (da, db)) in a.devices.iter().zip(&b.devices).enumerate() {
        assert_qos_bits_equal(
            da.qos.records(),
            db.qos.records(),
            &format!("device {i} qos"),
        );
        assert_eq!(da.frames_offloaded, db.frames_offloaded);
        assert_eq!(da.offload_successes, db.offload_successes);
        assert_eq!(da.offload_timeouts, db.offload_timeouts);
    }
    assert_eq!(a.server_stats, b.server_stats);
    assert_eq!(a.rejections_by_device, b.rejections_by_device);
    assert_eq!(a.events_handled, b.events_handled);
    assert_eq!(b.per_server_stats.len(), 1);
    assert_eq!(b.per_server_stats[0], b.server_stats);
}

/// A 4-cell fleet grid over a four-server tier: two seeds × two routing
/// policies (one RNG-free, one drawing from the routing stream) under
/// token-bucket admission, six devices each.
fn four_server_grid() -> FleetSweepSpec {
    let mut config = FleetConfig::default();
    config.stream.total_frames = 240; // 8 s
    config.devices = (0..6)
        .map(|_| FleetDeviceConfig {
            device: DeviceKind::Pi4BRev12,
            model: ModelKind::MobileNetV3Small,
        })
        .collect();
    config.tier = Some(TierConfig::uniform(4, ServerSpec::default()));
    FleetSweepSpec {
        name: "tier-determinism".into(),
        scenarios: vec![("four-servers".into(), config)],
        seeds: vec![MASTER_SEED, MASTER_SEED.wrapping_add(1)],
        routings: vec![
            (
                "jsq".into(),
                RoutingSpec::JoinShortestQueue {
                    gossip_interval: SimDuration::from_millis(500),
                },
            ),
            ("po2c".into(), RoutingSpec::PowerOfTwoChoices),
        ],
        admissions: vec![(
            "token-bucket".into(),
            AdmissionSpec::TokenBucket {
                rate_rps: 20.0,
                burst: 20.0,
            },
        )],
        controllers: vec![(
            "all-pd".into(),
            (0..6).map(|_| ControllerSpec::framefeedback()).collect(),
        )],
    }
}

#[test]
fn four_server_fleet_grid_is_bit_identical_at_every_worker_count() {
    let spec = four_server_grid();
    let reference = run_fleet_sweep(&spec, &SweepOptions::serial());
    assert_eq!(reference.cells.len(), 4);

    for workers in [1, 4, 8] {
        let parallel = run_fleet_sweep(&spec, &SweepOptions::parallel(workers));
        assert!(
            reference.results_identical(&parallel),
            "fleet grid at {workers} workers diverged from the serial reference"
        );
        // Belt and braces on top of the serialized comparison: raw f64
        // bit patterns of every device's QoS log in every cell.
        for (cr, cp) in reference.cells.iter().zip(&parallel.cells) {
            for (i, (da, db)) in cr.result.devices.iter().zip(&cp.result.devices).enumerate() {
                assert_qos_bits_equal(
                    da.qos.records(),
                    db.qos.records(),
                    &format!("cell {:?} device {i}", cr.key),
                );
            }
        }
    }
}

#[test]
fn four_server_fleet_grid_run_twice_is_bit_identical() {
    let spec = four_server_grid();
    let a = run_fleet_sweep(&spec, &SweepOptions::parallel(4));
    let b = run_fleet_sweep(&spec, &SweepOptions::parallel(4));
    assert!(a.results_identical(&b));
}
