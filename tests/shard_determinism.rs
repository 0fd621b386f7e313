//! Differential determinism for the sharded fleet driver.
//!
//! The sharded engine partitions devices across K shards, each with its
//! own timing wheel and private ChaCha8 streams, synchronized through
//! conservative time windows (see DESIGN.md §"Sharded engine"). Its
//! universal contract, pinned here bit-for-bit:
//!
//! 1. **K = 1 is the legacy path.** Driving the windowed sharded
//!    coordinator with a single shard must reproduce the unsharded
//!    `run_fleet` run exactly — same QoS records (compared as raw f64
//!    bit patterns, no tolerance), same counters, same event count.
//! 2. **K = N is K = 1.** Any shard count K ∈ {2, 4, 8} must reproduce
//!    the K = 1 run exactly, on a *hostile* configuration: a Table V
//!    fleet over an N = 2 server tier with a mid-run server outage,
//!    with telemetry off and on. A cold, lockstep fleet of 4,096
//!    devices holds K ∈ {1, 2, 3} to the unsharded run: its deep,
//!    randomly ordered deposit rounds and mass rejections are what the
//!    12-device fixtures never build. A saturated four-server tier holds
//!    K ∈ {1, 2, 3} to it too: its batches reject one shard's frames at
//!    two instants of one window, which a shard must apply apart. Two
//!    more hold K ∈ {1, 2, 3} to it where a shard applies local captures
//!    ahead: a zero-jitter lockstep fleet, whose offloads arrive on one
//!    microsecond, and a fleet of mixed controllers, one of which puts
//!    its splitter's credit exactly on 1.0.
//! 3. **The inter-shard merge is timing-independent.** The
//!    coordinator's deterministic `(at, ins, class, tie)` merge order
//!    must not depend on the order shards deliver their batches — a
//!    property test over arbitrary key sets and arrival permutations.

use framefeedback::baselines::{AlwaysOffload, Fixed, LocalOnly};
use framefeedback::controller::{Controller, FrameFeedback};
use framefeedback::device::fleet_testhooks::run_counted;
use framefeedback::device::shard::testhooks::{merge_order, MergeKey};
use framefeedback::device::{
    run_fleet, run_fleet_sharded, FleetConfig, FleetDeviceConfig, FleetResult, TierOutage,
};
use framefeedback::metrics::QosRecord;
use framefeedback::models::{DeviceKind, ModelKind};
use framefeedback::net::{GilbertElliott, LossModel, NetworkConditions};
use framefeedback::server::{RoutingPolicy, ServerSpec, ServerStats, TierConfig};
use framefeedback::sim::{RngFactory, SimTime};
use framefeedback::telemetry::{Telemetry, TelemetryConfig};
use framefeedback::workload::{
    ideal_network, mobility_trace, table_v, MobilityConfig, StepSchedule, StreamConfig,
};
use proptest::prelude::*;

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

/// Everything the fleet computes, compared exactly.
fn assert_fleets_identical(a: &FleetResult, b: &FleetResult, what: &str) {
    assert_eq!(a.devices.len(), b.devices.len(), "{what}: device counts");
    for (i, (da, db)) in a.devices.iter().zip(&b.devices).enumerate() {
        assert_qos_bits_equal(
            da.qos.records(),
            db.qos.records(),
            &format!("{what}: device {i} qos"),
        );
        assert_eq!(da.frames_offloaded, db.frames_offloaded, "{what}: dev {i}");
        assert_eq!(da.frames_local, db.frames_local, "{what}: dev {i}");
        assert_eq!(
            da.offload_successes, db.offload_successes,
            "{what}: dev {i}"
        );
        assert_eq!(da.offload_timeouts, db.offload_timeouts, "{what}: dev {i}");
    }
    assert_eq!(a.server_stats, b.server_stats, "{what}: server stats");
    assert_eq!(
        a.per_server_stats, b.per_server_stats,
        "{what}: per-server stats"
    );
    assert_eq!(
        a.rejections_by_device, b.rejections_by_device,
        "{what}: rejections"
    );
    assert_eq!(
        a.admission_rejections, b.admission_rejections,
        "{what}: admissions"
    );
    assert_eq!(a.events_handled, b.events_handled, "{what}: event count");
}

/// The hostile fixture: a heterogeneous 12-device Table V fleet over an
/// N = 2 server tier that loses server 0 mid-run (6 s – 12 s of a 20 s
/// run), so cross-shard traffic spans a routing change, an outage
/// Crash/Recover pair, and the paper's network degradation schedule.
fn hostile_fleet(telemetry: Telemetry) -> FleetConfig {
    let mut c = FleetConfig::default();
    c.seed = MASTER_SEED;
    c.stream.total_frames = 600; // 20 s at 30 fps
    c.devices = (0..12)
        .map(|i| FleetDeviceConfig {
            device: match i % 3 {
                0 => DeviceKind::Pi3BRev12,
                1 => DeviceKind::Pi4BRev12,
                _ => DeviceKind::Pi4BRev14,
            },
            model: if i % 2 == 0 {
                ModelKind::MobileNetV3Small
            } else {
                ModelKind::MobileNetV3Large
            },
        })
        .collect();
    c.network = table_v();
    c.tier = Some(TierConfig::uniform(2, ServerSpec::default()));
    c.outages = vec![TierOutage {
        server: 0,
        from_secs: 6.0,
        until_secs: 12.0,
    }];
    c.telemetry = telemetry;
    c
}

fn controllers(n: usize) -> Vec<Box<dyn Controller>> {
    (0..n)
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect()
}

#[test]
fn single_shard_reproduces_the_unsharded_fleet_exactly() {
    let unsharded = run_fleet(hostile_fleet(Telemetry::disabled()), controllers(12));
    let one_shard = run_fleet_sharded(hostile_fleet(Telemetry::disabled()), controllers(12), 1);
    assert_fleets_identical(&unsharded, &one_shard, "K=1 vs unsharded");
}

#[test]
fn every_shard_count_reproduces_the_single_shard_run_exactly() {
    let reference = run_fleet_sharded(hostile_fleet(Telemetry::disabled()), controllers(12), 1);
    for k in [2, 4, 8] {
        let sharded = run_fleet_sharded(hostile_fleet(Telemetry::disabled()), controllers(12), k);
        assert_fleets_identical(&reference, &sharded, &format!("K={k} vs K=1"));
    }
}

#[test]
fn sharding_is_bit_identical_with_telemetry_enabled() {
    // Telemetry must stay inert *and* shard-count-independent: the
    // observed K=4 run matches the unobserved unsharded run exactly.
    let unobserved = run_fleet(hostile_fleet(Telemetry::disabled()), controllers(12));
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let rx = telemetry.subscribe().expect("enabled pipeline subscribes");
    let observed = run_fleet_sharded(hostile_fleet(telemetry.clone()), controllers(12), 4);
    telemetry.finish();
    assert_fleets_identical(&unobserved, &observed, "telemetry on, K=4");
    let mut snapshots = 0;
    while rx.try_recv().is_ok() {
        snapshots += 1;
    }
    assert!(
        snapshots > 0,
        "the observed run produced no snapshots — telemetry was not actually on"
    );
}

#[test]
fn shard_counts_beyond_the_device_count_clamp_and_still_match() {
    // K > N devices must behave like K = N, not panic or diverge.
    let reference = run_fleet_sharded(hostile_fleet(Telemetry::disabled()), controllers(12), 1);
    let oversharded = run_fleet_sharded(hostile_fleet(Telemetry::disabled()), controllers(12), 64);
    assert_fleets_identical(&reference, &oversharded, "K=64 (clamped) vs K=1");
}

/// The benchmark's cold fleet, scaled down: 4,096 identical Pis on
/// Table V with one default server and 60 frames. The devices capture in
/// lockstep, so each capture round deposits 4,096 submissions whose
/// jittered sizes put their arrivals in random order, many of them
/// waiting rounds for a later window, and the lone server turns most of
/// them away.
fn lockstep_cold_fleet() -> FleetConfig {
    let mut c = FleetConfig::default();
    c.seed = MASTER_SEED;
    c.stream.total_frames = 60;
    c.devices = vec![
        FleetDeviceConfig {
            device: DeviceKind::Pi4BRev12,
            model: ModelKind::MobileNetV3Small,
        };
        4_096
    ];
    c.network = table_v();
    c
}

#[test]
fn a_lockstep_cold_fleet_is_bit_identical_at_one_two_and_three_shards() {
    let reference = run_fleet(lockstep_cold_fleet(), controllers(4_096));
    let rejected = reference.server_stats.rejections + reference.admission_rejections;
    assert!(
        rejected > reference.server_stats.completions,
        "the fixture must turn most offloads away: {rejected} rejected, {} completed",
        reference.server_stats.completions
    );
    for k in [1, 2, 3] {
        let sharded = run_fleet_sharded(lockstep_cold_fleet(), controllers(4_096), k);
        assert_fleets_identical(&reference, &sharded, &format!("cold K={k} vs unsharded"));
    }
}

/// A saturated multi-server tier behind slow uplinks: 384 Pis at 2 Mbps
/// against four default servers, so batches finish at different instants
/// inside one shard window and turn away frames of one shard at each,
/// and some of those frames spent more than half their deadline on the
/// uplink, so a deadline falling between two such instants is blamed on
/// the network if it fires before the rejection and on the server if
/// after.
fn split_rejection_fleet() -> FleetConfig {
    let mut c = FleetConfig::default();
    c.seed = MASTER_SEED;
    c.stream.total_frames = 300;
    c.devices = vec![
        FleetDeviceConfig {
            device: DeviceKind::Pi4BRev12,
            model: ModelKind::MobileNetV3Small,
        };
        384
    ];
    c.network = StepSchedule::constant(NetworkConditions::new(2.0, 0.0));
    let mut tier = TierConfig::uniform(4, ServerSpec::default());
    tier.routing = RoutingPolicy::PowerOfTwoChoices;
    c.tier = Some(tier);
    c
}

/// A shard applies each of a batch's rejections at its own instant: the
/// fixture has rounds in which one shard's frames are rejected at two
/// instants, and every shard count reproduces the unsharded run.
#[test]
fn rejections_at_two_instants_of_one_window_keep_their_instants() {
    let reference = run_fleet(split_rejection_fleet(), controllers(384));
    let one = run_fleet_sharded(split_rejection_fleet(), controllers(384), 1);
    assert_fleets_identical(&reference, &one, "split rejections K=1 vs unsharded");
    for k in [2, 3] {
        let mut config = split_rejection_fleet();
        config.engine.shards = k;
        let (sharded, counts) = run_counted(config, controllers(384));
        assert!(
            counts.split_rejections > 0,
            "K={k}: no shard got rejections at two instants of one window"
        );
        assert_fleets_identical(&reference, &sharded, &format!("split rejections K={k}"));
    }
}

/// Hold the fleet `fleet` builds, under the controllers `controllers`
/// builds, to the unsharded run at K = 1, 2 and 3, and check that the
/// sharded runs applied local captures ahead: the per-frame path of the
/// unsharded engine is the run-ahead's oracle.
fn assert_shards_run_ahead_exactly(
    fleet: impl Fn() -> FleetConfig,
    controllers: impl Fn() -> Vec<Box<dyn Controller>>,
    what: &str,
) {
    let reference = run_fleet(fleet(), controllers());
    let one = run_fleet_sharded(fleet(), controllers(), 1);
    assert_fleets_identical(&reference, &one, &format!("{what} K=1 vs unsharded"));
    for k in [2, 3] {
        let mut config = fleet();
        config.engine.shards = k;
        let (sharded, counts) = run_counted(config, controllers());
        assert!(
            counts.captures_ahead > 0,
            "{what} K={k}: no capture was applied ahead"
        );
        assert_fleets_identical(&reference, &sharded, &format!("{what} K={k}"));
    }
}

/// Sixteen identical Pis with equal frame sizes on an ideal network and
/// one server: the devices capture in lockstep, and their same-instant
/// offloads reach the tier on the same microsecond, where only the merge
/// key's device tie orders them.
fn zero_jitter_lockstep_fleet() -> FleetConfig {
    let mut c = FleetConfig::default();
    c.seed = MASTER_SEED;
    c.stream.total_frames = 300;
    c.stream.size_jitter = 0.0;
    c.devices = vec![
        FleetDeviceConfig {
            device: DeviceKind::Pi4BRev12,
            model: ModelKind::MobileNetV3Small,
        };
        16
    ];
    c
}

/// A shard that applies local captures ahead files each device's next
/// offload where the per-frame path would, so same-microsecond arrivals
/// keep their order.
#[test]
fn a_zero_jitter_lockstep_fleet_runs_ahead_exactly() {
    assert_shards_run_ahead_exactly(zero_jitter_lockstep_fleet, || controllers(16), "lockstep");
}

/// One device of each controller kind, four times over, on Table V: one
/// that always offloads, one at a fixed 15 fps of 30 (so its splitter's
/// credit lands exactly on 1.0 every other frame), one that never
/// offloads, and FrameFeedback.
fn mixed_controllers() -> Vec<Box<dyn Controller>> {
    (0..16)
        .map(|i| -> Box<dyn Controller> {
            match i % 4 {
                0 => Box::new(AlwaysOffload::new()),
                1 => Box::new(Fixed::new(15.0)),
                2 => Box::new(LocalOnly::new()),
                _ => Box::new(FrameFeedback::new()),
            }
        })
        .collect()
}

fn mixed_controller_fleet() -> FleetConfig {
    let mut c = zero_jitter_lockstep_fleet();
    c.stream.size_jitter = StreamConfig::default().size_jitter;
    c.network = table_v();
    c
}

/// The run-ahead stops at the first capture the splitter would offload,
/// by the splitter's own test, and at the device's next tick, whatever
/// its controller.
#[test]
fn mixed_controllers_run_ahead_exactly() {
    assert_shards_run_ahead_exactly(mixed_controller_fleet, mixed_controllers, "mixed");
}

/// FNV-1a over little-endian bytes; floats enter as raw bit patterns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn server(&mut self, s: &ServerStats) {
        for v in [
            s.requests_received,
            s.completions,
            s.rejections,
            s.batches_executed,
            s.batched_frames,
            s.full_batches,
        ] {
            self.u64(v);
        }
    }
}

/// Every field of every device result, the event count and the
/// per-server stats, hashed.
fn fleet_hash(r: &FleetResult) -> u64 {
    let mut h = Fnv::new();
    for d in &r.devices {
        h.str(d.controller);
        h.str(d.device);
        h.str(d.model);
        h.u64(d.qos.records().len() as u64);
        for q in d.qos.records() {
            for v in [
                q.t_secs,
                q.pl,
                q.po,
                q.timeouts,
                q.timeouts_network,
                q.timeouts_load,
                q.po_target,
                q.accuracy_weighted_throughput,
            ] {
                h.f64(v);
            }
        }
        h.u64(d.frames_offloaded);
        h.u64(d.frames_local);
        h.u64(d.offload_successes);
        h.u64(d.offload_timeouts);
        h.f64(d.mean_throughput);
        h.f64(d.mean_accuracy_weighted_throughput);
        h.str(&format!("{:?}", d.filter_stats));
    }
    h.u64(r.events_handled);
    for s in &r.per_server_stats {
        h.server(s);
    }
    h.0
}

/// Six devices, each on its own network schedule — two mobility traces,
/// Table V, a lossy constant, a two-step outage and an ideal link —
/// under a Gilbert–Elliott burst-loss model on every link.
fn per_device_network_fleet() -> FleetConfig {
    let mut c = FleetConfig::default();
    c.seed = MASTER_SEED;
    c.stream.total_frames = 600; // 20 s at 30 fps
    c.devices = (0..6)
        .map(|i| FleetDeviceConfig {
            device: match i % 3 {
                0 => DeviceKind::Pi3BRev12,
                1 => DeviceKind::Pi4BRev12,
                _ => DeviceKind::Pi4BRev14,
            },
            model: ModelKind::MobileNetV3Small,
        })
        .collect();
    let mobility = MobilityConfig {
        duration_secs: 20.0,
        dwell_secs: 2.0,
    };
    let walk = |seed| mobility_trace(&mobility, &mut RngFactory::new(seed).stream("mobility"));
    c.per_device_network = Some(vec![
        walk(1),
        walk(2),
        table_v(),
        StepSchedule::constant(NetworkConditions::new(4.0, 7.0)),
        StepSchedule::new(vec![
            (0.0, NetworkConditions::new(8.0, 0.0)),
            (7.0, NetworkConditions::new(1.0, 20.0)),
            (13.0, NetworkConditions::new(8.0, 0.0)),
        ]),
        ideal_network(),
    ]);
    let burst = GilbertElliott::with_average_loss(0.05);
    c.loss_model = Some(LossModel::GilbertElliott(burst));
    c
}

/// Per-device schedules are otherwise checked only by tolerances and by
/// shard-count equality, which a mistake shared by both engines passes:
/// pin them bit for bit.
#[test]
fn per_device_networks_with_burst_loss_hold_their_golden_hash() {
    const GOLDEN: u64 = 0x728a_cef1_7c7d_a37c;
    for shards in [1, 2] {
        let mut config = per_device_network_fleet();
        config.engine.shards = shards;
        let result = run_fleet(config, controllers(6));
        assert!(result.devices.iter().any(|d| d.offload_timeouts > 0));
        assert_eq!(
            fleet_hash(&result),
            GOLDEN,
            "shards {shards}: per-device network fleet hash"
        );
    }
}

/// Strategy for one merge key. Tight ranges force heavy collisions on
/// every prefix of the ordering tuple, which is where a merge could
/// possibly be arrival-order dependent.
fn merge_key() -> impl Strategy<Value = MergeKey> {
    (0u64..50, 0u64..50, 0u8..4, 0u64..8).prop_map(|(at, ins, class, tie)| MergeKey {
        at: SimTime::from_micros(at),
        ins: SimTime::from_micros(ins),
        class,
        tie,
    })
}

proptest! {
    /// The coordinator's merge order is a pure function of the key
    /// *set*: any arrival permutation (modeling shards finishing their
    /// windows in any order) pops identically.
    #[test]
    fn prop_merge_order_is_invariant_under_arrival_order(
        keys in proptest::collection::vec(merge_key(), 0..64),
        rotate in 0usize..64,
    ) {
        let reference = merge_order(keys.clone());

        // Arrival permutations: reversed, rotated, and odd/even
        // interleaved (shard A's batch split around shard B's).
        let mut reversed = keys.clone();
        reversed.reverse();
        prop_assert_eq!(merge_order(reversed), reference.clone());

        let mut rotated = keys.clone();
        if !rotated.is_empty() {
            let r = rotate % rotated.len();
            rotated.rotate_left(r);
        }
        prop_assert_eq!(merge_order(rotated), reference.clone());

        let odds = keys.iter().skip(1).step_by(2).copied();
        let evens = keys.iter().step_by(2).copied();
        let interleaved: Vec<MergeKey> = odds.chain(evens).collect();
        prop_assert_eq!(merge_order(interleaved), reference.clone());

        // And the popped sequence is sorted by the documented key.
        for w in reference.windows(2) {
            prop_assert!(w[0] <= w[1], "merge order not sorted: {:?} > {:?}", w[0], w[1]);
        }
    }
}
