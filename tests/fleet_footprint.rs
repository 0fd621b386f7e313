//! Per-device memory footprint of a fleet run, counted exactly.
//!
//! A fleet's resident set is dominated by per-device state (DESIGN.md
//! §"Sharded engine", "bytes per device"), so a field or an allocation
//! added per device costs 100 000× its size on `fleet-cold-100k-x2`
//! without any test noticing. This suite wraps the system allocator in
//! exact counters — every allocation request, every live byte — and
//! pins both per device on a 4 096-device Table V fleet, unsharded and
//! on two shards. Counts and struct layouts do not depend on the build
//! profile; CI runs this suite in release as well to prove it, together
//! with the ignored million-device case.
//!
//! The counters are process-wide, so a test running on a sibling thread
//! would be counted too: the ignored case runs only with
//! `--include-ignored --test-threads=1`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use framefeedback::controller::{Controller, FrameFeedback};
use framefeedback::device::{run_fleet, FleetConfig, FleetDeviceConfig, FleetResult};
use framefeedback::models::{DeviceKind, ModelKind};
use framefeedback::workload::table_v;

const DEVICES: usize = 4_096;
const FRAMES: u64 = 60;

/// What one run cost, per device.
struct Footprint {
    calls_per_device: f64,
    peak_bytes_per_device: f64,
}

/// The shape of `fleet-cold-100k-x2`, scaled to `devices`: identical
/// Pis on the Table V schedule against the single default server, so
/// every controller parks at the probe floor.
fn measured_fleet(devices: usize, shards: usize) -> (FleetResult, Footprint) {
    let (result, calls, peak) = counting_alloc::measured(|| {
        let mut config = FleetConfig {
            devices: vec![
                FleetDeviceConfig {
                    device: DeviceKind::Pi4BRev12,
                    model: ModelKind::MobileNetV3Small,
                };
                devices
            ],
            network: table_v(),
            ..FleetConfig::default()
        };
        config.stream.total_frames = FRAMES;
        config.engine.shards = shards;
        // The caller's controller boxes are part of the fleet's footprint.
        let controllers = (0..devices)
            .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
            .collect();
        run_fleet(config, controllers)
    });
    let footprint = Footprint {
        calls_per_device: calls as f64 / devices as f64,
        peak_bytes_per_device: peak as f64 / devices as f64,
    };
    (result, footprint)
}

/// Allocation requests per device a run may make: the caller's
/// controller box, the QoS log and the timeout window's deque.
/// Measured 3.0271 unsharded and 3.0488 on two shards (9.02 and 9.18
/// before the per-device diet, 3.0369 and 3.1892 before the engines
/// reserved their capture and tick lanes at set-up instead of growing
/// them an eighth at a time; two shards read 3.1729 until the shard
/// mailboxes stopped growing per round); the allowance above that is for per-run
/// costs, and is a quarter of what one more allocation per device adds.
const MAX_CALLS_PER_DEVICE: f64 = 3.25;

/// Peak live heap bytes per device, as measured (3 322 and 3 698 before
/// the diet, 2 079.3 and 2 427.2 after it and the shared device runtime,
/// 1 829.3 and 1 913.3 once the fleet of one became a plain fleet,
/// 1 442.0 and 1 525.9 once a row held only its own state: link, stream
/// and engine parameters once per shard, link and engine counters on the
/// watched row only, a 2-slot inline flight ring; 1 442.0 and 1 478.9
/// once the shard mailboxes stopped growing per round; and 1 287.4 and
/// 1 337.6 once the row RNG streams kept their 16-byte derivation
/// instead of a 32-byte key, the busy-until, the next capture and the
/// timeout window left the row, the probe overflow was boxed and a lane
/// entry packed its sequence number with its count; and 1 239.5 and
/// 1 266.6 once the tier rejected its overflow where it stands in the
/// queue and a shard got a batch's rejections as one run). Since the
/// engines free their calendars and the columns no result reads before
/// reassembling results, the peak is the run's own, not teardown's; the
/// assertion allows 2 % on top (two shards read 1 266.1 to 1 266.6 from
/// run to run: both workers allocate at once).
const MEASURED_PEAK_BYTES: [(usize, f64); 2] = [(1, 1_239.5), (2, 1_266.6)];

#[test]
fn per_device_allocations_and_live_bytes_stay_on_their_diet() {
    let mut results = Vec::new();
    for (shards, measured_peak) in MEASURED_PEAK_BYTES {
        let (result, cost) = measured_fleet(DEVICES, shards);
        println!(
            "shards {shards}: {:.4} allocator calls and {:.1} peak live bytes per device",
            cost.calls_per_device, cost.peak_bytes_per_device
        );
        assert!(
            cost.calls_per_device <= MAX_CALLS_PER_DEVICE,
            "shards {shards}: {:.4} allocator calls per device",
            cost.calls_per_device
        );
        assert!(
            cost.peak_bytes_per_device <= measured_peak * 1.02,
            "shards {shards}: {:.1} peak live bytes per device, measured {measured_peak}",
            cost.peak_bytes_per_device
        );
        assert_eq!(result.devices.len(), DEVICES);
        results.push(result);
    }

    let (one, two) = (&results[0], &results[1]);
    for (i, (a, b)) in one.devices.iter().zip(&two.devices).enumerate() {
        assert_eq!(a.qos.records(), b.qos.records(), "device {i} qos");
        assert_eq!(a.frames_offloaded, b.frames_offloaded, "device {i}");
        assert_eq!(a.frames_local, b.frames_local, "device {i}");
        assert_eq!(a.offload_successes, b.offload_successes, "device {i}");
        assert_eq!(a.offload_timeouts, b.offload_timeouts, "device {i}");
    }
    assert_eq!(one.events_handled, two.events_handled);
}

/// A million parked devices on two shards cost no more per device than
/// 4 096 do, within 2 %: nothing per device grows with the fleet. They
/// cost less — measured 1 236.3 bytes against 1 265.7 — because what a
/// run costs whatever its size is spread over 256× the devices. Ignored
/// by default (≈ 1.4 GB of heap); CI runs it in release.
#[test]
#[ignore = "allocates ~1.4 GB; run with --include-ignored --test-threads=1"]
fn a_million_parked_devices_cost_what_four_thousand_do() {
    const MILLION: usize = 1 << 20;
    let (_, small) = measured_fleet(DEVICES, 2);
    let (result, large) = measured_fleet(MILLION, 2);
    println!(
        "{MILLION} devices on 2 shards: {:.4} allocator calls and {:.1} peak live bytes \
         per device ({:.1} at {DEVICES})",
        large.calls_per_device, large.peak_bytes_per_device, small.peak_bytes_per_device
    );
    assert_eq!(result.devices.len(), MILLION);
    assert!(
        large.calls_per_device <= MAX_CALLS_PER_DEVICE,
        "{:.4} allocator calls per device",
        large.calls_per_device
    );
    assert!(
        large.peak_bytes_per_device <= small.peak_bytes_per_device * 1.02,
        "{:.1} peak live bytes per device at {MILLION} devices, {:.1} at {DEVICES}",
        large.peak_bytes_per_device,
        small.peak_bytes_per_device
    );
}
