//! The experiment's options at fleet scale.
//!
//! Adaptive JPEG quality, the local-model ladder, a Gilbert–Elliott loss
//! override and the tier's Poisson background load, on a 1,024-device
//! FrameFeedback fleet sharing one server: frames are conserved on every
//! device, background requests are billed to no device, and the
//! device-local options hold bit for bit across shard counts. Background
//! load runs on the single-threaded engine only; the sharded driver
//! rejects it by name (DESIGN.md §"Sharded engine").

use framefeedback::controller::{Controller, FrameFeedback};
use framefeedback::device::{run_fleet, FleetConfig, FleetDeviceConfig, FleetResult};
use framefeedback::models::{DeviceKind, ModelKind};
use framefeedback::net::{GilbertElliott, LossModel, NetworkConditions};
use framefeedback::server::BackgroundConfig;
use framefeedback::workload::{ideal_network, StepSchedule};

const DEVICES: usize = 1_024;
const FRAMES: u64 = 150;

/// Every option on, with the background schedule when `background`: 100
/// requests/s, then 400 from t = 2 s — past the ~145 requests/s one
/// server completes even with every device parked at its probe floor.
fn options_fleet(background: bool, shards: usize) -> FleetConfig {
    let mut config = FleetConfig {
        devices: vec![
            FleetDeviceConfig {
                device: DeviceKind::Pi4BRev12,
                model: ModelKind::MobileNetV3Small,
            };
            DEVICES
        ],
        adaptive_quality: true,
        adaptive_local_model: true,
        loss_model: Some(LossModel::GilbertElliott(
            GilbertElliott::with_average_loss(0.05),
        )),
        background: background.then(|| BackgroundConfig {
            steps: vec![(0.0, 100.0), (2.0, 400.0)],
            model: ModelKind::MobileNetV3Small,
        }),
        ..FleetConfig::default()
    };
    config.stream.total_frames = FRAMES;
    config.engine.shards = shards;
    config
}

fn run(config: FleetConfig) -> FleetResult {
    let controllers = (0..DEVICES)
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect();
    run_fleet(config, controllers)
}

/// Every captured frame was routed exactly once, and every offload
/// resolved at most once.
fn assert_conserved(result: &FleetResult) {
    assert_eq!(result.devices.len(), DEVICES);
    for (i, d) in result.devices.iter().enumerate() {
        assert_eq!(
            d.frames_offloaded + d.frames_local,
            FRAMES,
            "device {i} lost or duplicated a frame"
        );
        assert!(
            d.offload_successes + d.offload_timeouts <= d.frames_offloaded,
            "device {i} resolved more offloads than it sent"
        );
    }
}

#[test]
fn background_load_is_billed_to_no_device() {
    let result = run(options_fleet(true, 1));
    assert_conserved(&result);
    let devices = &result.rejections_by_device;
    assert_eq!(devices.len(), DEVICES);
    // Device 1000 shares the tenant id space with the background process;
    // its count must look like any other device's.
    let most = devices[..1_000].iter().copied().max().unwrap();
    assert!(
        devices[1_000] <= most,
        "device 1000 has {} rejections, devices 0-999 at most {most}",
        devices[1_000]
    );
    let device_rejections: u64 = devices.iter().sum();
    assert!(
        result.server_stats.rejections > device_rejections,
        "the saturating background saw no rejection of its own"
    );
}

#[test]
fn device_options_are_identical_at_one_and_two_shards() {
    let one = run(options_fleet(false, 1));
    assert_conserved(&one);
    assert!(
        one.devices.iter().any(|d| d.offload_timeouts > 0),
        "the loss override never bit"
    );
    let two = run(options_fleet(false, 2));
    assert_eq!(format!("{one:?}"), format!("{two:?}"));
}

#[test]
#[should_panic(expected = "`background` load needs the single-threaded engine")]
fn background_load_is_rejected_on_shards() {
    run(options_fleet(true, 2));
}

#[test]
#[should_panic(
    expected = "device 1's network schedule, step 1 (t = 2 s): loss must be a percentage in [0, 100], got 150"
)]
fn an_over_100pct_loss_step_is_rejected_before_the_run_by_name() {
    // Built as a config read from JSON is, past `NetworkConditions::new`.
    // It used to panic mid-run with "loss must be a probability", naming
    // neither the device nor the step.
    let mut config = FleetConfig {
        devices: vec![
            FleetDeviceConfig {
                device: DeviceKind::Pi4BRev12,
                model: ModelKind::MobileNetV3Small,
            };
            3
        ],
        ..FleetConfig::default()
    };
    let lossy = NetworkConditions {
        bandwidth_mbps: 10.0,
        loss_pct: 150.0,
    };
    let mut schedules = vec![ideal_network(); 3];
    schedules[1] = StepSchedule::new(vec![(0.0, NetworkConditions::ideal()), (2.0, lossy)]);
    config.per_device_network = Some(schedules);
    let controllers = (0..3)
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect();
    run_fleet(config, controllers);
}
