//! Integration: the live tier end to end over loopback — real
//! nonblocking sockets, one event-loop thread per side, real time, the
//! same controller as the simulator.
//!
//! The paper-level contracts: convergence on a clean link; backing off
//! on a throttled uplink; parking at the §III-A.1 probe floor through a
//! server kill or a total-failure chaos fault, then recovering within
//! five control intervals; a local-only policy holding the local floor;
//! a server that outlives device churn and batches a fleet. Every run
//! must also satisfy the frame conservation law (`offloaded ==
//! successes + timeouts`, nothing in flight at exit) no matter what the
//! server does.
//!
//! The reactor has no handle to change a pacer's bandwidth mid-run, so
//! "the target falls when the path degrades mid-run" is covered by three
//! cases instead: a link throttled from the start, a fail-all fault
//! switched on mid-run, and replies stalled past the deadline.

use framefeedback::baselines::LocalOnly;
use framefeedback::controller::{Controller, FrameFeedback};
use framefeedback::metrics::QosRecord;
use framefeedback::reactor::{
    run_reactor_device, run_reactor_fleet, FleetClientConfig, NetworkConditions,
    ReactorDeviceConfig, ReactorDeviceSummary, ReactorServer, ReactorServerConfig, ReconnectPolicy,
};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn server_config() -> ReactorServerConfig {
    ReactorServerConfig {
        batch_limit: 15,
        batch_base: Duration::from_millis(10),
        per_frame: Duration::from_millis(1),
        ..ReactorServerConfig::default()
    }
}

fn fast_server() -> ReactorServer {
    ReactorServer::start("127.0.0.1:0", server_config()).expect("bind loopback")
}

fn fast_device(secs: u64) -> ReactorDeviceConfig {
    ReactorDeviceConfig {
        fs: 60.0,
        duration: Duration::from_secs(secs),
        deadline: Duration::from_millis(150),
        frame_bytes: 8_000,
        local_rate_fps: 20.0,
        tick: Duration::from_millis(250),
        ..ReactorDeviceConfig::default()
    }
}

/// Device settings for the outage tests: a slower tick (less timeout-rate quantization noise around the probe
/// floor) and an aggressive reconnect policy so redial latency is small
/// against the 500 ms intervals.
fn outage_device(secs: u64) -> ReactorDeviceConfig {
    ReactorDeviceConfig {
        tick: Duration::from_millis(500),
        timeout_window: Duration::from_millis(1500),
        reconnect: ReconnectPolicy {
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(250),
            multiplier: 2.0,
            jitter: 0.5,
        },
        ..fast_device(secs)
    }
}

fn run_one(server_addr: std::net::SocketAddr, device: ReactorDeviceConfig) -> ReactorDeviceSummary {
    let config = FleetClientConfig {
        device,
        ..FleetClientConfig::default()
    };
    run_reactor_device(server_addr, &config, Box::new(FrameFeedback::new())).expect("device run")
}

/// Mean `po_target` over the records inside `[from, to)` seconds.
fn mean_target(records: &[QosRecord], from: f64, to: f64) -> f64 {
    let window: Vec<f64> = records
        .iter()
        .filter(|r| r.t_secs >= from && r.t_secs < to)
        .map(|r| r.po_target)
        .collect();
    assert!(!window.is_empty(), "no records in [{from}, {to})");
    window.iter().sum::<f64>() / window.len() as f64
}

#[test]
fn reactor_client_converges_and_mostly_succeeds_on_a_clean_link() {
    let server = fast_server();
    let summary = run_one(server.addr(), fast_device(4));

    assert!(summary.frames > 200, "captured only {}", summary.frames);
    assert!(summary.offloaded > 20, "offloaded {}", summary.offloaded);
    assert!(summary.frames_conserved(), "conservation: {summary:?}");
    assert_eq!(summary.reconnects, 0);
    let success_ratio =
        summary.successes as f64 / (summary.successes + summary.timeouts).max(1) as f64;
    assert!(
        success_ratio > 0.8,
        "clean link success ratio {success_ratio:.2}"
    );
    // The target ramps monotonically-ish upward.
    let first = summary.qos.records().first().unwrap().po_target;
    let last = summary.qos.records().last().unwrap().po_target;
    assert!(last > first);
    server.shutdown();
}

/// Outage timeline shared by the park/recover tests. The long hold is
/// deliberate: the timeout spike at the moment of failure kicks the
/// derivative term hard, and with K_P = 0.2 the gap to the probe floor
/// closes geometrically, so the target needs >10 s of sustained failure
/// to settle within ±0.5 fps.
const OUTAGE_START_SECS: u64 = 2;
const OUTAGE_END_SECS: u64 = 16;
const RUN_SECS: u64 = 21;

fn assert_parked_then_recovered(summary: &ReactorDeviceSummary, floor: f64, tick_secs: f64) {
    let tail_from = (OUTAGE_END_SECS - 3) as f64;
    let tail_to = OUTAGE_END_SECS as f64;
    let settled = mean_target(summary.qos.records(), tail_from, tail_to);
    assert!(
        (settled - floor).abs() <= 0.5,
        "settled target {settled:.2} fps vs probe floor {floor:.1} fps"
    );
    for r in summary
        .qos
        .records()
        .iter()
        .filter(|r| r.t_secs >= tail_from && r.t_secs < tail_to)
    {
        assert!(
            (r.po_target - floor).abs() <= 2.0,
            "t={:.1}s: target {:.2} strayed from the floor",
            r.t_secs,
            r.po_target
        );
    }
    let recovered_at = summary
        .qos
        .records()
        .iter()
        .find(|r| r.t_secs >= tail_to && r.po_target > floor + 0.5)
        .map(|r| r.t_secs)
        .expect("target never rose above the probe floor after recovery");
    assert!(
        recovered_at <= tail_to + 5.0 * tick_secs,
        "recovered only at t={recovered_at:.1}s"
    );
}

/// Kill the server mid-run, then bring it back on the same address.
///
/// While the server is gone the device has no connection, so offload
/// attempts fail instantly and the controller must park `P_o` at the
/// probe floor `0.1·F_s`; once it returns, the reconnect timer redials
/// and the target climbs off the floor within five control intervals.
#[test]
fn reactor_server_outage_parks_target_at_probe_floor_then_recovers() {
    let server = fast_server();
    let addr = server.addr();
    let cfg = outage_device(RUN_SECS);
    let floor = 0.1 * cfg.fs;

    let chaos_monkey = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(OUTAGE_START_SECS));
        server.shutdown();
        std::thread::sleep(Duration::from_secs(OUTAGE_END_SECS - OUTAGE_START_SECS));
        ReactorServer::start(&addr.to_string(), server_config()).expect("rebind same port")
    });

    let summary = run_one(addr, cfg);
    let server2 = chaos_monkey.join().unwrap();

    assert_parked_then_recovered(&summary, floor, 0.5);
    assert!(summary.reconnects >= 1, "supervisor never reconnected");
    assert!(
        summary.instant_failures > 0,
        "no attempts failed while the server was down"
    );
    assert!(summary.frames_conserved(), "conservation: {summary:?}");
    server2.shutdown();
}

/// Chaos forcing total offload failure: the server keeps every TCP
/// connection healthy but silently swallows all requests, so every
/// attempt dies by deadline rather than by dial failure. The controller
/// must still find the probe floor and recover — without a single
/// reconnect.
#[test]
fn reactor_chaos_total_failure_parks_at_probe_floor_without_reconnecting() {
    let server = fast_server();
    let chaos = server.chaos();
    let cfg = outage_device(RUN_SECS);
    let floor = 0.1 * cfg.fs;

    let fault = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(OUTAGE_START_SECS));
        chaos.fail_all(true);
        std::thread::sleep(Duration::from_secs(OUTAGE_END_SECS - OUTAGE_START_SECS));
        chaos.fail_all(false);
    });

    let summary = run_one(server.addr(), cfg);
    fault.join().unwrap();

    assert_parked_then_recovered(&summary, floor, 0.5);
    // The link itself never went down: degradation and recovery happened
    // entirely through the controller, not the reconnect path.
    assert_eq!(summary.reconnects, 0);
    assert!(summary.timeouts > summary.instant_failures);
    assert!(summary.frames_conserved(), "conservation: {summary:?}");
    server.shutdown();
}

/// Random server-initiated disconnects: every hangup must be survived by
/// the reconnect supervisor, and no frame may escape the accounting no
/// matter where in its lifecycle the connection died.
#[test]
fn reactor_random_disconnects_reconnect_and_conserve() {
    let server = fast_server();
    server.chaos().set_disconnect_probability(0.02);
    let summary = run_one(server.addr(), outage_device(8));

    assert!(summary.reconnects >= 1, "chaos never triggered a redial");
    assert!(summary.successes > 0, "nothing succeeded between hangups");
    assert!(summary.timeouts > 0, "hangups must strand some frames");
    assert!(summary.frames_conserved(), "conservation: {summary:?}");
    server.shutdown();
}

/// Stalled replies: the server answers every request, but far past the
/// deadline. The runtime must resolve those frames as timeouts at their
/// deadlines and ignore the late replies; the connection stays up.
#[test]
fn reactor_stalled_replies_become_timeouts_and_conserve() {
    let server = fast_server();
    // Stall every reply by 2.7x the 150 ms deadline.
    server.chaos().set_stall(1.0, Duration::from_millis(400));
    let summary = run_one(server.addr(), fast_device(5));

    assert_eq!(summary.reconnects, 0);
    assert_eq!(summary.successes, 0, "a stalled reply beat the deadline");
    assert!(summary.timeouts > 0);
    assert!(summary.frames_conserved(), "conservation: {summary:?}");
    server.shutdown();
}

/// A 0.5 Mbps uplink: an 8 kB frame takes 128 ms of link time, so more
/// than one in flight blows the 150 ms deadline. The controller must see
/// timeouts and settle well below `F_s`.
#[test]
fn reactor_throttled_uplink_times_out_and_backs_off() {
    let server = fast_server();
    let device = ReactorDeviceConfig {
        network: NetworkConditions {
            bandwidth_mbps: 0.5,
            loss_pct: 0.0,
        },
        ..fast_device(3)
    };
    let summary = run_one(server.addr(), device);

    assert!(summary.timeouts > 0, "a throttled link must time out");
    let final_target = summary.qos.records().last().unwrap().po_target;
    assert!(
        final_target < 30.0,
        "controller should back off well below F_s = 60, got {final_target:.1}"
    );
    assert!(summary.frames_conserved(), "conservation: {summary:?}");
    server.shutdown();
}

/// A local-only policy offloads nothing, and the local engine alone
/// completes at least two thirds of `local_rate_fps × duration`.
#[test]
fn reactor_local_only_controller_holds_the_local_floor() {
    let server = fast_server();
    let device = fast_device(2);
    let config = FleetClientConfig {
        device,
        ..FleetClientConfig::default()
    };
    let summary =
        run_reactor_device(server.addr(), &config, Box::new(LocalOnly::new())).expect("run");

    assert_eq!(summary.offloaded, 0);
    let expected = device.local_rate_fps * device.duration.as_secs_f64();
    assert!(
        summary.local_completed as f64 >= expected * 2.0 / 3.0,
        "local floor too low: {} of ~{expected:.0}",
        summary.local_completed
    );
    server.shutdown();
}

/// Three sessions, one after another, against one server: each captures
/// its full quota, and the server answers each new connection.
#[test]
fn reactor_server_survives_sequential_device_churn() {
    let server = fast_server();
    // 510 ms at 60 fps: 30 captures, the last one 10 ms clear of the end.
    let device = ReactorDeviceConfig {
        duration: Duration::from_millis(510),
        ..fast_device(1)
    };
    let mut completions = 0;
    for session in 0..3 {
        let summary = run_one(server.addr(), device);
        assert_eq!(summary.frames, 30, "session {session}");
        assert!(summary.frames_conserved(), "session {session}: {summary:?}");
        let now = server.stats().completions.load(Ordering::Relaxed);
        assert!(now > completions, "session {session} was never served");
        completions = now;
    }
    server.shutdown();
}

/// Three devices on one client loop share one server's batcher.
#[test]
fn reactor_three_devices_in_one_fleet_share_one_server() {
    let server = fast_server();
    let config = FleetClientConfig {
        device: fast_device(3),
        ..FleetClientConfig::default()
    };
    let controllers: Vec<Box<dyn Controller>> = (0..3)
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect();
    let fleet = run_reactor_fleet(server.addr(), &config, controllers).expect("fleet run");

    assert!(fleet.frames_conserved(), "conservation: {fleet:?}");
    for (i, s) in fleet.devices.iter().enumerate() {
        let ratio = s.successes as f64 / (s.successes + s.timeouts).max(1) as f64;
        assert!(ratio > 0.7, "device {i}: success ratio {ratio:.2}");
    }
    let offloaded: u64 = fleet.devices.iter().map(|s| s.offloaded).sum();
    let completions = server.stats().completions.load(Ordering::Relaxed);
    assert!(
        completions as f64 >= 0.7 * offloaded as f64,
        "{completions} completions for {offloaded} offloads"
    );
    server.shutdown();
}
