//! The single-device experiment's behaviour against the paper: the
//! Table II local rate, the ideal-network ramp, the §III-A.1 probe floor
//! on a dead link and through a server outage (with recovery within five
//! control intervals), the §II-A CPU-usage observation, background
//! pressure, per-frame trace accounting, and one QoS record per
//! controller period.

use framefeedback::baselines::{AllOrNothing, AlwaysOffload, LocalOnly};
use framefeedback::controller::FrameFeedback;
use framefeedback::device::{run_experiment, ExperimentConfig, ServerOutage, TraceSummary};
use framefeedback::net::NetworkConditions;
use framefeedback::workload::{table_v, StepSchedule};

fn short_config() -> ExperimentConfig {
    let mut c = ExperimentConfig::default();
    c.stream.total_frames = 900; // 30 s at 30 fps
    c.peer_devices = 0;
    c
}

#[test]
fn local_only_throughput_is_the_table_ii_rate() {
    let result = run_experiment(short_config(), Box::new(LocalOnly::new()));
    assert_eq!(result.controller, "local-only");
    assert_eq!(result.frames_offloaded, 0);
    let p = result.mean_throughput;
    assert!(
        (p - 13.0).abs() < 1.5,
        "local-only throughput {p:.1}, expected ~13 (Pi 4B r1.2, MNv3Small)"
    );
    assert_eq!(result.offload_timeouts, 0);
}

#[test]
fn always_offload_on_ideal_network_reaches_fs() {
    let result = run_experiment(short_config(), Box::new(AlwaysOffload::new()));
    let p = result.mean_throughput;
    assert!(
        p > 27.0,
        "always-offload under ideal conditions got {p:.1}, expected ~30"
    );
    assert!(result.offload_latency.unwrap().p95_ms < 250.0);
}

#[test]
fn framefeedback_ramps_to_full_offload_on_ideal_network() {
    let result = run_experiment(short_config(), Box::new(FrameFeedback::new()));
    // Ramp at +0.1·F_s per second: full offloading from ~t=10 s.
    let late = result.qos.aggregate(15.0, 30.0).unwrap();
    assert!(
        late.mean_po_target > 28.0,
        "P_o target after ramp {:.1}, expected ~30",
        late.mean_po_target
    );
    assert!(late.mean_throughput > 26.0);
}

#[test]
fn all_or_nothing_offloads_when_heartbeats_succeed() {
    let result = run_experiment(short_config(), Box::new(AllOrNothing::new()));
    let late = result.qos.aggregate(5.0, 30.0).unwrap();
    assert!(
        late.mean_po > 25.0,
        "heartbeats succeed on the ideal network; got P_o {:.1}",
        late.mean_po
    );
}

#[test]
fn deterministic_given_seed() {
    let a = run_experiment(short_config(), Box::new(FrameFeedback::new()));
    let b = run_experiment(short_config(), Box::new(FrameFeedback::new()));
    assert_eq!(a.frames_offloaded, b.frames_offloaded);
    assert_eq!(a.offload_timeouts, b.offload_timeouts);
    assert_eq!(a.qos.records().len(), b.qos.records().len());
    for (ra, rb) in a.qos.records().iter().zip(b.qos.records()) {
        assert_eq!(ra, rb);
    }
}

#[test]
fn different_seeds_differ() {
    let mut cfg = short_config();
    cfg.seed = 1;
    let a = run_experiment(cfg.clone(), Box::new(FrameFeedback::new()));
    cfg.seed = 2;
    let b = run_experiment(cfg, Box::new(FrameFeedback::new()));
    // Same macro behaviour, different micro trace: frame-size jitter
    // and service jitter shift individual latencies.
    assert_ne!(
        a.offload_latency.unwrap().mean_ms,
        b.offload_latency.unwrap().mean_ms
    );
}

#[test]
fn server_outage_drives_target_to_probe_floor_and_recovers() {
    let mut cfg = short_config();
    cfg.stream.total_frames = 2700; // 90 s at 30 fps
    cfg.outage = Some(ServerOutage {
        from_secs: 20.0,
        until_secs: 70.0,
    });
    let result = run_experiment(cfg, Box::new(FrameFeedback::new()));

    // Before the crash the controller is ramping normally.
    let before = result.qos.aggregate(15.0, 20.0).unwrap();
    assert!(
        before.mean_po_target > 20.0,
        "pre-outage target {:.1} should be near F_s",
        before.mean_po_target
    );

    // §III-A.1: with every offload failing, P_o settles at 0.1·F_s.
    let floor = 0.1 * 30.0;
    let during = result.qos.aggregate(50.0, 70.0).unwrap();
    assert!(
        (during.mean_po_target - floor).abs() <= 0.5,
        "outage target {:.2} should sit at the {floor:.1} fps probe floor",
        during.mean_po_target
    );

    // Recovery within 5 controller intervals of the server's return.
    let recovered_at = result
        .qos
        .records()
        .iter()
        .find(|r| r.t_secs >= 70.0 && r.po_target > floor + 0.5)
        .map(|r| r.t_secs)
        .expect("target never left the probe floor after recovery");
    assert!(
        recovered_at <= 75.0,
        "target recovered only at t={recovered_at:.0}s"
    );
    let after = result.qos.aggregate(82.0, 90.0).unwrap();
    assert!(
        after.mean_po_target > 25.0,
        "post-recovery target {:.1} should be back near F_s",
        after.mean_po_target
    );

    // Throughput never collapses below the local floor (§II-A.5).
    assert!(during.mean_throughput > 10.0);
}

#[test]
fn outage_requests_vanish_rather_than_complete() {
    let mut cfg = short_config();
    cfg.outage = Some(ServerOutage {
        from_secs: 5.0,
        until_secs: 25.0,
    });
    let down = run_experiment(cfg, Box::new(AlwaysOffload::new()));
    let up = run_experiment(short_config(), Box::new(AlwaysOffload::new()));
    assert!(down.offload_timeouts > 200, "the outage must cost timeouts");
    assert!(
        down.server_stats.completions < up.server_stats.completions / 2,
        "a 20 s outage in a 30 s run must slash completions ({} vs {})",
        down.server_stats.completions,
        up.server_stats.completions
    );
}

#[test]
#[should_panic(expected = "outage must end after it starts")]
fn inverted_outage_window_is_rejected() {
    let mut cfg = short_config();
    cfg.outage = Some(ServerOutage {
        from_secs: 10.0,
        until_secs: 10.0,
    });
    run_experiment(cfg, Box::new(FrameFeedback::new()));
}

#[test]
#[should_panic(
    expected = "the shared network schedule, step 1 (t = 30 s): bandwidth must be positive and finite, got 0"
)]
fn a_zero_bandwidth_step_is_rejected_before_the_run() {
    // Built as a config read from JSON (`ffexp --config`) is, past
    // `NetworkConditions::new`. It used to start, then panic at the
    // step's first offload with a non-finite serialization time.
    let mut steps = table_v().steps().to_vec();
    steps[1].1 = NetworkConditions {
        bandwidth_mbps: 0.0,
        loss_pct: 0.0,
    };
    let mut cfg = short_config();
    cfg.network = StepSchedule::new(steps);
    run_experiment(cfg, Box::new(FrameFeedback::new()));
}

#[test]
fn bad_network_drives_framefeedback_to_the_probe_floor() {
    let mut cfg = short_config();
    cfg.stream.total_frames = 1800; // 60 s
    cfg.network = StepSchedule::constant(NetworkConditions::new(1.0, 30.0));
    let result = run_experiment(cfg, Box::new(FrameFeedback::new()));
    let late = result.qos.aggregate(30.0, 60.0).unwrap();
    // §III-A.1: P_o stabilizes at ~0.1·F_s when offloading always fails.
    assert!(
        late.mean_po_target < 6.0,
        "P_o target {:.1} should sit near the 3 fps probe floor",
        late.mean_po_target
    );
    // Throughput stays near the local rate: the controller protects
    // P >= P_l (§II-A.5).
    assert!(
        late.mean_throughput > 10.0,
        "throughput {:.1} collapsed below the local floor",
        late.mean_throughput
    );
}

#[test]
fn always_offload_collapses_on_a_bad_network() {
    let mut cfg = short_config();
    cfg.network = StepSchedule::constant(NetworkConditions::new(1.0, 30.0));
    let ff = run_experiment(cfg.clone(), Box::new(FrameFeedback::new()));
    let ao = run_experiment(cfg, Box::new(AlwaysOffload::new()));
    assert!(
        ff.mean_throughput > 1.5 * ao.mean_throughput,
        "FrameFeedback {:.1} must beat always-offload {:.1} on a bad network",
        ff.mean_throughput,
        ao.mean_throughput
    );
}

#[test]
fn cpu_usage_drops_when_offloading() {
    let local = run_experiment(short_config(), Box::new(LocalOnly::new()));
    let offload = run_experiment(short_config(), Box::new(AlwaysOffload::new()));
    assert!(
        local.cpu_usage_pct > 45.0,
        "local-only CPU {:.1}%, paper ~50.2%",
        local.cpu_usage_pct
    );
    assert!(
        offload.cpu_usage_pct < 30.0,
        "offloading CPU {:.1}%, paper ~22.3%",
        offload.cpu_usage_pct
    );
}

#[test]
fn background_load_produces_server_pressure() {
    let mut cfg = short_config();
    cfg.background = StepSchedule::constant(170.0); // beyond saturation (~150)
    let result = run_experiment(cfg, Box::new(AlwaysOffload::new()));
    assert!(
        result.server_stats.rejections > 0,
        "overloaded server must reject"
    );
    assert!(
        result.offload_timeouts > 0,
        "saturation must cause timeouts"
    );
}

#[test]
fn frame_trace_accounts_for_every_frame() {
    let mut cfg = short_config();
    cfg.record_trace = true;
    cfg.network = StepSchedule::constant(NetworkConditions::new(4.0, 3.0));
    let result = run_experiment(cfg, Box::new(FrameFeedback::new()));
    let trace = result.trace.as_ref().expect("trace was requested");
    assert_eq!(trace.len() as u64, result.frames_generated);
    let summary = TraceSummary::of(trace);
    assert_eq!(summary.total(), result.frames_generated);
    // Cross-check against the aggregate counters.
    assert_eq!(
        summary.offload_succeeded + summary.offload_timed_out + summary.unresolved,
        result.frames_offloaded,
        "offload fates must match the offload count"
    );
    assert_eq!(summary.offload_succeeded, result.offload_successes);
    assert!(summary.local_completed > 0);
    assert!(
        summary.unresolved <= 20,
        "only horizon stragglers may stay unresolved"
    );
    // Capture times are monotone at the frame cadence.
    for w in trace.windows(2) {
        assert!(w[1].captured_secs > w[0].captured_secs);
    }
}

#[test]
fn trace_is_absent_unless_requested() {
    let result = run_experiment(short_config(), Box::new(LocalOnly::new()));
    assert!(result.trace.is_none());
}

#[test]
fn qos_log_has_one_record_per_second() {
    let result = run_experiment(short_config(), Box::new(LocalOnly::new()));
    // 30 s stream → ~30 ticks.
    let n = result.qos.records().len();
    assert!((29..=31).contains(&n), "got {n} records");
}
