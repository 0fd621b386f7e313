//! The trace recorder's two contracts, end to end:
//!
//! 1. **Inert**: recording a binary trace changes nothing — the
//!    `ExperimentResult` of a traced run is bit-identical to an untraced
//!    one (the `telemetry_inert` guarantee, extended to `ff-trace`).
//! 2. **Faithful**: the recorded trace replay-verifies — driving a fresh
//!    `DeviceRuntime` with the recorded call sequence reproduces every
//!    controller decision, QoS record (raw `f64` bits), and end-of-run
//!    counter exactly, and the decoded trace re-encodes byte-identically.
//!
//! Plus the derived workload path: the capture schedule extracted from a
//! trace replays through the simulator as a recorded frame stream.

use framefeedback::baselines::AllOrNothing;
use framefeedback::controller::FrameFeedback;
use framefeedback::device::{
    replay_verify, run_experiment, run_experiment_traced, scenario, ExperimentConfig,
    ExperimentResult, ModelSelection, ServerOutage,
};
use framefeedback::models::ModelKind;
use framefeedback::trace::{Trace, TraceEvent};
use framefeedback::workload::{table_v, table_vi, ReplayFrames};

fn stressed_config() -> ExperimentConfig {
    // Table V network + Table VI load + a mid-run outage: exercises
    // accepts, drops, instant failures, server rejections, both timeout
    // causes, and probe-floor recovery in one 60 s run.
    let mut c = ExperimentConfig::default();
    c.stream.total_frames = 1_800;
    c.network = table_v();
    c.background = table_vi();
    c.outage = Some(ServerOutage {
        from_secs: 20.0,
        until_secs: 30.0,
    });
    c
}

fn assert_results_identical(a: &ExperimentResult, b: &ExperimentResult) {
    assert_eq!(a.controller, b.controller);
    assert_eq!(a.frames_generated, b.frames_generated);
    assert_eq!(a.frames_offloaded, b.frames_offloaded);
    assert_eq!(a.frames_local, b.frames_local);
    assert_eq!(a.offload_successes, b.offload_successes);
    assert_eq!(a.offload_timeouts, b.offload_timeouts);
    assert_eq!(a.link_stats, b.link_stats);
    assert_eq!(a.server_stats, b.server_stats);
    assert_eq!(a.mean_throughput.to_bits(), b.mean_throughput.to_bits());
    assert_eq!(a.qos.records().len(), b.qos.records().len());
    for (ra, rb) in a.qos.records().iter().zip(b.qos.records()) {
        assert_eq!(ra, rb, "QoS records diverged");
    }
}

#[test]
fn recording_a_trace_is_inert() {
    let plain = run_experiment(stressed_config(), Box::new(FrameFeedback::new()));
    let (traced, bytes) = run_experiment_traced(stressed_config(), Box::new(FrameFeedback::new()));
    assert_results_identical(&plain, &traced);
    assert!(!bytes.is_empty());
}

#[test]
fn recorded_sim_run_replay_verifies_bit_for_bit() {
    let (result, bytes) = run_experiment_traced(stressed_config(), Box::new(FrameFeedback::new()));
    let trace = Trace::decode(&bytes).expect("recorded trace decodes");
    assert_eq!(trace.header.controller, "framefeedback");
    assert_eq!(trace.header.seed, 42);

    // Decoded → re-encoded is the identity on bytes.
    assert_eq!(trace.encode(), bytes, "re-encoding must be byte-identical");

    let report = replay_verify(&trace).expect("replay must match the recording");
    assert_eq!(report.events, trace.events.len() as u64);
    assert_eq!(report.captures, result.frames_generated);
    assert_eq!(
        report.ticks,
        result.qos.records().len() as u64,
        "every controller tick must be verified"
    );
    // Offload submits + one probe submit per tick.
    assert_eq!(report.submits, result.frames_offloaded + report.ticks);

    // The End record carries the run's final counters.
    let Some(TraceEvent::End {
        frames_offloaded,
        successes,
        timeouts,
        ..
    }) = trace.events.last()
    else {
        panic!("trace must end with an End record");
    };
    assert_eq!(*frames_offloaded, result.frames_offloaded);
    assert_eq!(*successes, result.offload_successes);
    assert_eq!(*timeouts, result.offload_timeouts);
}

#[test]
fn replay_verify_detects_tampering() {
    let (_, bytes) = run_experiment_traced(stressed_config(), Box::new(FrameFeedback::new()));
    let mut trace = Trace::decode(&bytes).unwrap();

    // Flip one recorded routing decision; the replayed splitter will
    // disagree and the verifier must say where.
    let idx = trace
        .events
        .iter()
        .position(|e| matches!(e, TraceEvent::Capture { .. }))
        .expect("trace has captures");
    if let TraceEvent::Capture { route, .. } = &mut trace.events[idx] {
        *route = match route {
            framefeedback::trace::TraceRoute::Offload => framefeedback::trace::TraceRoute::Local,
            framefeedback::trace::TraceRoute::Local => framefeedback::trace::TraceRoute::Offload,
        };
    }
    let err = replay_verify(&trace).expect_err("tampered trace must not verify");
    assert!(
        err.index <= idx + 1,
        "mismatch at {} not near {idx}",
        err.index
    );
}

#[test]
fn traces_verify_for_every_builtin_controller() {
    let mut cfg = stressed_config();
    cfg.stream.total_frames = 600;
    for controller in ["local-only", "always-offload", "all-or-nothing"] {
        let boxed: Box<dyn framefeedback::controller::Controller> = match controller {
            "local-only" => Box::new(framefeedback::baselines::LocalOnly::new()),
            "always-offload" => Box::new(framefeedback::baselines::AlwaysOffload::new()),
            _ => Box::new(AllOrNothing::new()),
        };
        let (_, bytes) = run_experiment_traced(cfg.clone(), boxed);
        let trace = Trace::decode(&bytes).unwrap();
        assert_eq!(trace.header.controller, controller);
        replay_verify(&trace).unwrap_or_else(|e| panic!("{controller}: {e}"));
    }
}

/// A content-aware run — scene script, semantic filter, accuracy-aware
/// selection — records and replay-verifies like any other: skipped
/// frames never enter the trace (the filter drops them before
/// `route_frame`), shrunk frames are recorded at their reduced size, and
/// the schema-v2 header carries the selection policy and Table III
/// accuracies the replayed runtime needs to re-derive every demotion.
#[test]
fn content_aware_run_replay_verifies_bit_for_bit() {
    let mut config = scenario("scene-bursty").expect("named scenario");
    config.stream.total_frames = 1_200; // 40 s: reaches the collapse window
    config.selection = ModelSelection::ExpectedAccuracy { margin: 0.04 };
    let (result, bytes) = run_experiment_traced(config, Box::new(FrameFeedback::new()));
    let trace = Trace::decode(&bytes).expect("content-aware trace decodes");

    assert_eq!(trace.header.selection, 1, "expected-accuracy policy code");
    assert_eq!(trace.header.selection_margin.to_bits(), 0.04f64.to_bits());
    assert_eq!(
        trace.header.local_accuracy.to_bits(),
        ModelKind::MobileNetV3Small
            .profile()
            .top1_accuracy
            .to_bits()
    );
    assert_eq!(
        trace.header.remote_accuracy.to_bits(),
        ModelKind::EfficientNetB0.profile().top1_accuracy.to_bits()
    );
    assert_eq!(trace.encode(), bytes, "re-encoding must be byte-identical");

    let report = replay_verify(&trace).expect("content-aware replay must match");
    let stats = result.filter_stats.expect("scenario carries a filter");
    assert!(stats.conserved());
    assert!(stats.skipped > 0, "calm phases must skip frames: {stats:?}");
    assert_eq!(
        report.captures,
        stats.passed + stats.shrunk,
        "exactly the frames that survived the filter are recorded"
    );
}

/// Tampering with a content-aware trace must not verify: neither a
/// flipped routing decision (the selection policy's demotion verdict)
/// nor a corrupted accuracy-weighted QoS sample — the schema-v2 field —
/// survives `replay_verify`.
#[test]
fn content_aware_replay_detects_tampered_verdicts() {
    let mut config = scenario("scene-bursty").expect("named scenario");
    config.stream.total_frames = 1_200;
    config.selection = ModelSelection::ExpectedAccuracy { margin: 0.04 };
    let (_, bytes) = run_experiment_traced(config, Box::new(FrameFeedback::new()));

    // Flip one recorded route: the replayed runtime re-derives the
    // splitter + demotion decision and must disagree.
    let mut tampered = Trace::decode(&bytes).unwrap();
    let idx = tampered
        .events
        .iter()
        .position(|e| matches!(e, TraceEvent::Capture { .. }))
        .expect("trace has captures");
    if let TraceEvent::Capture { route, .. } = &mut tampered.events[idx] {
        *route = match route {
            framefeedback::trace::TraceRoute::Offload => framefeedback::trace::TraceRoute::Local,
            framefeedback::trace::TraceRoute::Local => framefeedback::trace::TraceRoute::Offload,
        };
    }
    let err = replay_verify(&tampered).expect_err("tampered route must not verify");
    assert!(err.index <= idx + 1);

    // Flip the low mantissa bit of one tick's accuracy-weighted
    // throughput: the replayed tick recomputes it and the raw-bits
    // comparison must catch the single-bit lie.
    let mut tampered = Trace::decode(&bytes).unwrap();
    let idx = tampered
        .events
        .iter()
        .position(
            |e| matches!(e, TraceEvent::Tick { qos, .. } if qos.accuracy_weighted_throughput > 0.0),
        )
        .expect("a tick with accuracy-weighted throughput");
    if let TraceEvent::Tick { qos, .. } = &mut tampered.events[idx] {
        qos.accuracy_weighted_throughput =
            f64::from_bits(qos.accuracy_weighted_throughput.to_bits() ^ 1);
    }
    let err = replay_verify(&tampered).expect_err("tampered QoS must not verify");
    assert_eq!(err.index, idx, "mismatch must point at the tampered tick");
    assert!(
        err.detail.contains("QoS"),
        "unexpected detail: {}",
        err.detail
    );
}

#[test]
fn trace_captures_replay_as_workload() {
    let (original, bytes) =
        run_experiment_traced(stressed_config(), Box::new(FrameFeedback::new()));
    let trace = Trace::decode(&bytes).unwrap();
    let replay = ReplayFrames::from_trace(&trace);
    assert_eq!(replay.len() as u64, original.frames_generated);

    let mut cfg = stressed_config();
    cfg.replay = Some(replay);
    let replayed = run_experiment(cfg, Box::new(FrameFeedback::new()));

    // Same capture schedule, same seed, same conditions: the replayed
    // run sees the identical frame stream, so the whole run reproduces.
    assert_eq!(replayed.frames_generated, original.frames_generated);
    assert_eq!(replayed.frames_offloaded, original.frames_offloaded);
    assert_eq!(replayed.offload_successes, original.offload_successes);
    assert_eq!(replayed.offload_timeouts, original.offload_timeouts);
    assert_eq!(
        replayed.mean_throughput.to_bits(),
        original.mean_throughput.to_bits()
    );
}
