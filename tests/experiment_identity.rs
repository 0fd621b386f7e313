//! What `run_experiment` computes, pinned bit for bit.
//!
//! Each case hashes everything an `ExperimentResult` carries — every
//! QoS field as raw `f64` bits, the frame counters, the link and server
//! counters (tier total and per server), the three latency summaries,
//! the filter stats, the per-frame trace, and the accuracy, quality and
//! CPU means — and compares against a golden value. The battery covers
//! every feature the single-device experiment has beyond a plain fleet
//! device: adaptive quality, the local-model ladder, the per-frame trace,
//! a replayed capture schedule, a loss-model override, a whole-tier
//! outage, a multi-server tier with admission control, the content layer
//! with a remote model, telemetry, and binary trace recording.
//!
//! The goldens were generated by the experiment's own event loop once
//! its RNG streams were named like a fleet's device 0
//! (`indexed_stream("fleet-…", 0)`) and its requests billed the offload
//! model. The experiment then became a one-device fleet, and these
//! values did not move.

use framefeedback::baselines::{AllOrNothing, AlwaysOffload};
use framefeedback::controller::{Controller, FrameFeedback};
use framefeedback::device::{
    replay_verify, run_experiment, run_experiment_traced, run_experiment_with_telemetry, scenario,
    ExperimentConfig, ExperimentResult, FrameFate, ModelSelection, ServerOutage,
};
use framefeedback::metrics::LatencySummary;
use framefeedback::models::ModelKind;
use framefeedback::net::{GilbertElliott, LossModel, NetworkConditions};
use framefeedback::server::{AdmissionPolicy, RoutingPolicy, ServerSpec, ServerStats, TierConfig};
use framefeedback::telemetry::{Telemetry, TelemetryConfig};
use framefeedback::trace::Trace;
use framefeedback::workload::{table_v, table_vi, ReplayFrames, StepSchedule};

/// FNV-1a over little-endian bytes; floats enter as raw bit patterns.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => self.f64(v),
            None => self.u64(u64::MAX),
        }
    }
    fn summary(&mut self, s: &Option<LatencySummary>) {
        let Some(s) = s else {
            return self.u64(u64::MAX);
        };
        self.u64(s.count as u64);
        for v in [s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms] {
            self.f64(v);
        }
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

/// The hash of everything `r` carries.
fn result_hash(r: &ExperimentResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for b in r.controller.bytes() {
        h.u64(u64::from(b));
    }
    h.u64(r.qos.records().len() as u64);
    for q in r.qos.records() {
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
    for v in [
        r.frames_generated,
        r.frames_offloaded,
        r.frames_local,
        r.offload_successes,
        r.offload_timeouts,
        r.admission_rejections,
    ] {
        h.u64(v);
    }
    let l = &r.link_stats;
    for v in [
        l.frames_offered,
        l.frames_delivered,
        l.frames_dropped_overflow,
        l.frames_dropped_loss,
        l.packets_sent,
        l.packets_lost,
    ] {
        h.u64(v);
    }
    h.server(&r.server_stats);
    h.u64(r.per_server_stats.len() as u64);
    for s in &r.per_server_stats {
        h.server(s);
    }
    h.summary(&r.offload_latency);
    h.summary(&r.uplink_latency);
    h.summary(&r.server_latency);
    match r.filter_stats {
        Some(f) => {
            for v in [f.captured, f.passed, f.shrunk, f.skipped] {
                h.u64(v);
            }
        }
        None => h.u64(u64::MAX),
    }
    for v in [
        r.cpu_usage_pct,
        r.local_busy_fraction,
        r.mean_throughput,
        r.mean_accuracy_weighted_throughput,
    ] {
        h.f64(v);
    }
    h.opt_f64(r.mean_offload_accuracy);
    h.opt_f64(r.mean_offload_quality);
    h.opt_f64(r.mean_local_accuracy);
    match &r.trace {
        Some(records) => {
            h.u64(records.len() as u64);
            for f in records {
                h.u64(f.frame_id);
                h.f64(f.captured_secs);
                h.u64(f.bytes);
                match f.fate {
                    FrameFate::LocalCompleted => h.u64(0),
                    FrameFate::LocalSkipped => h.u64(1),
                    FrameFate::OffloadSucceeded { latency_ms } => {
                        h.u64(2);
                        h.f64(latency_ms);
                    }
                    FrameFate::OffloadTimedOut { network } => h.u64(3 + u64::from(network)),
                    FrameFate::Unresolved => h.u64(5),
                    FrameFate::FilteredOut => h.u64(6),
                }
            }
        }
        None => h.u64(u64::MAX),
    }
    h.0
}

fn base() -> ExperimentConfig {
    let mut c = ExperimentConfig::default();
    c.stream.total_frames = 1_200;
    c
}

fn table_v_config() -> ExperimentConfig {
    ExperimentConfig {
        network: table_v(),
        ..base()
    }
}

/// Table V's hash: also what a telemetry-on and a traced run must give.
const TABLE_V: u64 = 0x19bd_0201_6dcb_b1f5;

fn ff() -> Box<dyn Controller> {
    Box::new(FrameFeedback::new())
}

fn check(case: &str, r: &ExperimentResult, golden: u64) {
    let got = result_hash(r);
    assert_eq!(
        got, golden,
        "{case}: the experiment drifted from its pinned bits ({got:#018x})"
    );
}

#[test]
fn the_paper_scenarios_are_pinned() {
    check(
        "ideal",
        &run_experiment(base(), ff()),
        0xbc32_024b_2ec3_6c83,
    );
    check("table-v", &run_experiment(table_v_config(), ff()), TABLE_V);
    let table_vi = ExperimentConfig {
        background: table_vi(),
        ..base()
    };
    check(
        "table-vi",
        &run_experiment(table_vi, Box::new(AlwaysOffload::new())),
        0x1ca9_70a8_3647_86fd,
    );
}

#[test]
fn adaptive_quality_and_the_local_model_ladder_are_pinned() {
    let quality = ExperimentConfig {
        adaptive_quality: true,
        ..table_v_config()
    };
    let r = run_experiment(quality, ff());
    assert!(
        r.mean_offload_quality < Some(90.0),
        "quality must step down"
    );
    check("adaptive-quality", &r, 0x053d_a20d_36b4_90b0);
    let ladder = ExperimentConfig {
        adaptive_local_model: true,
        ..table_v_config()
    };
    let r = run_experiment(ladder, ff());
    let paper_accuracy = ModelKind::MobileNetV3Small.profile().top1_accuracy;
    assert!(
        r.mean_local_accuracy > Some(paper_accuracy),
        "the ladder must climb"
    );
    check("local-ladder", &r, 0xcaea_0559_cc34_ed61);
}

#[test]
fn the_frame_trace_and_a_replayed_schedule_are_pinned() {
    let traced = ExperimentConfig {
        record_trace: true,
        ..table_v_config()
    };
    let r = run_experiment(traced, ff());
    assert!(r.trace.is_some());
    check("record-trace", &r, 0xe575_7cab_8e00_f3f2);

    // A recorded capture schedule, replayed under a different network.
    let (_, bytes) = run_experiment_traced(table_v_config(), ff());
    let schedule = ReplayFrames::from_trace(&Trace::decode(&bytes).expect("decodes"));
    let replayed = ExperimentConfig {
        replay: Some(schedule),
        network: StepSchedule::constant(NetworkConditions::new(6.0, 2.0)),
        ..base()
    };
    check(
        "replay",
        &run_experiment(replayed, ff()),
        0x3bee_ea78_4892_0fc8,
    );
}

#[test]
fn a_loss_model_override_and_a_whole_tier_outage_are_pinned() {
    let bursty = ExperimentConfig {
        loss_model: Some(LossModel::GilbertElliott(
            GilbertElliott::with_average_loss(0.05),
        )),
        ..table_v_config()
    };
    let r = run_experiment(bursty, ff());
    assert!(r.link_stats.packets_lost > 0);
    check("gilbert-elliott", &r, 0x8d48_59d2_d177_8bf1);
    let outage = ExperimentConfig {
        outage: Some(ServerOutage {
            from_secs: 12.0,
            until_secs: 24.0,
        }),
        ..base()
    };
    check(
        "outage",
        &run_experiment(outage, ff()),
        0x5a89_b517_c123_1ead,
    );
}

#[test]
fn a_two_server_tier_with_a_token_bucket_is_pinned() {
    // Power-of-two choices over two small servers, a per-tenant bucket
    // tighter than the device's offered rate, Table VI background load,
    // and an outage that takes both servers down at once.
    let tier = ExperimentConfig {
        tier: Some(TierConfig {
            routing: RoutingPolicy::PowerOfTwoChoices,
            admission: AdmissionPolicy::TokenBucket {
                rate_rps: 20.0,
                burst: 10.0,
            },
            ..TierConfig::uniform(2, ServerSpec::default())
        }),
        background: table_vi(),
        outage: Some(ServerOutage {
            from_secs: 30.0,
            until_secs: 33.0,
        }),
        ..base()
    };
    let r = run_experiment(tier, Box::new(AllOrNothing::new()));
    assert!(r.admission_rejections > 0, "the bucket must bite");
    check("tier-po2-bucket", &r, 0x59fa_c1dd_1b65_1ac6);
}

#[test]
fn the_content_layer_with_a_remote_model_is_pinned() {
    let mut c = scenario("scene-bursty").expect("canonical scenario");
    c.stream.total_frames = 1_800;
    c.selection = ModelSelection::ExpectedAccuracy { margin: 0.04 };
    c.remote_model = Some(ModelKind::EfficientNetB0);
    let r = run_experiment(c, ff());
    assert!(r.filter_stats.is_some());
    check("content-remote", &r, 0xa4b5_e130_f3b7_6166);
}

#[test]
fn telemetry_and_trace_recording_leave_the_pinned_bits_alone() {
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let observed = run_experiment_with_telemetry(table_v_config(), ff(), &telemetry);
    telemetry.finish();
    check("telemetry", &observed, TABLE_V);

    let (traced, bytes) = run_experiment_traced(table_v_config(), ff());
    check("traced", &traced, TABLE_V);
    let trace = Trace::decode(&bytes).expect("the recording decodes");
    let report = replay_verify(&trace).expect("the recording replays exactly");
    assert_eq!(report.captures, traced.frames_generated);
}
