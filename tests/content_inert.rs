//! Differential inertness for the content-aware workload layer.
//!
//! The house contract: every knob the layer added — `scene`, `filter`,
//! `selection`, `remote_model` — is disabled by default, and disabled
//! means **bit-identical to the pre-PR runtime**. That claim is pinned
//! against golden FNV-1a hashes of the raw `f64` bit patterns (plus the
//! frame counters) of canonical runs, generated at the commit preceding
//! this layer: a hash collision aside, a single flipped mantissa bit in
//! any QoS record of any run fails these tests.
//!
//! Covered: the single-device experiment runner and the fleet runner,
//! each with telemetry off and on (telemetry must not perturb the
//! simulation either — `telemetry_inert.rs` proves on == off, this file
//! proves both equal the pre-PR bits). Explicitly spelling out the
//! legacy knob values, and pointing `remote_model` at the model already
//! deployed, must also land on the same bits.
//!
//! The flip side — the acceptance criterion for the layer being *worth
//! its knobs* — is pinned at the committed `content_sweep` scale:
//! `ExpectedAccuracy` beats `AlwaysPaper` on accuracy-weighted
//! throughput in at least 1 of the 3 named scene scenarios. (It was 2 of
//! 3 while offloads were billed to the server as the device's model
//! rather than the remote one; `CONTENT_SWEEP.md` has the numbers.)

use framefeedback::controller::{Controller, FrameFeedback};
use framefeedback::device::{
    content_scenarios, run_experiment, run_experiment_with_telemetry, run_fleet, ExperimentConfig,
    ExperimentResult, FleetConfig, ModelSelection,
};
use framefeedback::metrics::QosRecord;
use framefeedback::telemetry::{Telemetry, TelemetryConfig};
use framefeedback::workload::table_v;

const MASTER_SEED: u64 = 0x713A_5EED;

/// Golden hashes produced by this file's exact hashing scheme at the
/// commit before the content-aware layer landed (examples/content_golden
/// generator run at that commit; regenerate the same way if a future PR
/// deliberately changes legacy behavior).
///
/// The experiment's pin moved once since: when the single-device
/// experiment became a fleet of one, its RNG streams took the fleet's
/// names (`indexed_stream("fleet-…", 0)`) and its requests the fleet's
/// billing (the offload model). It was `0x8394e965ca274cda` before.
const PRE_PR_EXPERIMENT: u64 = 0xb2ef_e068_bb1f_629f;
const PRE_PR_FLEET: u64 = 0x3572358648854d1a;

/// FNV-1a over little-endian bytes; f64s enter as raw bit patterns, so
/// `-0.0` vs `0.0` or NaN payload drift changes the hash where `==`
/// would lie.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// The seven pre-PR QoS fields, in declaration order. The eighth
    /// (`accuracy_weighted_throughput`) did not exist pre-PR and is
    /// deliberately outside the golden hash.
    fn records(&mut self, records: &[QosRecord]) {
        self.u64(records.len() as u64);
        for r in records {
            self.f64(r.t_secs);
            self.f64(r.pl);
            self.f64(r.po);
            self.f64(r.timeouts);
            self.f64(r.timeouts_network);
            self.f64(r.timeouts_load);
            self.f64(r.po_target);
        }
    }
}

/// The canonical experiment the goldens pin: Table V network, 40 s —
/// long enough to reach the first bandwidth degradation step.
fn golden_experiment_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::default();
    config.seed = MASTER_SEED;
    config.stream.total_frames = 1_200;
    config.network = table_v();
    config
}

fn experiment_hash(r: &ExperimentResult) -> u64 {
    let mut h = Fnv::new();
    h.records(r.qos.records());
    h.u64(r.frames_offloaded);
    h.u64(r.frames_local);
    h.u64(r.offload_timeouts);
    h.0
}

fn golden_fleet_config() -> FleetConfig {
    let mut config = FleetConfig::default();
    config.seed = MASTER_SEED;
    config.stream.total_frames = 600;
    config
}

fn fleet_controllers(n: usize) -> Vec<Box<dyn Controller>> {
    (0..n)
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect()
}

#[test]
fn legacy_experiment_is_bit_identical_to_pre_pr() {
    let r = run_experiment(golden_experiment_config(), Box::new(FrameFeedback::new()));
    assert_eq!(
        experiment_hash(&r),
        PRE_PR_EXPERIMENT,
        "default-config experiment drifted from the pre-content-layer bits"
    );
    assert!(
        r.filter_stats.is_none(),
        "no filter configured, no filter stats"
    );
}

#[test]
fn explicit_legacy_knobs_are_the_defaults() {
    let mut config = golden_experiment_config();
    config.scene = None;
    config.filter = None;
    config.selection = ModelSelection::AlwaysPaper;
    // Pointing the remote at the model already deployed is a no-op: same
    // accuracies, same request payloads.
    config.remote_model = Some(config.model);
    let r = run_experiment(config, Box::new(FrameFeedback::new()));
    assert_eq!(experiment_hash(&r), PRE_PR_EXPERIMENT);
}

#[test]
fn legacy_experiment_with_telemetry_is_bit_identical_to_pre_pr() {
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let rx = telemetry.subscribe().expect("enabled pipeline subscribes");
    let r = run_experiment_with_telemetry(
        golden_experiment_config(),
        Box::new(FrameFeedback::new()),
        &telemetry,
    );
    telemetry.finish();
    assert!(
        std::iter::from_fn(|| rx.try_recv().ok()).count() > 0,
        "telemetry actually observed"
    );
    assert_eq!(experiment_hash(&r), PRE_PR_EXPERIMENT);
}

#[test]
fn legacy_fleet_is_bit_identical_to_pre_pr() {
    let config = golden_fleet_config();
    let n = config.devices.len();
    let f = run_fleet(config, fleet_controllers(n));
    let mut h = Fnv::new();
    for d in &f.devices {
        h.records(d.qos.records());
        h.u64(d.frames_offloaded);
        h.u64(d.offload_successes);
        h.u64(d.offload_timeouts);
        assert!(d.filter_stats.is_none(), "no filter configured");
    }
    assert_eq!(
        h.0, PRE_PR_FLEET,
        "default-config fleet drifted from the pre-content-layer bits"
    );
}

#[test]
fn legacy_fleet_with_telemetry_is_bit_identical_to_pre_pr() {
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let rx = telemetry.subscribe().expect("enabled pipeline subscribes");
    let mut config = golden_fleet_config();
    config.selection = ModelSelection::AlwaysPaper;
    config.remote_model = None;
    config.telemetry = telemetry.clone();
    let n = config.devices.len();
    let f = run_fleet(config, fleet_controllers(n));
    telemetry.finish();
    assert!(
        std::iter::from_fn(|| rx.try_recv().ok()).count() > 0,
        "telemetry actually observed"
    );
    let mut h = Fnv::new();
    for d in &f.devices {
        h.records(d.qos.records());
        h.u64(d.frames_offloaded);
        h.u64(d.offload_successes);
        h.u64(d.offload_timeouts);
    }
    assert_eq!(h.0, PRE_PR_FLEET);
}

/// The committed acceptance criterion, at the committed scale (the same
/// 1800-frame runs `content_sweep` tabulates): accuracy-aware selection
/// must win at least 1 of the 3 named scenarios on accuracy-weighted
/// throughput, and the filter's conservation invariant must hold in
/// every run.
#[test]
fn expected_accuracy_wins_the_committed_scenarios() {
    let mut wins = 0;
    for (name, mut config) in content_scenarios() {
        config.stream.total_frames = 1_800;
        let paper = run_experiment(config.clone(), Box::new(FrameFeedback::new()));
        config.selection = ModelSelection::ExpectedAccuracy { margin: 0.04 };
        let aware = run_experiment(config, Box::new(FrameFeedback::new()));
        for r in [&paper, &aware] {
            let stats = r.filter_stats.expect("content scenarios carry a filter");
            assert!(stats.conserved(), "{name}: filter counters must conserve");
            assert_eq!(stats.captured, 1_800, "{name}: every frame filtered");
        }
        if aware.mean_accuracy_weighted_throughput > paper.mean_accuracy_weighted_throughput {
            wins += 1;
        } else {
            println!(
                "{name}: paper {:.2} vs expected-accuracy {:.2}",
                paper.mean_accuracy_weighted_throughput, aware.mean_accuracy_weighted_throughput
            );
        }
    }
    assert!(
        wins >= 1,
        "ExpectedAccuracy must win >= 1 of 3 scene scenarios, won {wins}"
    );
}
