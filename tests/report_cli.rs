//! The command line of one experiment: `report`'s `run`, `verify_trace`
//! and `dump_config` entries, driven through `ff_bench::report` as the
//! `report` binary drives them. Each test exports into its own
//! directory and reads back what `report` wrote there.
//!
//! Exit statuses: 0 on success; 2 for a flag that is unknown, not taken
//! by the entry, missing its value or badly valued — before anything
//! runs or is exported; 1 for an unreadable `--config` or trace, a
//! config that fails validation, a replay mismatch or a failed write.

use ff_bench::report;
use framefeedback::controller::PidConfig;
use framefeedback::device::{
    run_experiment, scenario, ControllerSpec, ExperimentConfig, ModelSelection, ServerOutage,
    SCENARIO_NAMES,
};
use framefeedback::net::NetworkConditions;
use framefeedback::server::{AdmissionPolicy, RoutingPolicy};
use framefeedback::sim::SimDuration;
use framefeedback::trace::Trace;
use framefeedback::workload::StepSchedule;
use std::path::{Path, PathBuf};

/// A fresh, empty directory under the system temp directory, unique to
/// this test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("report-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `report` on the words of `line`, exporting into `dir`; `{dir}` in
/// `line` stands for `dir`.
fn report_in(dir: &Path, line: &str) -> u8 {
    let dir_str = dir.to_str().expect("a UTF-8 temp path");
    let args: Vec<String> = line
        .split_whitespace()
        .map(|word| word.replace("{dir}", dir_str))
        .collect();
    report(&args, dir)
}

/// The JSON `report` exported for `entry` into `dir`.
fn exported(dir: &Path, entry: &str) -> String {
    std::fs::read_to_string(dir.join(format!("{entry}.json"))).expect("an exported entry")
}

/// Asserts that `line` exits 2 and exports nothing.
fn rejected(dir: &Path, line: &str) {
    let entry = line.split_whitespace().next().unwrap();
    let path = dir.join(format!("{entry}.json"));
    let _ = std::fs::remove_file(&path);
    assert_eq!(report_in(dir, line), 2, "`report {line}` must exit 2");
    assert!(!path.exists(), "`report {line}` exported {path:?}");
}

/// The config `dump_config` exports for `flags`.
fn dumped(dir: &Path, flags: &str) -> ExperimentConfig {
    assert_eq!(
        report_in(dir, &format!("dump_config {flags}")),
        0,
        "{flags}"
    );
    serde_json::from_str(&exported(dir, "dump_config")).expect("an ExperimentConfig")
}

/// The pretty JSON of `config` run under `controller`: the bytes `run`
/// must export for the same experiment.
fn direct(config: ExperimentConfig, controller: ControllerSpec) -> String {
    serde_json::to_string_pretty(&run_experiment(config, controller.build())).unwrap()
}

/// The named scenario at `seed` and `frames`.
fn scenario_at(name: &str, seed: u64, frames: u64) -> ExperimentConfig {
    let mut config = scenario(name).unwrap();
    config.seed = seed;
    config.stream.total_frames = frames;
    config
}

/// Writes `body` to `name` in `dir`; returns the path.
fn write(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn defaults_parse() {
    let dir = scratch("defaults");
    let config = dumped(&dir, "");
    assert_eq!((config.seed, config.stream.total_frames), (42, 4_000));
    let table5 = serde_json::to_string(&scenario("table5").unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&config).unwrap(), table5);
    // The default controller is FrameFeedback at the paper's gains.
    assert_eq!(report_in(&dir, "run --frames 60"), 0);
    let expected = direct(
        scenario_at("table5", 42, 60),
        ControllerSpec::framefeedback(),
    );
    assert_eq!(exported(&dir, "run"), expected);
}

#[test]
fn full_argument_set_parses() {
    let dir = scratch("full");
    let line = "run --scenario table6 --controller all-or-nothing --seed 7 --frames 90";
    assert_eq!(report_in(&dir, line), 0);
    let expected = direct(scenario_at("table6", 7, 90), ControllerSpec::AllOrNothing);
    assert_eq!(exported(&dir, "run"), expected);
}

#[test]
fn gain_overrides_parse_for_framefeedback() {
    // Long enough for the Table V degradation: before it, both gain
    // sets ramp at the update clamp alike.
    let dir = scratch("gains");
    assert_eq!(report_in(&dir, "run --kp 0.3 --kd 0.1 --frames 1500"), 0);
    let tuned = exported(&dir, "run");
    let config = || scenario_at("table5", 42, 1_500);
    let pid = PidConfig {
        kp: 0.3,
        kd: 0.1,
        ..PidConfig::default()
    };
    assert_eq!(tuned, direct(config(), ControllerSpec::FrameFeedback(pid)));
    let paper = direct(config(), ControllerSpec::framefeedback());
    assert_ne!(tuned, paper, "the gains reached the controller");
}

#[test]
fn gain_overrides_rejected_for_baselines() {
    let dir = scratch("baseline-gains");
    rejected(&dir, "run --controller local-only --kp 0.3");
    rejected(&dir, "run --controller all-or-nothing --kd 0.1");
}

#[test]
fn unknown_scenario_is_rejected() {
    let dir = scratch("scenario");
    rejected(&dir, "run --scenario nope");
    rejected(&dir, "dump_config --scenario nope");
}

#[test]
fn unknown_controller_is_rejected() {
    rejected(&scratch("controller"), "run --controller nope");
}

#[test]
fn unknown_flag_is_rejected() {
    let dir = scratch("unknown-flag");
    rejected(&dir, "run --bogus 1");
    // No JSON, quiet or help flag: report exports every entry and
    // prints its usage on any bad flag, and verification and the
    // config template are entries of their own.
    for flag in [
        "--json out.json",
        "--quiet",
        "--verify-trace a.fftrace",
        "--dump-config",
        "--help",
        "-h",
    ] {
        rejected(&dir, &format!("run {flag}"));
    }
}

#[test]
fn missing_value_is_rejected() {
    let dir = scratch("missing-value");
    rejected(&dir, "run --seed");
    rejected(&dir, "run --seed --frames 30");
}

#[test]
fn bad_numeric_value_is_rejected() {
    let dir = scratch("bad-number");
    rejected(&dir, "run --seed banana");
    rejected(&dir, "run --frames -3");
    rejected(&dir, "run --kp fast");
}

#[test]
fn every_scenario_builds_an_experiment() {
    let dir = scratch("every-scenario");
    for name in SCENARIO_NAMES {
        let config = dumped(&dir, &format!("--scenario {name} --frames 30"));
        let expected = serde_json::to_string(&scenario_at(name, 42, 30)).unwrap();
        assert_eq!(serde_json::to_string(&config).unwrap(), expected, "{name}");
    }
}

#[test]
fn scene_scenarios_carry_the_content_layer() {
    let config = dumped(
        &scratch("scene"),
        "--scenario scene-bursty --frames 30 --seed 9",
    );
    assert!(config.scene.is_some());
    assert!(config.filter.is_some());
    assert_eq!(config.seed, 9, "--seed overrides the scenario");
    assert_eq!(config.selection, ModelSelection::AlwaysPaper);
}

#[test]
fn selection_strings_parse() {
    let dir = scratch("selection-strings");
    for (value, selection) in [
        ("paper", ModelSelection::AlwaysPaper),
        (
            "expected-accuracy",
            ModelSelection::ExpectedAccuracy { margin: 0.0 },
        ),
        (
            "expected-accuracy:0.05",
            ModelSelection::ExpectedAccuracy { margin: 0.05 },
        ),
    ] {
        let config = dumped(&dir, &format!("--selection {value}"));
        assert_eq!(config.selection, selection, "{value}");
    }
    rejected(&dir, "dump_config --selection expected-accuracy:inf");
    rejected(&dir, "dump_config --selection oracle");
}

#[test]
fn selection_flag_lands_in_the_config() {
    let dir = scratch("selection-flag");
    let config = dumped(
        &dir,
        "--scenario scene-static --selection expected-accuracy:0.02 --frames 30",
    );
    let margin = ModelSelection::ExpectedAccuracy { margin: 0.02 };
    assert_eq!(config.selection, margin);
    rejected(&dir, "run --selection nope");
}

#[test]
fn config_file_round_trips_through_build() {
    let dir = scratch("config-round-trip");
    let mut original = ExperimentConfig::default();
    original.stream.total_frames = 77;
    original.peer_devices = 5;
    original.seed = 7;
    let body = serde_json::to_string(&original).unwrap();
    let path = write(&dir, "config.json", &body);
    let loaded = dumped(&dir, &format!("--config {}", path.display()));
    assert_eq!(serde_json::to_string(&loaded).unwrap(), body);
}

#[test]
fn a_config_file_keeps_its_seed_unless_seed_is_given() {
    let dir = scratch("config-seed");
    let file = scenario_at("table5", 7, 90);
    let path = write(&dir, "c.json", &serde_json::to_string(&file).unwrap());
    let ff = ControllerSpec::framefeedback;
    assert_eq!(
        report_in(&dir, &format!("run --config {}", path.display())),
        0
    );
    assert_eq!(exported(&dir, "run"), direct(file.clone(), ff()));
    let line = format!("run --config {} --seed 42", path.display());
    assert_eq!(report_in(&dir, &line), 0);
    assert_eq!(
        exported(&dir, "run"),
        direct(scenario_at("table5", 42, 90), ff())
    );
    assert_ne!(
        direct(file, ff()),
        exported(&dir, "run"),
        "the seed matters"
    );
}

#[test]
fn frames_given_with_a_config_override_it_even_at_the_default() {
    let dir = scratch("config-frames");
    let file = scenario_at("table5", 7, 90);
    let path = write(&dir, "c.json", &serde_json::to_string(&file).unwrap());
    let config = dumped(&dir, &format!("--config {} --frames 4000", path.display()));
    assert_eq!(config.stream.total_frames, 4_000);
    assert_eq!(config.seed, 7);
}

#[test]
fn a_missing_or_unparsable_config_exits_1() {
    let dir = scratch("config-unreadable");
    let bad = write(&dir, "bad.json", "{\"seed\": 1");
    for entry in ["run", "dump_config"] {
        assert_eq!(
            report_in(&dir, &format!("{entry} --config {{dir}}/nope.json")),
            1
        );
        assert_eq!(
            report_in(&dir, &format!("{entry} --config {}", bad.display())),
            1
        );
        assert!(!dir.join(format!("{entry}.json")).exists());
    }
}

/// A config that parses but cannot run is refused before anything runs,
/// with the rule it breaks: `run --config` exits 1 and exports nothing.
#[test]
fn a_config_that_fails_validation_exits_1() {
    let dir = scratch("config-invalid");
    let mut empty_batches = ExperimentConfig::default();
    empty_batches.gpu.batch_limit = 0;
    let mut negative_bandwidth = ExperimentConfig::default();
    let conditions = NetworkConditions {
        bandwidth_mbps: -1.0,
        loss_pct: 0.0,
    };
    negative_bandwidth.network = StepSchedule::constant(conditions);
    let backwards_outage = ExperimentConfig {
        outage: Some(ServerOutage {
            from_secs: 5.0,
            until_secs: 3.0,
        }),
        ..ExperimentConfig::default()
    };
    let cases = [
        (
            "batch-limit",
            empty_batches,
            "server 0: gpu.batch_limit must be at least 1",
        ),
        (
            "bandwidth",
            negative_bandwidth,
            "the shared network schedule, step 0 (t = 0 s): bandwidth must be positive",
        ),
        (
            "outage",
            backwards_outage,
            "outage must end after it starts: [5, 3)",
        ),
    ];
    for (name, config, why) in cases {
        let err = config.check().expect_err(name);
        assert!(err.contains(why), "{name}: {err}");
        let body = serde_json::to_string(&config).unwrap();
        let path = write(&dir, &format!("{name}.json"), &body);
        let line = format!("run --config {}", path.display());
        assert_eq!(report_in(&dir, &line), 1, "{name}");
        assert!(!dir.join("run.json").exists(), "{name} exported a run");
    }
}

#[test]
fn a_config_and_a_scenario_together_exit_2() {
    let dir = scratch("config-and-scenario");
    let path = write(
        &dir,
        "c.json",
        &serde_json::to_string(&ExperimentConfig::default()).unwrap(),
    );
    let file = path.display();
    rejected(&dir, &format!("run --config {file} --scenario table6"));
    rejected(
        &dir,
        &format!("dump_config --scenario table6 --config {file}"),
    );
}

#[test]
fn trace_flags_parse() {
    let dir = scratch("trace");
    assert_eq!(
        report_in(&dir, "run --trace {dir}/run.fftrace --frames 90"),
        0
    );
    let bytes = std::fs::read(dir.join("run.fftrace")).expect("the trace was written");
    let trace = Trace::decode(&bytes).expect("a valid trace");
    assert_eq!(
        (trace.header.controller.as_str(), trace.header.seed),
        ("framefeedback", 42)
    );
    // Recording leaves the result as it is.
    let expected = direct(
        scenario_at("table5", 42, 90),
        ControllerSpec::framefeedback(),
    );
    assert_eq!(exported(&dir, "run"), expected);
    assert_eq!(report_in(&dir, "verify_trace --trace {dir}/run.fftrace"), 0);
    // A trace that cannot be written fails the run.
    assert_eq!(
        report_in(&dir, "run --trace {dir}/no/such/dir/x.fftrace --frames 30"),
        1
    );
}

#[test]
fn verify_trace_takes_the_gain_flags() {
    let dir = scratch("verify-flags");
    let record = "run --frames 90 --kp 0.9 --kd 0.1 --trace {dir}/b.fftrace";
    assert_eq!(report_in(&dir, record), 0);
    let verify = "verify_trace --trace {dir}/b.fftrace --kp 0.9 --kd 0.1";
    assert_eq!(report_in(&dir, verify), 0);
    // A run's flags are refused by name.
    for flag in ["--seed 3", "--frames 90", "--controller local-only"] {
        rejected(
            &dir,
            &format!("verify_trace --trace {{dir}}/b.fftrace {flag}"),
        );
    }
    rejected(&dir, "verify_trace --kp 0.9");
}

#[test]
fn a_run_recorded_with_tuned_gains_verifies_under_those_gains() {
    let dir = scratch("tuned-verify");
    let record = "run --scenario table5 --frames 300 --kp 0.9 --trace {dir}/tuned.fftrace";
    assert_eq!(report_in(&dir, record), 0);
    assert_eq!(
        report_in(&dir, "verify_trace --trace {dir}/tuned.fftrace --kp 0.9"),
        0
    );
    let verified = exported(&dir, "verify_trace");
    assert!(
        verified.contains("\"controller\": \"framefeedback\""),
        "{verified}"
    );
    assert!(verified.contains("\"ticks\": 10"), "{verified}");
    std::fs::remove_file(dir.join("verify_trace.json")).unwrap();
    // Default gains must not replay a tuned run.
    assert_eq!(
        report_in(&dir, "verify_trace --trace {dir}/tuned.fftrace"),
        1
    );

    let baseline = "run --controller local-only --frames 90 --trace {dir}/local.fftrace";
    assert_eq!(report_in(&dir, baseline), 0);
    assert_eq!(
        report_in(&dir, "verify_trace --trace {dir}/local.fftrace"),
        0
    );
    // Gains for a controller without them, named by the header.
    assert_eq!(
        report_in(&dir, "verify_trace --trace {dir}/local.fftrace --kp 0.9"),
        1
    );
    // An unreadable trace and a file that is not one.
    assert_eq!(
        report_in(&dir, "verify_trace --trace {dir}/nope.fftrace"),
        1
    );
    assert_eq!(report_in(&dir, "verify_trace --trace {dir}/run.json"), 1);
}

#[test]
fn dump_config_takes_only_the_config_flags() {
    let dir = scratch("dump-flags");
    for flag in [
        "--controller local-only",
        "--kp 0.3",
        "--kd 0.1",
        "--trace x",
    ] {
        rejected(&dir, &format!("dump_config {flag}"));
    }
    // What it exports is what `run --config` reads back.
    let config = dumped(&dir, "--scenario fig2 --frames 60 --seed 5");
    let path = write(&dir, "c.json", &exported(&dir, "dump_config"));
    assert_eq!(
        report_in(&dir, &format!("run --config {}", path.display())),
        0
    );
    assert_eq!(
        exported(&dir, "run"),
        direct(config, ControllerSpec::framefeedback())
    );
}

#[test]
fn tier_flags_parse_and_build_a_tier() {
    let config = dumped(
        &scratch("tier"),
        "--servers 4 --routing po2c --admission token-bucket:20:40 --frames 30",
    );
    let tier = config.tier.expect("tier flags build a tier");
    assert_eq!(tier.servers.len(), 4);
    assert_eq!(tier.routing, RoutingPolicy::PowerOfTwoChoices);
    assert_eq!(
        tier.admission,
        AdmissionPolicy::TokenBucket {
            rate_rps: 20.0,
            burst: 40.0
        }
    );
    // Every server inherits the config's GPU profile.
    assert!(tier.servers.iter().all(|s| s.gpu == config.gpu));
}

#[test]
fn routing_strings_parse() {
    let dir = scratch("routing");
    let jsq = |ms| RoutingPolicy::JoinShortestQueue {
        gossip_interval: SimDuration::from_millis(ms),
    };
    for (value, routing) in [
        ("static-shard", RoutingPolicy::StaticShard),
        ("po2c", RoutingPolicy::PowerOfTwoChoices),
        ("jsq", jsq(500)),
        ("jsq:250", jsq(250)),
    ] {
        let tier = dumped(&dir, &format!("--routing {value}")).tier;
        assert_eq!(tier.expect("a tier").routing, routing, "{value}");
    }
    rejected(&dir, "dump_config --routing jsq:0");
    rejected(&dir, "dump_config --routing round-robin");
}

#[test]
fn admission_strings_parse() {
    let dir = scratch("admission");
    let admission = |value: &str| dumped(&dir, &format!("--admission {value}")).tier.unwrap();
    assert_eq!(admission("admit-all").admission, AdmissionPolicy::AdmitAll);
    // Burst defaults to the rate.
    assert_eq!(
        admission("token-bucket:15").admission,
        AdmissionPolicy::TokenBucket {
            rate_rps: 15.0,
            burst: 15.0
        }
    );
    for value in [
        "token-bucket:0",
        "token-bucket:10:0.5",
        "token-bucket:10:20:30",
        "leaky-bucket:10",
    ] {
        rejected(&dir, &format!("dump_config --admission {value}"));
    }
}

#[test]
fn bad_tier_flags_are_rejected_at_parse_time() {
    let dir = scratch("bad-tier");
    rejected(&dir, "run --servers 0");
    rejected(&dir, "run --routing nope");
    rejected(&dir, "run --admission nope");
}

#[test]
fn no_tier_flags_leave_the_config_untouched() {
    assert!(dumped(&scratch("no-tier"), "--frames 30").tier.is_none());
}

#[test]
fn pre_tier_config_json_still_parses() {
    // Configs written before the tier fields existed have no "tier"
    // key; `#[serde(default)]` must fill it with None.
    let body = serde_json::to_string(&ExperimentConfig::default()).unwrap();
    let legacy = body
        .replace("\"tier\":null,", "")
        .replace(",\"tier\":null", "");
    assert_ne!(legacy, body, "expected to strip the tier key");
    let parsed: ExperimentConfig = serde_json::from_str(&legacy).unwrap();
    assert!(parsed.tier.is_none());
    // And the tier flags can still lay a tier over such a config.
    let dir = scratch("pre-tier");
    let path = write(&dir, "legacy.json", &legacy);
    let loaded = dumped(&dir, &format!("--config {} --servers 2", path.display()));
    assert_eq!(loaded.tier.unwrap().servers.len(), 2);
}

#[test]
fn every_controller_builds() {
    let dir = scratch("every-controller");
    for (name, spec) in ControllerSpec::lineup() {
        assert_eq!(
            report_in(&dir, &format!("run --controller {name} --frames 30")),
            0
        );
        let expected = direct(scenario_at("table5", 42, 30), spec);
        assert_eq!(exported(&dir, "run"), expected, "{name}");
        assert!(expected.contains(&format!("\"controller\": \"{name}\"")));
    }
}
