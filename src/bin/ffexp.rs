//! `ffexp` — command-line experiment runner.
//!
//! Runs any paper scenario under any controller and prints the per-second
//! QoS trace plus a summary, optionally exporting JSON:
//!
//! ```sh
//! cargo run --release --bin ffexp -- --scenario table5 --controller framefeedback
//! cargo run --release --bin ffexp -- --scenario table6 --controller all-or-nothing --seed 7
//! cargo run --release --bin ffexp -- --scenario ideal --frames 900 --json out.json
//! ```

use framefeedback::device::{
    content_scenario, replay_verify_with, run_experiment, run_experiment_traced, ControllerSpec,
    ExperimentConfig, ModelSelection, ReplayReport,
};
use framefeedback::server::{AdmissionPolicy, RoutingPolicy, ServerSpec, TierConfig};
use framefeedback::sim::SimDuration;
use framefeedback::trace::Trace;
use framefeedback::workload::{fig2_loss_injection, ideal_network, table_v, table_vi};
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct CliConfig {
    scenario: String,
    controller: String,
    seed: u64,
    frames: u64,
    kp: Option<f64>,
    kd: Option<f64>,
    servers: Option<usize>,
    routing: Option<String>,
    admission: Option<String>,
    selection: Option<String>,
    json: Option<String>,
    config_path: Option<String>,
    trace: Option<String>,
    verify_trace: Option<String>,
    dump_config: bool,
    quiet: bool,
}

impl Default for CliConfig {
    fn default() -> Self {
        CliConfig {
            scenario: "table5".into(),
            controller: "framefeedback".into(),
            seed: 42,
            frames: 4_000,
            kp: None,
            kd: None,
            servers: None,
            routing: None,
            admission: None,
            selection: None,
            json: None,
            config_path: None,
            trace: None,
            verify_trace: None,
            dump_config: false,
            quiet: false,
        }
    }
}

const USAGE: &str = "\
ffexp — FrameFeedback experiment runner

USAGE:
  ffexp [--scenario S] [--controller C] [--seed N] [--frames N]
        [--kp X] [--kd X] [--json PATH] [--quiet]
        [--servers N]      run an N-server tier (default: 1, the paper)
        [--routing R]      static-shard | jsq | jsq:GOSSIP_MS | po2c
        [--admission A]    admit-all | token-bucket:RATE[:BURST]
        [--selection P]    paper | expected-accuracy[:MARGIN]
        [--config PATH]    load a full ExperimentConfig from JSON
        [--dump-config]    print the default config as JSON and exit
        [--trace PATH]     record the run as a binary control-loop trace
        [--verify-trace PATH]  replay-verify a recorded trace and exit
                           (pass the --kp/--kd it was recorded with)

SCENARIOS:
  ideal     perfect 10 Mbps network, no background load
  table5    the paper's network-degradation schedule (Fig. 3)
  table6    the paper's server-load schedule (Fig. 4)
  combined  table5 x table6 simultaneously
  fig2      ideal network, 7% packet loss injected at t = 27 s
  scene-static / scene-bursty / scene-cut-storm
            content-aware workloads: scene scripts + semantic filter +
            EfficientNetB0 on the server, over the table5 network

CONTROLLERS:
  framefeedback | local-only | always-offload | all-or-nothing
";

fn parse_routing(s: &str) -> Result<RoutingPolicy, String> {
    match s {
        "static-shard" => Ok(RoutingPolicy::StaticShard),
        "po2c" => Ok(RoutingPolicy::PowerOfTwoChoices),
        "jsq" => Ok(RoutingPolicy::JoinShortestQueue {
            gossip_interval: SimDuration::from_millis(500),
        }),
        other => {
            let ms: u64 = other
                .strip_prefix("jsq:")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| {
                    format!("unknown routing {other:?} (static-shard | jsq[:MS] | po2c)")
                })?;
            if ms == 0 {
                return Err("jsq gossip interval must be positive".into());
            }
            Ok(RoutingPolicy::JoinShortestQueue {
                gossip_interval: SimDuration::from_millis(ms),
            })
        }
    }
}

fn parse_admission(s: &str) -> Result<AdmissionPolicy, String> {
    if s == "admit-all" {
        return Ok(AdmissionPolicy::AdmitAll);
    }
    let spec = s.strip_prefix("token-bucket:").ok_or_else(|| {
        format!("unknown admission {s:?} (admit-all | token-bucket:RATE[:BURST])")
    })?;
    let mut parts = spec.split(':');
    let rate: f64 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad token-bucket rate in {s:?}"))?;
    let burst: f64 = match parts.next() {
        Some(v) => v
            .parse()
            .map_err(|e| format!("bad token-bucket burst: {e}"))?,
        None => rate,
    };
    if parts.next().is_some() {
        return Err(format!("too many fields in {s:?}"));
    }
    if !(rate > 0.0 && rate.is_finite() && burst >= 1.0 && burst.is_finite()) {
        return Err("token bucket needs rate > 0 and burst >= 1".into());
    }
    Ok(AdmissionPolicy::TokenBucket {
        rate_rps: rate,
        burst,
    })
}

fn parse_selection(s: &str) -> Result<ModelSelection, String> {
    match s {
        "paper" => Ok(ModelSelection::AlwaysPaper),
        "expected-accuracy" => Ok(ModelSelection::ExpectedAccuracy { margin: 0.0 }),
        other => {
            let margin: f64 = other
                .strip_prefix("expected-accuracy:")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| {
                    format!("unknown selection {other:?} (paper | expected-accuracy[:MARGIN])")
                })?;
            if !margin.is_finite() {
                return Err("selection margin must be finite".into());
            }
            Ok(ModelSelection::ExpectedAccuracy { margin })
        }
    }
}

fn parse_args(args: &[String]) -> Result<CliConfig, String> {
    let mut config = CliConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scenario" => config.scenario = value("--scenario")?,
            "--controller" => config.controller = value("--controller")?,
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--frames" => {
                config.frames = value("--frames")?
                    .parse()
                    .map_err(|e| format!("--frames: {e}"))?
            }
            "--kp" => config.kp = Some(value("--kp")?.parse().map_err(|e| format!("--kp: {e}"))?),
            "--kd" => config.kd = Some(value("--kd")?.parse().map_err(|e| format!("--kd: {e}"))?),
            "--servers" => {
                let n: usize = value("--servers")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?;
                if n == 0 {
                    return Err("--servers: the tier needs at least one server".into());
                }
                config.servers = Some(n);
            }
            "--routing" => {
                let v = value("--routing")?;
                parse_routing(&v)?; // validate now, apply in build_experiment
                config.routing = Some(v);
            }
            "--admission" => {
                let v = value("--admission")?;
                parse_admission(&v)?;
                config.admission = Some(v);
            }
            "--selection" => {
                let v = value("--selection")?;
                parse_selection(&v)?;
                config.selection = Some(v);
            }
            "--json" => config.json = Some(value("--json")?),
            "--config" => config.config_path = Some(value("--config")?),
            "--trace" => config.trace = Some(value("--trace")?),
            "--verify-trace" => config.verify_trace = Some(value("--verify-trace")?),
            "--dump-config" => config.dump_config = true,
            "--quiet" => config.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n\n{USAGE}")),
        }
    }
    if ![
        "ideal",
        "table5",
        "table6",
        "combined",
        "fig2",
        "scene-static",
        "scene-bursty",
        "scene-cut-storm",
    ]
    .contains(&config.scenario.as_str())
    {
        return Err(format!("unknown scenario {:?}\n\n{USAGE}", config.scenario));
    }
    controller_spec(&config.controller, &config).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    Ok(config)
}

/// The controller called `name` with the `--kp`/`--kd` gain overrides
/// applied — to the run's `--controller`, or to the controller a
/// `--verify-trace` header names.
fn controller_spec(name: &str, cli: &CliConfig) -> Result<ControllerSpec, String> {
    match ControllerSpec::from_name(name) {
        None => Err(format!("unknown controller {name:?}")),
        Some(ControllerSpec::FrameFeedback(mut pid)) => {
            pid.kp = cli.kp.unwrap_or(pid.kp);
            pid.kd = cli.kd.unwrap_or(pid.kd);
            Ok(ControllerSpec::FrameFeedback(pid))
        }
        Some(_) if cli.kp.is_some() || cli.kd.is_some() => Err(format!(
            "--kp/--kd only apply to the framefeedback controller, not {name}"
        )),
        Some(spec) => Ok(spec),
    }
}

/// Replay-verify an encoded trace under the controller its header names,
/// with the CLI's gain overrides (the header does not carry gains).
fn verify_trace(bytes: &[u8], cli: &CliConfig) -> Result<(Trace, ReplayReport), String> {
    let trace = Trace::decode(bytes).map_err(|e| format!("not a valid trace: {e}"))?;
    let spec = controller_spec(&trace.header.controller, cli)?;
    let report = replay_verify_with(&trace, spec.build().as_mut())
        .map_err(|e| format!("replay mismatch: {e}"))?;
    Ok((trace, report))
}

/// Overlay the tier flags onto a config. No flags → the config's own
/// `tier` (usually `None`, the paper's single server) stays untouched.
fn apply_tier_flags(config: &mut ExperimentConfig, cli: &CliConfig) {
    if cli.servers.is_none() && cli.routing.is_none() && cli.admission.is_none() {
        return;
    }
    let mut tier = config.tier.take().unwrap_or_else(|| {
        TierConfig::single(config.gpu, framefeedback::server::OverflowPolicy::default())
    });
    if let Some(n) = cli.servers {
        // Uniform tier over the first server's profile (or the config's
        // GPU when the file had no tier).
        let spec = tier.servers.first().copied().unwrap_or(ServerSpec {
            gpu: config.gpu,
            ..ServerSpec::default()
        });
        tier.servers = vec![spec; n];
    }
    if let Some(r) = &cli.routing {
        tier.routing = parse_routing(r).expect("routing validated at parse time");
    }
    if let Some(a) = &cli.admission {
        tier.admission = parse_admission(a).expect("admission validated at parse time");
    }
    config.tier = Some(tier);
}

fn build_experiment(cli: &CliConfig) -> ExperimentConfig {
    if let Some(path) = &cli.config_path {
        let body = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read --config {path}: {e}"));
        let mut config: ExperimentConfig =
            serde_json::from_str(&body).unwrap_or_else(|e| panic!("invalid config {path}: {e}"));
        // CLI flags still override file values.
        config.seed = cli.seed;
        if cli.frames != CliConfig::default().frames {
            config.stream.total_frames = cli.frames;
        }
        if let Some(s) = &cli.selection {
            config.selection = parse_selection(s).expect("selection validated at parse time");
        }
        apply_tier_flags(&mut config, cli);
        return config;
    }
    let mut config = ExperimentConfig::default();
    match cli.scenario.as_str() {
        "ideal" => {
            config.network = ideal_network();
            config.peer_devices = 0;
        }
        "table5" => config.network = table_v(),
        "table6" => {
            config.background = table_vi();
            config.peer_devices = 0;
        }
        "combined" => {
            config.network = table_v();
            config.background = table_vi();
            config.peer_devices = 0;
        }
        "fig2" => config.network = fig2_loss_injection(),
        scene => {
            config = content_scenario(scene)
                .unwrap_or_else(|| unreachable!("validated scenario name {scene}"));
        }
    }
    config.seed = cli.seed;
    config.stream.total_frames = cli.frames;
    if let Some(s) = &cli.selection {
        config.selection = parse_selection(s).expect("selection validated at parse time");
    }
    apply_tier_flags(&mut config, cli);
    config
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if cli.dump_config {
        let template = build_experiment(&cli);
        println!(
            "{}",
            serde_json::to_string_pretty(&template).expect("config serializes")
        );
        return ExitCode::SUCCESS;
    }

    // Verification mode: no experiment runs; the trace itself carries
    // the runtime configuration and controller name it was recorded
    // under, and `--kp`/`--kd` the gains.
    if let Some(path) = &cli.verify_trace {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read --verify-trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match verify_trace(&bytes, &cli) {
            Ok((trace, report)) => {
                println!(
                    "{path}: OK — controller={} seed={} events={} captures={} submits={} ticks={}",
                    trace.header.controller,
                    trace.header.seed,
                    report.events,
                    report.captures,
                    report.submits,
                    report.ticks
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let controller = controller_spec(&cli.controller, &cli)
        .expect("controller validated at parse time")
        .build();
    let result = if let Some(path) = &cli.trace {
        let (result, bytes) = run_experiment_traced(build_experiment(&cli), controller);
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("failed to write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !cli.quiet {
            println!("# trace: {} bytes -> {path}", bytes.len());
        }
        result
    } else {
        run_experiment(build_experiment(&cli), controller)
    };

    if !cli.quiet {
        println!(
            "# scenario={} controller={} seed={} frames={}",
            cli.scenario, cli.controller, cli.seed, cli.frames
        );
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "t(s)", "P", "P_l", "P_o", "T", "Po*"
        );
        for rec in result.qos.records() {
            println!(
                "{:>6.0} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                rec.t_secs,
                rec.throughput(),
                rec.pl,
                rec.po,
                rec.timeouts,
                rec.po_target
            );
        }
        println!();
    }

    println!(
        "mean P = {:.2} fps | offloaded {} | local {} | timeouts {} | CPU {:.1}%",
        result.mean_throughput,
        result.frames_offloaded,
        result.frames_local,
        result.offload_timeouts,
        result.cpu_usage_pct
    );
    if result.per_server_stats.len() > 1 || result.admission_rejections > 0 {
        let per: Vec<String> = result
            .per_server_stats
            .iter()
            .map(|s| s.completions.to_string())
            .collect();
        println!(
            "tier: {} servers | completions per server [{}] | admission rejections {}",
            result.per_server_stats.len(),
            per.join(", "),
            result.admission_rejections
        );
    }
    if let Some(fs) = &result.filter_stats {
        println!(
            "content: accuracy-weighted P = {:.2}/s | filter captured {} passed {} shrunk {} skipped {}",
            result.mean_accuracy_weighted_throughput, fs.captured, fs.passed, fs.shrunk, fs.skipped
        );
    }
    if let Some(lat) = result.offload_latency {
        println!(
            "offload latency: p50 {:.0} ms, p95 {:.0} ms, p99 {:.0} ms (deadline 250 ms)",
            lat.p50_ms, lat.p95_ms, lat.p99_ms
        );
    }
    if let (Some(up), Some(srv)) = (result.uplink_latency, result.server_latency) {
        println!(
            "breakdown (successful offloads): uplink p50 {:.0} ms, server+down p50 {:.0} ms",
            up.p50_ms, srv.p50_ms
        );
    }

    if let Some(path) = &cli.json {
        match serde_json::to_string_pretty(&result) {
            Ok(body) => {
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("result exported to {path}");
            }
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let c = parse_args(&[]).unwrap();
        assert_eq!(c, CliConfig::default());
    }

    #[test]
    fn full_argument_set_parses() {
        let c = parse_args(&args(
            "--scenario table6 --controller all-or-nothing --seed 7 --frames 900 --json out.json --quiet",
        ))
        .unwrap();
        assert_eq!(c.scenario, "table6");
        assert_eq!(c.controller, "all-or-nothing");
        assert_eq!(c.seed, 7);
        assert_eq!(c.frames, 900);
        assert_eq!(c.json.as_deref(), Some("out.json"));
        assert!(c.quiet);
    }

    #[test]
    fn gain_overrides_parse_for_framefeedback() {
        let c = parse_args(&args("--kp 0.3 --kd 0.1")).unwrap();
        assert_eq!(c.kp, Some(0.3));
        assert_eq!(c.kd, Some(0.1));
        let ControllerSpec::FrameFeedback(pid) = controller_spec(&c.controller, &c).unwrap() else {
            panic!("framefeedback is a PID controller");
        };
        assert_eq!((pid.kp, pid.kd), (0.3, 0.1));
    }

    #[test]
    fn gain_overrides_rejected_for_baselines() {
        let err = parse_args(&args("--controller local-only --kp 0.3")).unwrap_err();
        assert!(err.contains("only apply"));
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        assert!(parse_args(&args("--scenario nope")).is_err());
    }

    #[test]
    fn unknown_controller_is_rejected() {
        assert!(parse_args(&args("--controller nope")).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(parse_args(&args("--bogus")).is_err());
    }

    #[test]
    fn missing_value_is_rejected() {
        let err = parse_args(&args("--seed")).unwrap_err();
        assert!(err.contains("requires a value"));
    }

    #[test]
    fn bad_numeric_value_is_rejected() {
        assert!(parse_args(&args("--seed banana")).is_err());
        assert!(parse_args(&args("--frames -3")).is_err());
    }

    #[test]
    fn every_scenario_builds_an_experiment() {
        for scenario in [
            "ideal",
            "table5",
            "table6",
            "combined",
            "fig2",
            "scene-static",
            "scene-bursty",
            "scene-cut-storm",
        ] {
            let mut cli = CliConfig::default();
            cli.scenario = scenario.into();
            cli.frames = 30;
            let config = build_experiment(&cli);
            assert_eq!(config.stream.total_frames, 30);
        }
    }

    #[test]
    fn scene_scenarios_carry_the_content_layer() {
        let mut cli = CliConfig::default();
        cli.scenario = "scene-bursty".into();
        cli.frames = 30;
        cli.seed = 9;
        let config = build_experiment(&cli);
        assert!(config.scene.is_some());
        assert!(config.filter.is_some());
        assert_eq!(config.seed, 9, "CLI seed overrides the scenario");
        assert_eq!(config.selection, ModelSelection::AlwaysPaper);
    }

    #[test]
    fn selection_strings_parse() {
        assert_eq!(parse_selection("paper"), Ok(ModelSelection::AlwaysPaper));
        assert_eq!(
            parse_selection("expected-accuracy"),
            Ok(ModelSelection::ExpectedAccuracy { margin: 0.0 })
        );
        assert_eq!(
            parse_selection("expected-accuracy:0.05"),
            Ok(ModelSelection::ExpectedAccuracy { margin: 0.05 })
        );
        assert!(parse_selection("expected-accuracy:inf").is_err());
        assert!(parse_selection("oracle").is_err());
    }

    #[test]
    fn selection_flag_lands_in_the_config() {
        let c = parse_args(&args(
            "--scenario scene-static --selection expected-accuracy:0.02 --frames 30",
        ))
        .unwrap();
        let config = build_experiment(&c);
        assert_eq!(
            config.selection,
            ModelSelection::ExpectedAccuracy { margin: 0.02 }
        );
        assert!(parse_args(&args("--selection nope")).is_err());
    }

    #[test]
    fn config_file_round_trips_through_build() {
        let dir = std::env::temp_dir().join("ffexp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("config.json");
        let mut original = ExperimentConfig::default();
        original.stream.total_frames = 77;
        original.peer_devices = 5;
        std::fs::write(&path, serde_json::to_string(&original).unwrap()).unwrap();

        let mut cli = CliConfig::default();
        cli.config_path = Some(path.to_string_lossy().into_owned());
        let loaded = build_experiment(&cli);
        assert_eq!(loaded.stream.total_frames, 77);
        assert_eq!(loaded.peer_devices, 5);
        assert_eq!(loaded.seed, cli.seed, "CLI seed overrides the file");
    }

    #[test]
    fn trace_flags_parse() {
        let c = parse_args(&args("--trace run.fftrace --frames 600")).unwrap();
        assert_eq!(c.trace.as_deref(), Some("run.fftrace"));
        let v = parse_args(&args("--verify-trace run.fftrace")).unwrap();
        assert_eq!(v.verify_trace.as_deref(), Some("run.fftrace"));
    }

    #[test]
    fn verify_trace_takes_the_gain_flags() {
        let v = parse_args(&args("--verify-trace b.fftrace --kp 0.9 --kd 0.1")).unwrap();
        assert_eq!(v.verify_trace.as_deref(), Some("b.fftrace"));
        assert_eq!((v.kp, v.kd), (Some(0.9), Some(0.1)));
    }

    #[test]
    fn a_run_recorded_with_tuned_gains_verifies_under_those_gains() {
        let record = |flags: &str| {
            let cli = parse_args(&args(flags)).unwrap();
            let controller = controller_spec(&cli.controller, &cli).unwrap().build();
            run_experiment_traced(build_experiment(&cli), controller).1
        };
        let tuned = record("--scenario table5 --frames 300 --kp 0.9");
        let with = |flags: &str| verify_trace(&tuned, &parse_args(&args(flags)).unwrap());
        let (trace, report) = with("--kp 0.9").expect("tuned gains replay the tuned run");
        assert_eq!(trace.header.controller, "framefeedback");
        assert!(report.ticks > 0);
        let err = with("").expect_err("default gains must not replay a tuned run");
        assert!(err.contains("replay mismatch"), "{err}");

        let baseline = record("--controller local-only --frames 90");
        let err = verify_trace(&baseline, &parse_args(&args("--kp 0.9")).unwrap()).unwrap_err();
        assert!(err.contains("only apply"), "{err}");
    }

    #[test]
    fn dump_config_flag_parses() {
        let c = parse_args(&args("--dump-config")).unwrap();
        assert!(c.dump_config);
    }

    #[test]
    fn tier_flags_parse_and_build_a_tier() {
        let c = parse_args(&args(
            "--servers 4 --routing po2c --admission token-bucket:20:40 --frames 30",
        ))
        .unwrap();
        let config = build_experiment(&c);
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
        assert_eq!(
            parse_routing("static-shard"),
            Ok(RoutingPolicy::StaticShard)
        );
        assert_eq!(
            parse_routing("jsq:250"),
            Ok(RoutingPolicy::JoinShortestQueue {
                gossip_interval: SimDuration::from_millis(250)
            })
        );
        assert!(parse_routing("jsq:0").is_err());
        assert!(parse_routing("round-robin").is_err());
    }

    #[test]
    fn admission_strings_parse() {
        assert_eq!(parse_admission("admit-all"), Ok(AdmissionPolicy::AdmitAll));
        // Burst defaults to the rate.
        assert_eq!(
            parse_admission("token-bucket:15"),
            Ok(AdmissionPolicy::TokenBucket {
                rate_rps: 15.0,
                burst: 15.0
            })
        );
        assert!(parse_admission("token-bucket:0").is_err());
        assert!(parse_admission("token-bucket:10:0.5").is_err());
        assert!(parse_admission("token-bucket:10:20:30").is_err());
        assert!(parse_admission("leaky-bucket:10").is_err());
    }

    #[test]
    fn bad_tier_flags_are_rejected_at_parse_time() {
        assert!(parse_args(&args("--servers 0")).is_err());
        assert!(parse_args(&args("--routing nope")).is_err());
        assert!(parse_args(&args("--admission nope")).is_err());
    }

    #[test]
    fn no_tier_flags_leave_the_config_untouched() {
        let mut cli = CliConfig::default();
        cli.frames = 30;
        assert!(build_experiment(&cli).tier.is_none());
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
        // And the CLI can still overlay a tier on such a config.
        let dir = std::env::temp_dir().join("ffexp-tier-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        std::fs::write(&path, &legacy).unwrap();
        let mut cli = CliConfig::default();
        cli.config_path = Some(path.to_string_lossy().into_owned());
        cli.servers = Some(2);
        let loaded = build_experiment(&cli);
        assert_eq!(loaded.tier.unwrap().servers.len(), 2);
    }

    #[test]
    fn every_controller_builds() {
        for name in [
            "framefeedback",
            "local-only",
            "always-offload",
            "all-or-nothing",
        ] {
            let mut cli = CliConfig::default();
            cli.controller = name.into();
            let spec = controller_spec(name, &cli).unwrap();
            assert_eq!(spec.build().name(), name);
        }
    }
}
