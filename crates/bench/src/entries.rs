//! The catalogue's entries: the paper's own evaluation (Tables II–IV,
//! Figures 2–4 and the §II-A CPU observation) first, then the
//! extensions beyond it.

use crate::{
    advantage, fleet, label, lineup, mean_p, phases, pi_fleet, po_target_std, print_chart,
    print_phase_table, print_rows, run_end, run_lineup, scenario, sweep, Flags,
};
use ff_baselines::{Aimd, AlwaysOffload, Fixed, LocalOnly};
use ff_core::{
    oscillation_index, tune, Controller, FrameFeedback, Measurement, PidConfig, TAIL_FRACTION,
};
use ff_device::{
    content_scenarios, replay_verify_with, run_experiment, run_experiment_traced, run_fleet,
    EnergyModel, ExperimentConfig, ExperimentResult, FleetConfig, ModelSelection, ServerOutage,
};
use ff_metrics::{bootstrap_mean_ci, QosRecord};
use ff_models::{
    predicted_top1, tradeoff_frontier, Compression, DeviceKind, GpuProfile, ModelKind,
};
use ff_net::{GilbertElliott, LossModel, NetworkConditions};
use ff_server::{OverflowPolicy, ServerSpec, TierConfig};
use ff_sim::{RngFactory, SimDuration};
use ff_sweep::{
    run_fleet_sweep, AdmissionSpec, ControllerSpec, FleetSweepSpec, RoutingSpec, SweepOptions,
};
use ff_trace::Trace;
use ff_workload::{mobility_trace, MobilityConfig, StepSchedule};
use serde::{Serialize, Value};
use std::io;

/// Table II: local processing rates `P_l` of the three Raspberry Pi
/// variants, measured by running the local-only experiment on each
/// device profile for 60 s rather than echoing the calibration
/// constants.
pub(crate) fn table2_local_rates(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        device: String,
        cpus: u32,
        speed_mhz: u32,
        memory_mib: u32,
        model: String,
        paper_pl: Option<f64>,
        measured_pl: f64,
    }
    let mut rows = Vec::new();
    for device in DeviceKind::ALL {
        let profile = device.profile();
        for model in [ModelKind::MobileNetV3Small, ModelKind::EfficientNetB0] {
            let mut config = scenario("ideal");
            config.device = device;
            config.model = model;
            config.stream.total_frames = 1_800;
            rows.push(Row {
                device: device.name().to_string(),
                cpus: profile.cpus,
                speed_mhz: profile.clock_mhz,
                memory_mib: profile.memory_mib,
                model: model.name().to_string(),
                // `None` where the paper gives no rate and the profile
                // extrapolates one.
                paper_pl: device
                    .local_rate_is_measured(model)
                    .then(|| device.local_rate_fps(model)),
                measured_pl: run_experiment(config, Box::new(LocalOnly::new())).mean_throughput,
            });
        }
    }
    print_rows("Table II: P_l of the Raspberry Pi profiles", &rows);
    Ok(serde_json::to_value(&rows)?)
}

/// Table III (top-1 model accuracy) and the §II-D discussion: accuracy
/// versus input resolution and JPEG quality, against the bytes-per-frame
/// cost of each setting.
pub(crate) fn table3_accuracy(_: &Flags) -> io::Result<Value> {
    let accuracy: Vec<(&str, f64)> = ModelKind::ALL
        .iter()
        .map(|m| (m.name(), m.profile().top1_accuracy))
        .collect();
    print_rows("Table III: top-1 accuracy by model", &accuracy);

    #[derive(Serialize)]
    struct Point {
        quality: u8,
        resolution: u32,
        accuracy: f64,
        frame_bytes: u64,
    }
    let frontier: Vec<Point> = tradeoff_frontier(
        ModelKind::EfficientNetB0,
        &[30, 50, 70, 90],
        &[112, 160, 224, 320],
    )
    .into_iter()
    .map(|p| Point {
        quality: p.compression.quality,
        resolution: p.compression.resolution,
        accuracy: p.accuracy,
        frame_bytes: p.frame_bytes,
    })
    .collect();
    let title = "§II-D: accuracy / bytes trade-off (EfficientNetB0)";
    print_rows(title, &frontier);

    #[derive(Serialize)]
    struct Levers {
        model: &'static str,
        native: f64,
        double_resolution_delta: f64,
        q25_compression_delta: f64,
    }
    let levers: Vec<Levers> = [ModelKind::MobileNetV3Small, ModelKind::EfficientNetB4]
        .into_iter()
        .map(|model| {
            let native = model.profile().native_resolution;
            let top1 =
                |quality, resolution| predicted_top1(model, Compression::new(quality, resolution));
            Levers {
                model: model.name(),
                native: top1(90, native),
                double_resolution_delta: top1(90, native * 2) - top1(90, native),
                q25_compression_delta: top1(25, native) - top1(90, native),
            }
        })
        .collect();
    print_rows("§II-D: the two accuracy levers, isolated", &levers);

    let rows: Vec<_> = frontier
        .iter()
        .map(|p| (p.quality, p.resolution, p.accuracy, p.frame_bytes))
        .collect();
    Ok(serde_json::to_value(&rows)?)
}

/// Table IV (the controller settings), each validated behaviourally: the
/// defaults must reproduce the documented clamps, the probe floor, and
/// the ramp time the update cap implies.
pub(crate) fn table4_settings(_: &Flags) -> io::Result<Value> {
    let cfg = PidConfig::default();
    let rows = vec![
        ("K_P", cfg.kp),
        ("K_I", cfg.ki),
        ("K_D", cfg.kd),
        ("update_min_factor", cfg.update_min_factor),
        ("update_max_factor", cfg.update_max_factor),
        ("timeout_tolerance", cfg.timeout_tolerance),
    ];
    print_rows("Table IV: PID settings by variable (1 Hz)", &rows);

    let fs = 30.0;
    let measure = |po: f64, t: f64| Measurement {
        fs,
        po_achieved: po,
        pl_achieved: 13.0,
        timeout_rate: t,
        heartbeat_ok: true,
        dt_secs: 1.0,
    };
    // The asymmetric clamps.
    let first = FrameFeedback::new().update(&measure(0.0, 0.0)).po_target;
    println!(
        "clean-interval first step: +{first:.2} fps (cap {:.2})",
        cfg.update_max_factor * fs
    );
    assert!(first <= cfg.update_max_factor * fs + 1e-9);
    let mut c = FrameFeedback::with_config(PidConfig {
        initial_po: fs,
        ..Default::default()
    });
    let before = c.po_target();
    let drop = c.update(&measure(fs, fs)).po_target - before;
    println!(
        "total-timeout first step: {drop:.2} fps (floor {:.2})",
        cfg.update_min_factor * fs
    );
    assert!(drop >= cfg.update_min_factor * fs - 1e-9);

    // The probe floor at 0.1·F_s under permanent failure.
    let mut c = FrameFeedback::new();
    let mut po = 15.0;
    for _ in 0..300 {
        po = c.update(&measure(po, po)).po_target;
    }
    let floor = cfg.timeout_tolerance * fs;
    println!("probe floor under permanent failure: {po:.2} fps (expected {floor:.1})");
    assert!((po - floor).abs() < 0.5);

    // The ramp from 0 to 90 % of F_s under clean conditions takes at
    // least F_s / (update max) - 1 = 9 steps.
    let mut c = FrameFeedback::new();
    let mut po = 0.0;
    let settle = (1..=50)
        .find(|_| {
            po = c.update(&measure(po, 0.0)).po_target;
            po >= 0.9 * fs
        })
        .expect("the ramp never reached 90% of F_s");
    println!("ramp time to 90% of F_s: {settle} steps (update cap implies >= 9)");
    assert!(settle >= 9, "ramp faster than the +0.1*F_s cap allows");
    Ok(serde_json::to_value(&rows)?)
}

/// Figure 2: the offloading rate `P_o` over time for controllers with
/// different `(K_P, K_D)` gains, under an ideal network for the first
/// 27 seconds and 7% packet loss afterwards (60 s runs).
///
/// Paper expectations (shape): every variant ramps to full offloading
/// under ideal conditions; after the loss injection, low-damping
/// variants oscillate harder, and the paper's (0.2, 0.26) setting
/// balances sensitivity and overcorrection. The six variants run as one
/// `ff-sweep` controller sweep.
pub(crate) fn fig2_gain_sweep(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct SweepResult {
        kp: f64,
        kd: f64,
        result: ExperimentResult,
    }
    // The paper's setting plus bracketing variants (higher/lower
    // sensitivity, with and without damping).
    let gains = [
        (0.1, 0.0),
        (0.2, 0.0),
        (0.2, 0.26), // Table IV
        (0.2, 0.6),
        (0.5, 0.26),
        (0.5, 0.0),
    ];
    let mut config = scenario("fig2");
    config.stream.total_frames = 1_800;
    let label = |kp: f64, kd: f64| format!("Kp{kp}/Kd{kd}");
    let controllers = gains
        .iter()
        .map(|&(kp, kd)| {
            let spec = ControllerSpec::FrameFeedback(PidConfig::with_gains(kp, kd));
            (label(kp, kd), spec)
        })
        .collect();
    let scenarios = vec![("fig2".into(), config.clone())];
    let report = sweep(scenarios, vec![config.seed], controllers);
    let runs: Vec<SweepResult> = gains
        .iter()
        .zip(report.cells)
        .map(|(&(kp, kd), cell)| SweepResult {
            kp,
            kd,
            result: cell.result,
        })
        .collect();

    let series: Vec<(String, &ExperimentResult)> = runs
        .iter()
        .map(|s| (label(s.kp, s.kd), &s.result))
        .collect();
    let title = "Figure 2: P_o target under gain variants, 7% loss from t=27s";
    print_chart(title, &series, |q| q.po_target);

    // Stability per variant, settled before and after the loss: the P_o
    // target's standard deviation and the mean throughput.
    #[derive(Serialize)]
    struct Stability {
        gains: String,
        po_target_std_before: f64,
        po_target_std_after: f64,
        p_before: f64,
        p_after: f64,
    }
    let (before, after) = (15.0..27.0, 30.0..run_end(&config));
    let stability: Vec<Stability> = series
        .iter()
        .map(|(gains, r)| Stability {
            gains: gains.clone(),
            po_target_std_before: po_target_std(r, before.clone()),
            po_target_std_after: po_target_std(r, after.clone()),
            p_before: mean_p(r, before.clone()),
            p_after: mean_p(r, after.clone()),
        })
        .collect();
    print_rows("Figure 2: stability before and after the loss", &stability);
    Ok(serde_json::to_value(&runs)?)
}

/// Figure 3 (and Table V): total inference throughput `P` for each
/// controller under the network-degradation schedule, 4,000 frames at
/// 30 fps.
///
/// Paper expectations (shape, not absolute numbers): all controllers ≈
/// equal at the extremes (ideal network / dead network); FrameFeedback
/// beats all-or-nothing by 50%–3× in the intermediate phases (around
/// t ≈ 40 s and beyond t ≈ 90 s); always-offload is clearly suboptimal
/// once conditions degrade.
pub(crate) fn fig3_network(_: &Flags) -> io::Result<Value> {
    let config = scenario("table5");
    let title = "Table V: network schedule from t (s)";
    print_rows(title, config.network.steps());
    let results = run_lineup(&config);
    let phases = phases(&config.network, run_end(&config));
    let title = "Figure 3: mean throughput P per network phase";
    print_phase_table(title, &results, &phases, |a| a.mean_throughput);
    let ratios: Vec<(String, f64)> = phases
        .iter()
        .map(|ph| (label(ph), advantage(&results[0], &results[3], ph.clone())))
        .collect();
    print_rows("Figure 3: P ratio FF / all-or-nothing", &ratios);
    let series = lineup(&results);
    print_chart("Figure 3: throughput P", &series, QosRecord::throughput);
    Ok(serde_json::to_value(&results)?)
}

/// Figure 4 (and Table VI): total inference throughput `P` for each
/// controller while other devices inject the Table VI background request
/// volume, 4,000 frames at 30 fps. FrameFeedback must keep fitting in
/// offloading as load rises, and never fall below the local floor.
///
/// Paper expectations (shape): "Up until about 150 additional requests,
/// our Pi can fit in some offloading when controlled by FrameFeedback.
/// The other controllers have lower throughput due to their inability
/// to adapt in a fine-grained way."
pub(crate) fn fig4_server_load(_: &Flags) -> io::Result<Value> {
    let config = scenario("table6");
    let title = "Table VI: server load schedule from t (s), requests/s";
    print_rows(title, config.background.steps());
    let results = run_lineup(&config);
    let phases = phases(&config.background, run_end(&config));
    let title = "Figure 4: mean throughput P per load phase";
    print_phase_table(title, &results, &phases, |a| a.mean_throughput);
    let title = "Figure 4: mean P_o target per load phase";
    print_phase_table(title, &results, &phases, |a| a.mean_po_target);
    let series = lineup(&results);
    print_chart("Figure 4: throughput P", &series, QosRecord::throughput);
    Ok(serde_json::to_value(&results)?)
}

/// The §II-A CPU-usage observation: "Raspberry Pi CPU usage drops from
/// 50.2% to 22.3% on average when transitioning from local execution to
/// offloading", read off the local-only and always-offload runs' CPU
/// model, plus the energy model (Pi 4B 2.7 W idle / 6.4 W full load).
pub(crate) fn cpu_usage(_: &Flags) -> io::Result<Value> {
    let mut config = scenario("ideal");
    config.stream.total_frames = 1_800;
    let controllers: [Box<dyn Controller>; 3] = [
        Box::new(LocalOnly::new()),
        Box::new(AlwaysOffload::new()),
        Box::new(FrameFeedback::new()),
    ];
    let runs: Vec<ExperimentResult> = controllers
        .into_iter()
        .map(|c| run_experiment(config.clone(), c))
        .collect();

    #[derive(Serialize)]
    struct Usage {
        controller: String,
        cpu_pct: f64,
        local_busy_fraction: f64,
        offload_share: f64,
        power_w: f64,
        joules_per_inference: Option<f64>,
    }
    let energy = EnergyModel::default();
    let usage: Vec<Usage> = runs
        .iter()
        .map(|r| {
            let share = r.frames_offloaded as f64 / r.frames_generated.max(1) as f64;
            let busy = r.local_busy_fraction;
            Usage {
                controller: r.controller.clone(),
                cpu_pct: r.cpu_usage_pct,
                local_busy_fraction: busy,
                offload_share: share,
                power_w: energy.power_watts(busy, share),
                joules_per_inference: energy.joules_per_inference(busy, share, r.mean_throughput),
            }
        })
        .collect();
    print_rows("§II-A: device CPU usage by policy (ideal network)", &usage);
    println!(
        "paper: local 50.2% -> offloading 22.3%; measured: {:.1}% -> {:.1}%",
        runs[0].cpu_usage_pct, runs[1].cpu_usage_pct
    );
    let rows: Vec<(String, f64)> = runs
        .iter()
        .map(|r| (r.controller.clone(), r.cpu_usage_pct))
        .collect();
    Ok(serde_json::to_value(&rows)?)
}

/// §IV-C combined network degradation *and* server load (extension X2,
/// mentioned but not shown in the paper): "Combining both sources of
/// end-to-end latency largely works additively to create more
/// unsuccessful offload requests."
pub(crate) fn combined_stress(_: &Flags) -> io::Result<Value> {
    let config = scenario("combined");
    let results = run_lineup(&config);
    let phases = phases(&config.network, run_end(&config));
    let title = "X2: combined Table V network x Table VI server load";
    print_phase_table(title, &results, &phases, |a| a.mean_throughput);

    // Additivity: timeouts under the combined stress vs the sum of the
    // isolated stresses. Always-offload makes the comparison clean
    // because it never adapts.
    let mut network_only = scenario("table5");
    network_only.peer_devices = 0;
    let timeouts = |c| run_experiment(c, Box::new(AlwaysOffload::new())).offload_timeouts;
    println!(
        "always-offload timeouts: network-only {} + load-only {} vs combined {} \
         (additive within a factor of ~2 is the paper's 'largely additive')",
        timeouts(network_only),
        timeouts(scenario("table6")),
        timeouts(config)
    );
    Ok(serde_json::to_value(&results)?)
}

/// Multi-tenant fairness at saturation (§II-A.3): "When the workload
/// fully saturates the system, the system should respond by reducing
/// offloading and distributing the available capacity fairly among
/// clients." Nine devices (270 rps offered against a ~145 rps server)
/// under the server's two overflow policies — the paper's implicit
/// reject-newest and max-min fair share — with and without a greedy
/// (always-offload) tenant.
pub(crate) fn fairness(_: &Flags) -> io::Result<Value> {
    const N: usize = 9;
    #[derive(Serialize)]
    struct Summary {
        scenario: String,
        policy: String,
        fairness: f64,
        total_throughput: f64,
        rejections_by_device: Vec<u64>,
    }
    #[derive(Serialize)]
    struct Device {
        controller: String,
        p: f64,
        successes: u64,
        timeouts: u64,
        rejections: u64,
    }
    let mut summaries = Vec::new();
    for policy in [OverflowPolicy::RejectNewest, OverflowPolicy::FairShare] {
        for (scenario, greedy) in [("all-adaptive", 0), ("one-greedy", 1)] {
            let mut config = FleetConfig::default();
            config.devices = pi_fleet(N);
            config.tier = Some(TierConfig::single(GpuProfile::default(), policy));
            let controllers = fleet(N, greedy).iter().map(ControllerSpec::build).collect();
            let result = run_fleet(config, controllers);
            let devices: Vec<Device> = (result.devices.iter().zip(&result.rejections_by_device))
                .map(|(d, &rejections)| Device {
                    controller: d.controller.to_string(),
                    p: d.mean_throughput,
                    successes: d.offload_successes,
                    timeouts: d.offload_timeouts,
                    rejections,
                })
                .collect();
            let title = format!(
                "{policy:?} / {scenario}: total P {:.1}, Jain over successes {:.3}, \
                 server rejections {}",
                result.total_mean_throughput,
                result.offload_fairness,
                result.server_stats.rejections
            );
            print_rows(&title, &devices);
            summaries.push(Summary {
                scenario: scenario.to_string(),
                policy: format!("{policy:?}"),
                fairness: result.offload_fairness,
                total_throughput: result.total_mean_throughput,
                rejections_by_device: result.rejections_by_device,
            });
        }
    }

    // The headline: with a greedy tenant, fair share pushes the
    // rejection burden onto the tenant that refuses to adapt.
    for s in summaries.iter().filter(|s| s.scenario == "one-greedy") {
        let (greedy, adaptive) = s.rejections_by_device.split_last().expect("N devices");
        let adaptive_mean = adaptive.iter().map(|&r| r as f64).sum::<f64>() / (N - 1) as f64;
        println!(
            "{}: greedy tenant absorbed {:.1}x the mean adaptive tenant's rejections",
            s.policy,
            *greedy as f64 / adaptive_mean.max(1.0)
        );
    }
    Ok(serde_json::to_value(&summaries)?)
}

/// Automated §III-B tuning against the full simulated testbed: the
/// Ziegler–Nichols-inspired procedure (raise `K_P` until the PV
/// oscillates under constant conditions, then add `K_D` to damp) with a
/// 90 s run on a constant 4 Mbps link — the partial-offload operating
/// point where gain choice matters — as the plant, compared against the
/// paper's hand-tuned Table IV gains. The plant must oscillate at some
/// `K_P` within the tuner's bounds.
pub(crate) fn autotune(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Report {
        kp: f64,
        kd: f64,
        kp_at_oscillation: f64,
        oscillation_before: f64,
        oscillation_after: f64,
    }
    let trial = |gains: PidConfig| -> Vec<f64> {
        let mut config = scenario("ideal");
        config.network = StepSchedule::constant(NetworkConditions::new(4.0, 0.0));
        config.stream.total_frames = 2_700;
        let result = run_experiment(config, Box::new(FrameFeedback::with_config(gains)));
        result.qos.records().iter().map(|r| r.po_target).collect()
    };
    let outcome = tune(trial).expect("no K_P within bounds oscillated: the plant is overdamped");
    let report = Report {
        kp: outcome.config.kp,
        kd: outcome.config.kd,
        kp_at_oscillation: outcome.kp_at_oscillation,
        oscillation_before: outcome.oscillation_before_damping,
        oscillation_after: outcome.oscillation_after_damping,
    };
    let title = "autotune: §III-B procedure on a constant 4 Mbps link";
    print_rows(title, &[&report]);
    let score = |gains| oscillation_index(&trial(gains), TAIL_FRACTION);
    println!(
        "oscillation on the plant: tuned {:.3} vs Table IV (K_P 0.2, K_D 0.26) {:.3}",
        score(outcome.config),
        score(PidConfig::default())
    );
    Ok(serde_json::to_value(&report)?)
}

/// The full-PID ablation supporting §III-A.1. The paper argues the
/// integral term is unnecessary ("the consideration of the past ... is
/// not a factor in our system"). This runs the Table V scenario over a
/// `K_I` sweep: integral action adds wind-up-driven overshoot after
/// condition changes without improving throughput.
pub(crate) fn pid_ablation(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        ki: f64,
        mean_throughput: f64,
        /// Worst single-interval timeout burst (frames/s) — wind-up shows
        /// up here: an integrator that accumulated error during a good
        /// phase keeps pushing offloading after conditions collapse.
        worst_timeout_burst: f64,
        /// Mean throughput in the recovery phase right after the dead
        /// 1 Mbps phase ends (t = 60-75 s).
        recovery_throughput: f64,
    }
    let kis = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2];
    let config = scenario("table5");
    let controllers = kis
        .iter()
        .map(|&ki| {
            let pid = PidConfig {
                ki,
                ..Default::default()
            };
            (format!("Ki{ki}"), ControllerSpec::FrameFeedback(pid))
        })
        .collect();
    let scenarios = vec![("table-v".into(), config.clone())];
    let report = sweep(scenarios, vec![config.seed], controllers);
    let rows: Vec<Row> = (kis.iter().zip(&report.cells))
        .map(|(&ki, cell)| {
            let r = &cell.result;
            let timeouts = r.qos.records().iter().map(|q| q.timeouts);
            let recovery = r.qos.aggregate(60.0, 75.0);
            Row {
                ki,
                mean_throughput: r.mean_throughput,
                worst_timeout_burst: timeouts.fold(0.0, f64::max),
                recovery_throughput: recovery.map_or(f64::NAN, |a| a.mean_throughput),
            }
        })
        .collect();
    print_rows("PID ablation: K_I sweep on the Table V scenario", &rows);
    let best_nonzero = rows[1..]
        .iter()
        .map(|r| r.mean_throughput)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "integral action buys {:+.1} fps over K_I = 0 at best",
        best_nonzero - rows[0].mean_throughput
    );
    Ok(serde_json::to_value(&rows)?)
}

/// FrameFeedback's PD control against TCP-style AIMD, the obvious
/// off-the-shelf "probe up, back off on congestion" policy, on the
/// Table V and Table VI scenarios. AIMD's fixed 1 fps/s climb recovers
/// slowly after a halving; the PD controller's error-proportional steps
/// (clamped at +0.1·F_s) close large gaps quickly and its derivative
/// term damps the hunt around capacity.
pub(crate) fn aimd_vs_pd(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        scenario: String,
        controller: String,
        mean_throughput: f64,
        timeouts: u64,
    }
    let mut rows = Vec::new();
    for name in ["table5", "table6"] {
        let controllers: [Box<dyn Controller>; 2] =
            [Box::new(FrameFeedback::new()), Box::new(Aimd::new())];
        for controller in controllers {
            let r = run_experiment(scenario(name), controller);
            rows.push(Row {
                scenario: name.to_string(),
                controller: r.controller,
                mean_throughput: r.mean_throughput,
                timeouts: r.offload_timeouts,
            });
        }
    }
    print_rows("PD control (FrameFeedback) vs AIMD", &rows);
    println!(
        "PD advantage: {:+.1} fps on the network scenario, {:+.1} fps under server load",
        rows[0].mean_throughput - rows[1].mean_throughput,
        rows[2].mean_throughput - rows[3].mean_throughput
    );
    Ok(serde_json::to_value(&rows)?)
}

/// Bursty (Gilbert–Elliott) vs i.i.d. packet loss. The paper's NetEm
/// setup loses packets independently; its reference \[37\] notes real
/// wireless links lose in bursts. At the *same average* loss rate (7 %
/// on an otherwise ample 10 Mbps link), bursts change the timeout
/// pattern a controller sees: calm stretches punctuated by storms.
pub(crate) fn bursty_loss(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        process: String,
        controller: String,
        mean_throughput: f64,
        timeouts: u64,
        po_target_std: f64,
    }
    let mut rows = Vec::new();
    let bursty = LossModel::GilbertElliott(GilbertElliott::with_average_loss(0.07));
    for (process, loss_model) in [("bernoulli", None), ("gilbert-elliott", Some(bursty))] {
        let mut config = scenario("ideal");
        config.network = StepSchedule::constant(NetworkConditions::new(10.0, 7.0));
        config.loss_model = loss_model;
        let results = run_lineup(&config);
        let steady = [15.0..run_end(&config)];
        let title = format!("{process} loss: steady state");
        print_phase_table(&title, &results, &steady, |a| a.mean_throughput);
        rows.extend(results.into_iter().map(|r| Row {
            process: process.to_string(),
            // The intervals from 15 s on, past the ramp (a QoS record is
            // stamped at its interval's end).
            po_target_std: po_target_std(&r, 16.0..f64::INFINITY),
            controller: r.controller,
            mean_throughput: r.mean_throughput,
            timeouts: r.offload_timeouts,
        }));
    }
    print_rows("bursty vs i.i.d. loss at 7% average (10 Mbps link)", &rows);
    Ok(serde_json::to_value(&rows)?)
}

/// Closing the §II-D loop with adaptive JPEG quality. The paper notes
/// that lighter compression preserves accuracy but costs bytes per
/// frame, and leaves the trade-off static. Here a quality ladder reacts
/// to *network-attributed* timeouts: frames shrink when the pipe thins,
/// and quality recovers when conditions clear. Run on the Table V
/// schedule against fixed-quality FrameFeedback.
pub(crate) fn quality_adaptation(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        variant: String,
        mean_throughput: f64,
        timeouts: u64,
        mean_offload_quality: f64,
        mean_offload_accuracy_pct: f64,
        p_4mbps_phase: f64,
        p_1mbps_phase: f64,
    }
    let variants = [("fixed-q90", false), ("adaptive-quality", true)];
    let rows: Vec<Row> = variants
        .into_iter()
        .map(|(variant, adaptive_quality)| {
            let mut config = scenario("table5");
            config.adaptive_quality = adaptive_quality;
            let r = run_experiment(config, Box::new(FrameFeedback::new()));
            Row {
                variant: variant.into(),
                mean_throughput: r.mean_throughput,
                timeouts: r.offload_timeouts,
                mean_offload_quality: r.mean_offload_quality.unwrap_or(f64::NAN),
                mean_offload_accuracy_pct: r.mean_offload_accuracy.unwrap_or(f64::NAN) * 100.0,
                p_4mbps_phase: mean_p(&r, 32.0..45.0),
                p_1mbps_phase: mean_p(&r, 47.0..60.0),
            }
        })
        .collect();
    print_rows("§II-D closed loop: adaptive JPEG quality on Table V", &rows);
    let (fixed, adaptive) = (&rows[0], &rows[1]);
    println!(
        "adaptive quality trades {:.2} accuracy points for {:+.1} fps overall \
         ({:+.1} fps in the 4 Mbps phase)",
        fixed.mean_offload_accuracy_pct - adaptive.mean_offload_accuracy_pct,
        adaptive.mean_throughput - fixed.mean_throughput,
        adaptive.p_4mbps_phase - fixed.p_4mbps_phase,
    );
    Ok(serde_json::to_value(&rows)?)
}

/// Adaptive local-model selection (the related-work \[38\] idea,
/// composed with FrameFeedback). When the controller offloads nearly
/// everything, the local engine only classifies the leftovers, so it
/// can afford a slower, more accurate model — and drop back to the fast
/// one the moment offloading collapses. Run on a network that is
/// healthy, then dies at 45 s, then recovers at 90 s.
pub(crate) fn model_selection(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        variant: String,
        mean_throughput: f64,
        mean_local_accuracy_pct: f64,
        healthy_phase_p: f64,
        dead_phase_p: f64,
    }
    let network = StepSchedule::new(vec![
        (0.0, NetworkConditions::new(10.0, 0.0)),
        (45.0, NetworkConditions::new(1.0, 20.0)),
        (90.0, NetworkConditions::new(10.0, 0.0)),
    ]);
    let variants = [("fixed-mnv3small", false), ("adaptive-local-model", true)];
    let rows: Vec<Row> = variants
        .into_iter()
        .map(|(variant, adaptive_local_model)| {
            let mut config = scenario("ideal");
            config.network = network.clone();
            config.adaptive_local_model = adaptive_local_model;
            let r = run_experiment(config, Box::new(FrameFeedback::new()));
            Row {
                variant: variant.into(),
                mean_throughput: r.mean_throughput,
                mean_local_accuracy_pct: r.mean_local_accuracy.unwrap_or(f64::NAN) * 100.0,
                healthy_phase_p: mean_p(&r, 20.0..45.0),
                dead_phase_p: mean_p(&r, 55.0..90.0),
            }
        })
        .collect();
    let title = "adaptive local model: healthy -> dead link -> recovery";
    print_rows(title, &rows);
    let (fixed, adaptive) = (&rows[0], &rows[1]);
    println!(
        "the adaptive variant classifies its leftover local frames {:+.2} accuracy points \
         better, and holds the dead-phase floor within {:.1} fps of the fixed variant",
        adaptive.mean_local_accuracy_pct - fixed.mean_local_accuracy_pct,
        (adaptive.dead_phase_p - fixed.dead_phase_p).abs(),
    );
    Ok(serde_json::to_value(&rows)?)
}

/// Sensitivity to the end-to-end deadline. The paper fixes 250 ms as "a
/// justifiable deadline for a real-world, real-time video processing
/// system" (§II-B) without exploring the neighbourhood. This sweeps the
/// deadline from 100 ms to 500 ms on the Table V scenario and checks
/// that throughput never falls as the deadline loosens.
pub(crate) fn deadline_sweep(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        deadline_ms: u64,
        ff_mean_p: f64,
        aon_mean_p: f64,
        ff_timeouts: u64,
        ff_p95_latency_ms: f64,
    }
    let deadlines = [100u64, 150, 200, 250, 300, 400, 500];
    let scenarios = deadlines
        .iter()
        .map(|&ms| {
            let mut config = scenario("table5");
            config.deadline = SimDuration::from_millis(ms);
            (format!("{ms}ms"), config)
        })
        .collect();
    let seed = ExperimentConfig::default().seed;
    let report = sweep(scenarios, vec![seed], ff_vs_all_or_nothing());
    // Cells come in deadline order, framefeedback before all-or-nothing.
    let rows: Vec<Row> = (deadlines.iter().zip(report.cells.chunks(2)))
        .map(|(&deadline_ms, pair)| {
            let (ff, aon) = (&pair[0].result, &pair[1].result);
            Row {
                deadline_ms,
                ff_mean_p: ff.mean_throughput,
                aon_mean_p: aon.mean_throughput,
                ff_timeouts: ff.offload_timeouts,
                ff_p95_latency_ms: ff.offload_latency.map_or(f64::NAN, |l| l.p95_ms),
            }
        })
        .collect();
    print_rows("deadline sensitivity on the Table V scenario", &rows);

    // A looser deadline can only help.
    for w in rows.windows(2) {
        assert!(
            w[1].ff_mean_p >= w[0].ff_mean_p - 0.8,
            "throughput fell when the deadline loosened: {} -> {} at {}ms",
            w[0].ff_mean_p,
            w[1].ff_mean_p,
            w[1].deadline_ms
        );
    }
    let wins = rows.iter().filter(|r| r.ff_mean_p > r.aon_mean_p).count();
    println!(
        "FrameFeedback beats all-or-nothing at {wins}/{} deadline settings",
        rows.len()
    );
    Ok(serde_json::to_value(&rows)?)
}

/// Mobile devices on random-walk links. The paper's motivating
/// workloads include UAVs and vehicles (§I) whose links wander
/// continuously rather than stepping on a timetable. Three devices
/// follow independent mobility traces against the shared server; each
/// must beat its own local floor with no mobility model, only the
/// timeout signal.
pub(crate) fn mobility(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        device: &'static str,
        mean_throughput: f64,
        offloaded: u64,
        timeouts: u64,
    }
    let mut config = FleetConfig::default();
    let rng = RngFactory::new(2024);
    let walk = MobilityConfig::default();
    let schedules: Vec<_> = (0..config.devices.len() as u64)
        .map(|i| mobility_trace(&walk, &mut rng.indexed_stream("mobility", i)))
        .collect();
    config.per_device_network = Some(schedules.clone());
    let controllers = fleet(config.devices.len(), 0)
        .iter()
        .map(ControllerSpec::build)
        .collect();
    let result = run_fleet(config, controllers);
    let rows: Vec<Row> = result
        .devices
        .iter()
        .map(|d| Row {
            device: d.device,
            mean_throughput: d.mean_throughput,
            offloaded: d.frames_offloaded,
            timeouts: d.offload_timeouts,
        })
        .collect();
    // The bandwidth range each device's link wandered through.
    let seen = schedules.iter().map(|s| {
        let bandwidths = s.steps().iter().map(|(_, c)| c.bandwidth_mbps);
        let min = bandwidths.clone().fold(f64::INFINITY, f64::min);
        (min, bandwidths.fold(0.0, f64::max))
    });
    let title = format!(
        "mobility: fleet P {:.1}, fairness {:.3}, server rejections {}; the last two \
         columns are the lowest and highest link Mbps",
        result.total_mean_throughput, result.offload_fairness, result.server_stats.rejections
    );
    print_rows(&title, &rows.iter().zip(seen).collect::<Vec<_>>());
    for r in &rows {
        assert!(
            r.mean_throughput > 4.5,
            "{} fell below a plausible floor: {:.1}",
            r.device,
            r.mean_throughput
        );
    }
    Ok(serde_json::to_value(&rows)?)
}

/// Statistical robustness of the headline result. Figures 3 and 4 are
/// single runs; this repeats the Figure 3 experiment over 15 seeds and
/// checks the FrameFeedback / all-or-nothing throughput ratio in the
/// 4 Mbps phase: its 95 % bootstrap CI must exclude 1 and every seed
/// must exceed 1.2×, so the paper's "50% to 3× better in intermediate
/// conditions" is not a seed-lottery artifact.
pub(crate) fn seed_sweep(_: &Flags) -> io::Result<Value> {
    const SEEDS: u64 = 15;
    #[derive(Serialize)]
    struct SeedRow {
        seed: u64,
        ff_mean_p: f64,
        aon_mean_p: f64,
        ratio_4mbps: f64,
        ratio_overall: f64,
    }
    let scenarios = vec![("table-v".into(), scenario("table5"))];
    let report = sweep(scenarios, (0..SEEDS).collect(), ff_vs_all_or_nothing());
    // Cells come in seed order, framefeedback before all-or-nothing.
    let rows: Vec<SeedRow> = (0..SEEDS)
        .zip(report.cells.chunks(2))
        .map(|(seed, pair)| {
            let (ff, aon) = (&pair[0].result, &pair[1].result);
            SeedRow {
                seed,
                ff_mean_p: ff.mean_throughput,
                aon_mean_p: aon.mean_throughput,
                ratio_4mbps: advantage(ff, aon, 32.0..45.0),
                ratio_overall: ff.mean_throughput / aon.mean_throughput.max(1e-9),
            }
        })
        .collect();
    let title = format!(
        "seed sweep: Figure 3 over {SEEDS} seeds, {} cells in {:.1}s ({} executed, {} cached)",
        report.cells.len(),
        report.elapsed_secs,
        report.executed,
        report.cached
    );
    print_rows(&title, &rows);

    let ratios: Vec<f64> = rows.iter().map(|r| r.ratio_4mbps).collect();
    let mut rng = RngFactory::new(0).stream("bootstrap");
    let ci = bootstrap_mean_ci(&ratios, 0.95, 5_000, &mut rng);
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let wins = rows.iter().filter(|r| r.ratio_overall > 1.0).count();
    println!(
        "intermediate-phase advantage: {:.2}x, 95% bootstrap CI [{:.2}, {:.2}] (min {min:.2}x); \
         FrameFeedback wins overall on {wins}/{SEEDS} seeds; paper: 1.5x to 3x",
        ci.mean, ci.lo, ci.hi
    );
    assert!(
        ci.excludes(1.0),
        "the advantage must be significant at 95%: CI [{:.2}, {:.2}]",
        ci.lo,
        ci.hi
    );
    assert!(
        min > 1.2,
        "the advantage must hold on every seed, min ratio {min:.2}"
    );
    Ok(serde_json::to_value(&rows)?)
}

/// The policy zoo: routing × admission × controller fleet, head to head
/// on a mildly saturated heterogeneous two-server tier. The paper
/// evaluates one server and one knob; with a tier the design space is
/// *who gets in* (admission), *where they land* (routing) and *how the
/// devices adapt* (the controller fleet). Each cell reports mean total
/// throughput, the deadline-miss rate over offloaded frames and Jain's
/// fairness index; every cell must keep Jain in [0, 1] and per-server
/// completions summing to the tier total.
///
/// Flags: `--frames N` (per-device stream, default 1800), `--servers N`
/// (default 2), `--devices N` (default 6), `--seed S` (default 42).
pub(crate) fn policy_zoo(flags: &Flags) -> io::Result<Value> {
    // Per-device token-bucket rate: just under the per-device fair share
    // of the default two-server tier (~170 rps / 6 devices ≈ 28 rps), so
    // a greedy 30 fps tenant is clipped while adaptive tenants are not.
    const BUCKET_RATE: f64 = 25.0;
    #[derive(Serialize)]
    struct ZooRow {
        routing: String,
        admission: String,
        fleet: String,
        seed: u64,
        total_throughput: f64,
        deadline_miss_rate: f64,
        jain_fairness: f64,
        admission_rejections: u64,
        server_rejections: u64,
        per_server_completions: Vec<u64>,
        server_completions_total: u64,
    }
    let frames = flags.frames.unwrap_or(1_800);
    let servers = flags.servers.map_or(2, |n| n.get());
    let devices = flags.devices.map_or(6, |n| n.get());
    let seed = flags.seed.unwrap_or(42);

    let mut config = FleetConfig::default();
    config.seed = seed;
    config.stream.total_frames = frames;
    config.devices = pi_fleet(devices);
    // A deliberately *heterogeneous* tier: servers alternate between a
    // big GPU (batch 9 ≈ 114 rps) and a small one (batch 3 ≈ 57 rps).
    // Static sharding maps half the devices onto the small server and
    // overloads it; load-aware routing should absorb the asymmetry. The
    // default two servers hold ~170 rps against 6 × 30 = 180 rps
    // offered: saturated enough that the policies separate, not so
    // overloaded that everything drowns.
    let server = |i: usize| ServerSpec {
        gpu: GpuProfile {
            batch_limit: if i.is_multiple_of(2) { 9 } else { 3 },
        },
        policy: OverflowPolicy::RejectNewest,
    };
    config.tier = Some(TierConfig {
        servers: (0..servers).map(server).collect(),
        ..TierConfig::uniform(servers, ServerSpec::default())
    });
    let jsq = RoutingSpec::JoinShortestQueue {
        gossip_interval: SimDuration::from_millis(500),
    };
    let bucket = AdmissionSpec::TokenBucket {
        rate_rps: BUCKET_RATE,
        burst: BUCKET_RATE,
    };
    let spec = FleetSweepSpec {
        name: "policy_zoo".into(),
        scenarios: vec![("saturated".into(), config)],
        seeds: vec![seed],
        routings: vec![
            ("static-shard".into(), RoutingSpec::StaticShard),
            ("jsq".into(), jsq),
            ("po2c".into(), RoutingSpec::PowerOfTwoChoices),
        ],
        admissions: vec![
            ("admit-all".into(), AdmissionSpec::AdmitAll),
            ("token-bucket".into(), bucket),
        ],
        controllers: vec![
            ("all-pd".into(), fleet(devices, 0)),
            ("one-greedy".into(), fleet(devices, 1)),
            ("all-greedy".into(), fleet(devices, devices)),
        ],
    };
    let report = run_fleet_sweep(&spec, &SweepOptions::from_env());
    let rows: Vec<ZooRow> = report
        .cells
        .iter()
        .map(|cell| {
            let r = &cell.result;
            let offloaded: u64 = r.devices.iter().map(|d| d.frames_offloaded).sum();
            let timeouts: u64 = r.devices.iter().map(|d| d.offload_timeouts).sum();
            ZooRow {
                routing: cell.key.routing.clone(),
                admission: cell.key.admission.clone(),
                fleet: cell.key.controller.clone(),
                seed: cell.key.seed,
                total_throughput: r.total_mean_throughput,
                deadline_miss_rate: miss_rate(timeouts, offloaded),
                jain_fairness: r.offload_fairness,
                admission_rejections: r.admission_rejections,
                server_rejections: r.server_stats.rejections,
                per_server_completions: r.per_server_stats.iter().map(|s| s.completions).collect(),
                server_completions_total: r.server_stats.completions,
            }
        })
        .collect();
    let title = format!("policy zoo: {devices} devices x {servers} servers, {frames} frames");
    print_rows(&title, &rows);
    for row in &rows {
        let cell = format!("{}/{}/{}", row.routing, row.admission, row.fleet);
        assert!(
            (0.0..=1.0).contains(&row.jain_fairness),
            "Jain index out of range in {cell}"
        );
        assert_eq!(
            row.per_server_completions.iter().sum::<u64>(),
            row.server_completions_total,
            "per-server completions must sum to the tier total in {cell}"
        );
    }
    println!("checks: Jain in [0,1] and per-server completions sum to tier totals");
    Ok(serde_json::to_value(&rows)?)
}

/// The content-aware sweep: the three scene scenarios × model-selection
/// policy, accuracy against deadline misses. The content layer scores
/// frames with a scene script, filters the uninformative ones, and lets
/// [`ModelSelection::ExpectedAccuracy`] demote offloads to the local
/// model when deadline risk eats the remote model's accuracy edge. The
/// accuracy-aware policy must win on accuracy-weighted throughput in at
/// least one of the three scenarios.
///
/// Flags: `--frames N` (default 1800), `--seed S` (default 42), `--md
/// PATH` (rewrite the committed `CONTENT_SWEEP.md` table).
pub(crate) fn content_sweep(flags: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct ContentRow {
        scenario: String,
        selection: String,
        seed: u64,
        mean_throughput: f64,
        accuracy_weighted_throughput: f64,
        /// QoS intervals in the run, and how many saw at least one
        /// inference. `accuracy_weighted_throughput` averages over
        /// active intervals only (all-skipped seconds don't dilute it),
        /// so the cross-metric sanity bound is on totals:
        /// `aw · active <= mean_throughput · intervals`.
        intervals: usize,
        active_intervals: usize,
        deadline_miss_rate: f64,
        frames_offloaded: u64,
        frames_local: u64,
        frames_skipped: u64,
        frames_shrunk: u64,
    }
    let frames = flags.frames.unwrap_or(1_800);
    let seed = flags.seed.unwrap_or(42);
    // A small hysteresis margin keeps the accuracy-aware policy local
    // through the risk estimate's decay dips instead of re-probing the
    // dead network every timeout-window length.
    let policies = [
        ("paper", ModelSelection::AlwaysPaper),
        (
            "expected-accuracy",
            ModelSelection::ExpectedAccuracy { margin: 0.04 },
        ),
    ];
    let mut scenarios = Vec::new();
    for (name, mut config) in content_scenarios() {
        config.stream.total_frames = frames;
        for (policy, selection) in policies {
            config.selection = selection;
            scenarios.push((format!("{name}/{policy}"), config.clone()));
        }
    }
    let controllers = vec![("framefeedback".into(), ControllerSpec::framefeedback())];
    let report = sweep(scenarios, vec![seed], controllers);
    let rows: Vec<ContentRow> = report
        .cells
        .iter()
        .map(|cell| {
            let r = &cell.result;
            let (scenario, selection) = cell
                .key
                .scenario
                .split_once('/')
                .expect("scenario labels are scene/policy");
            let stats = r.filter_stats.expect("content scenarios carry a filter");
            assert!(stats.conserved(), "filter counters must conserve frames");
            let agg = r.qos.aggregate_all().expect("runs produce QoS records");
            ContentRow {
                scenario: scenario.to_string(),
                selection: selection.to_string(),
                seed: cell.key.seed,
                mean_throughput: r.mean_throughput,
                accuracy_weighted_throughput: r.mean_accuracy_weighted_throughput,
                intervals: agg.intervals,
                active_intervals: agg.active_intervals,
                deadline_miss_rate: miss_rate(r.offload_timeouts, r.frames_offloaded),
                frames_offloaded: r.frames_offloaded,
                frames_local: r.frames_local,
                frames_skipped: stats.skipped,
                frames_shrunk: stats.shrunk,
            }
        })
        .collect();
    let title = format!("content sweep: scene x selection, {frames} frames, seed {seed}");
    print_rows(&title, &rows);

    // The winning criterion `tests/content_inert.rs` pins at the same
    // scale.
    let wins = rows
        .chunks(2)
        .filter(|pair| {
            assert_eq!(pair[0].selection, "paper");
            assert_eq!(pair[1].selection, "expected-accuracy");
            pair[1].accuracy_weighted_throughput > pair[0].accuracy_weighted_throughput
        })
        .count();
    println!("expected-accuracy wins on accuracy-weighted throughput in {wins}/3 scenarios");
    assert!(
        wins >= 1,
        "expected-accuracy must win at least 1 of 3 scene scenarios \
         (won {wins}; the scenarios' network collapse starts 25-30 s in, \
         so runs shorter than ~1200 frames / 40 s never reach it)"
    );

    if let Some(path) = &flags.md {
        let mut table = String::from(
            "| scenario | selection | mean P | accuracy-weighted P | miss rate | skipped | shrunk |\n\
             |---|---|---:|---:|---:|---:|---:|\n",
        );
        for row in &rows {
            table.push_str(&format!(
                "| {} | {} | {:.2} | {:.2} | {:.3} | {} | {} |\n",
                row.scenario,
                row.selection,
                row.mean_throughput,
                row.accuracy_weighted_throughput,
                row.deadline_miss_rate,
                row.frames_skipped,
                row.frames_shrunk
            ));
        }
        let body = format!(
            "# Content-aware sweep: accuracy vs deadline misses\n\n\
             Scene scripts x model-selection policy over a mid-run network\n\
             collapse, MobileNetV3Small on the device and EfficientNetB0 on\n\
             the server. Regenerate with:\n\n\
             ```sh\n\
             cargo run --release -p ff-bench --bin report -- content_sweep --md CONTENT_SWEEP.md\n\
             ```\n\n\
             `{frames}` frames per run, seed `{seed}`.\n\n{table}\n\
             The accuracy-aware policy demotes offloads to the on-device\n\
             model while the collapsed network eats the remote model's\n\
             accuracy edge, which lowers its deadline-miss rate. It wins\n\
             on accuracy-weighted throughput in {wins}/3 scenarios; where\n\
             it loses, the frames it keeps local cost more accuracy than\n\
             the timeouts it avoids.\n\
             (Note `accuracy-weighted P` averages over *active* intervals\n\
             only, so on sparse scenes it can exceed the all-interval\n\
             `mean P`.)\n\n\
             Earlier versions of this table reported 3/3 wins, and the\n\
             tests pinned at least 2/3. That edge came from under-billing\n\
             the server: each offloaded frame was billed to the tier as the\n\
             device's own MobileNetV3Small, so EfficientNetB0 requests ran\n\
             at the small model's batch latency and batched with the\n\
             background tenants' frames. Every offload is now billed as the\n\
             model the server actually runs. The yardstick for what such a\n\
             policy should win by is Fresa & Champati (arXiv:2112.11413),\n\
             whose deadline-constrained offloading gains accuracy against\n\
             honestly charged model costs; a gain that needs a cheaper\n\
             server than the one modelled is not one.\n"
        );
        std::fs::write(path, body)
            .map_err(|e| io::Error::new(e.kind(), format!("writing {path}: {e}")))?;
        println!("markdown table written to {path}");
    }
    Ok(serde_json::to_value(&rows)?)
}

/// A server crash-and-restart mid-run: the server *process dies* at
/// t = 30 s (losing its queue and running batch) and a fresh one returns
/// at t = 90 s, in a 120 s run. This is the §III-A.1 scenario in its
/// purest form: while the server is down every offloaded frame times
/// out, so `T` equals the attempted rate and the only fixed point of the
/// piecewise error is the probe floor `0.1·F_s` — 3 fps at 30 fps. The
/// run shows the descent to the floor, the hold, and the recovery ramp.
pub(crate) fn outage(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        controller: String,
        mean_po_target_outage: f64,
        mean_throughput_outage: f64,
        mean_throughput_recovered: f64,
        timeouts: u64,
    }
    let (from_secs, until_secs) = (30.0, 90.0);
    let mut config = scenario("ideal");
    config.stream.total_frames = 3_600;
    config.outage = Some(ServerOutage {
        from_secs,
        until_secs,
    });
    let results = run_lineup(&config);
    // Settled windows: the healthy ramp, the outage once the descent is
    // over, and the recovered run.
    let (down, recovered) = (60.0..until_secs, 100.0..run_end(&config));
    let settled = [10.0..from_secs, down.clone(), recovered.clone()];
    let title = "server outage: crash at t=30s, restart at t=90s";
    print_phase_table(title, &results, &settled, |a| a.mean_throughput);
    let title = "P_o target through the outage (probe floor 3 fps)";
    print_chart(title, &lineup(&results), |q| q.po_target);
    let rows: Vec<Row> = results
        .iter()
        .map(|r| {
            let outage = r
                .qos
                .aggregate(down.start, down.end)
                .expect("outage window");
            Row {
                controller: r.controller.clone(),
                mean_po_target_outage: outage.mean_po_target,
                mean_throughput_outage: outage.mean_throughput,
                mean_throughput_recovered: mean_p(r, recovered.clone()),
                timeouts: r.offload_timeouts,
            }
        })
        .collect();
    print_rows("server outage: the settled outage and the recovery", &rows);
    Ok(serde_json::to_value(&rows)?)
}

/// The second model type. §IV-C.2: "batch size limits are set per model,
/// so we hit both model types when measuring controller response under
/// server load." The figures use MobileNetV3Small; this repeats the two
/// main scenarios with **EfficientNetB0** — slower locally (2.5 fps on
/// the Pi 4B) and heavier on the GPU — so both the local floor and the
/// saturation crossover move. The Figure 3 shape must hold.
pub(crate) fn both_models(_: &Flags) -> io::Result<Value> {
    let model = ModelKind::EfficientNetB0;
    println!(
        "EfficientNetB0: local P_l = 2.5 fps (Pi 4B r1.2), server saturation ~{:.0} rps",
        GpuProfile::default().saturation_throughput_fps(model)
    );
    let mut network = scenario("table5");
    network.model = model;
    let net_results = run_lineup(&network);
    let phases_v = phases(&network.network, run_end(&network));
    let title = "Table V scenario, EfficientNetB0";
    print_phase_table(title, &net_results, &phases_v, |a| a.mean_throughput);

    // Table VI scaled to this model's lower saturation point: the paper's
    // absolute rates are tuned to MobileNet, and the same *relative*
    // sweep for EfficientNetB0 roughly halves them.
    let mut load = scenario("table6");
    load.model = model;
    let scaled = load.background.steps().iter().map(|&(t, r)| (t, r * 0.55));
    load.background = StepSchedule::new(scaled.collect());
    let load_results = run_lineup(&load);
    let phases_vi = phases(&load.background, run_end(&load));
    let title = "Table VI scenario (rates x0.55), EfficientNetB0";
    print_phase_table(title, &load_results, &phases_vi, |a| a.mean_throughput);

    let ratio = advantage(&net_results[0], &net_results[3], 32.0..45.0);
    println!("4 Mbps phase advantage with EfficientNetB0: {ratio:.2}x (MobileNet gave ~2x)");
    assert!(
        ratio > 1.0,
        "the Fig. 3 shape must hold for the heavy model too"
    );
    Ok(serde_json::to_value(&(net_results, load_results))?)
}

/// Regret against a clairvoyant oracle: how much throughput
/// FrameFeedback leaves on the table by having to *learn* conditions it
/// cannot see. For every Table V phase the oracle holds the conditions
/// constant and grid-searches the best **static** offload rate (40 s
/// runs, the first 10 s discarded). The gap to FrameFeedback's per-phase
/// throughput in the real, changing scenario is the price of adaptation:
/// transients after each phase change plus steady-state hunting. The
/// time-weighted total must stay under 35 % of the oracle's throughput.
pub(crate) fn regret(_: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Row {
        phase: String,
        oracle_po: f64,
        oracle_p: f64,
        ff_p: f64,
        regret: f64,
    }
    let steady = |conditions: NetworkConditions, po: f64| {
        let mut config = ExperimentConfig::default();
        config.network = StepSchedule::constant(conditions);
        config.stream.total_frames = 1_200;
        let result = run_experiment(config, Box::new(Fixed::new(po)));
        result
            .qos
            .aggregate(10.0, 40.0)
            .map_or(0.0, |a| a.mean_throughput)
    };
    // The first best of the static rates 0, 1.5, ..., 30 frames/s.
    let oracle = |conditions| {
        let rates = (0..=20).map(|i| f64::from(i) * 1.5);
        let runs = rates.map(|po| (po, steady(conditions, po)));
        runs.fold((0.0, f64::NEG_INFINITY), |best, run| {
            if run.1 > best.1 {
                run
            } else {
                best
            }
        })
    };

    let config = scenario("table5");
    let ff = run_experiment(config.clone(), Box::new(FrameFeedback::new()));
    // The labels are part of the exported artifact.
    let labels = [
        "0-30 10Mbps",
        "30-45 4Mbps",
        "45-60 1Mbps",
        "60-90 10Mbps",
        "90-105 +7%",
        "105+ 4M+7%",
    ];
    let phases = phases(&config.network, run_end(&config));
    let steps = config.network.steps();
    let (mut total_regret, mut total_oracle) = (0.0, 0.0);
    let mut rows = Vec::new();
    for ((label, phase), &(_, conditions)) in labels.iter().zip(&phases).zip(steps) {
        let (oracle_po, oracle_p) = oracle(conditions);
        let ff_p = mean_p(&ff, phase.clone());
        let regret = oracle_p - ff_p;
        total_regret += regret * (phase.end - phase.start);
        total_oracle += oracle_p * (phase.end - phase.start);
        rows.push(Row {
            phase: label.to_string(),
            oracle_po,
            oracle_p,
            ff_p,
            regret,
        });
    }
    print_rows("regret vs a clairvoyant per-phase oracle (Table V)", &rows);
    let relative = total_regret / total_oracle;
    println!(
        "time-weighted regret: {:.1}% of the oracle's throughput",
        relative * 100.0
    );
    assert!(
        relative < 0.35,
        "regret {relative:.2} implausibly high — controller or calibration broke"
    );
    Ok(serde_json::to_value(&rows)?)
}

/// One controller (`--controller`, default FrameFeedback, with any
/// `--kp`/`--kd`) under one named scenario (`--scenario`, default
/// `table5`) or under the whole `ExperimentConfig` of a `--config` file
/// — the unit of every figure above. Prints the per-second QoS log and
/// a summary; `--trace` also records the run for `verify_trace`.
pub(crate) fn run(flags: &Flags) -> io::Result<Value> {
    let config = experiment(flags)?;
    let source = match &flags.config {
        Some(path) => format!("config {}", path.display()),
        None => format!("scenario {}", scenario_name(flags)),
    };
    let title = format!(
        "{source}, controller {}, seed {}, {} frames: per-second QoS",
        flags.controller(),
        config.seed,
        config.stream.total_frames
    );
    let controller = flags.controller_spec(flags.controller());
    let controller = controller
        .expect("checked when the flags were parsed")
        .build();
    let result = match &flags.trace {
        None => run_experiment(config, controller),
        Some(path) => {
            let (result, bytes) = run_experiment_traced(config, controller);
            std::fs::write(path, &bytes).map_err(|e| {
                io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
            })?;
            println!("trace: {} bytes -> {}", bytes.len(), path.display());
            result
        }
    };
    let rows: Vec<Value> = (result.qos.records().iter())
        .map(|q| {
            let cells = [
                ("t(s)", q.t_secs),
                ("P", q.throughput()),
                ("P_l", q.pl),
                ("P_o", q.po),
                ("T", q.timeouts),
                ("Po*", q.po_target),
            ];
            Value::Obj(
                cells
                    .map(|(name, x)| (name.to_string(), Value::F64(x)))
                    .into(),
            )
        })
        .collect();
    print_rows(&title, &rows);
    println!(
        "mean P = {:.2} fps | offloaded {} | local {} | timeouts {} | CPU {:.1}%",
        result.mean_throughput,
        result.frames_offloaded,
        result.frames_local,
        result.offload_timeouts,
        result.cpu_usage_pct
    );
    if result.per_server_stats.len() > 1 || result.admission_rejections > 0 {
        let per: Vec<String> = (result.per_server_stats.iter())
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
    Ok(serde_json::to_value(&result)?)
}

/// Replay-verify the trace at `--trace` bit for bit: rebuild the runtime
/// its header describes and re-drive the recorded calls under the
/// controller the header names, with the `--kp`/`--kd` gains it was
/// recorded with (the header does not carry gains). An unreadable
/// trace or the first event that diverges is an error.
pub(crate) fn verify_trace(flags: &Flags) -> io::Result<Value> {
    #[derive(Serialize)]
    struct Verified {
        controller: String,
        seed: u64,
        events: u64,
        captures: u64,
        submits: u64,
        ticks: u64,
    }
    let path = flags.trace.as_ref().expect("verify_trace requires --trace");
    let fail = |kind, e: String| io::Error::new(kind, format!("{}: {e}", path.display()));
    let bytes = std::fs::read(path).map_err(|e| fail(e.kind(), e.to_string()))?;
    let trace = Trace::decode(&bytes).map_err(|e| {
        fail(
            io::ErrorKind::InvalidData,
            format!("not a valid trace: {e}"),
        )
    })?;
    let controller = (flags.controller_spec(&trace.header.controller))
        .map_err(|e| fail(io::ErrorKind::InvalidInput, e))?;
    let report = replay_verify_with(&trace, controller.build().as_mut())
        .map_err(|e| fail(io::ErrorKind::InvalidData, format!("replay mismatch: {e}")))?;
    let verified = Verified {
        controller: trace.header.controller.clone(),
        seed: trace.header.seed,
        events: report.events,
        captures: report.captures,
        submits: report.submits,
        ticks: report.ticks,
    };
    print_rows(
        &format!("{}: replay verified", path.display()),
        &[&verified],
    );
    Ok(serde_json::to_value(&verified)?)
}

/// The `ExperimentConfig` a `run` with the same flags would use, as the
/// JSON `run --config` reads: a template for every field no flag
/// reaches.
pub(crate) fn dump_config(flags: &Flags) -> io::Result<Value> {
    let config = serde_json::to_value(&experiment(flags)?)?;
    println!("{}", serde_json::to_string_pretty(&config)?);
    Ok(config)
}

/// Why `input` cannot be the config `parsed` says it is (`parsed` is
/// `input` read into its type and serialized back), naming the first
/// offending key by its path below `path` (`stream.fps`,
/// `network.steps[0]`): `unknown field …` for a field the type does not
/// have, `repeated field …` for a key its object already gave (the
/// parser keeps the first value and would drop the rest).
fn refused_field(input: &Value, parsed: &Value, path: &str) -> Option<String> {
    match (input, parsed) {
        (Value::Obj(fields), Value::Obj(known)) => {
            (fields.iter().enumerate()).find_map(|(i, (key, value))| {
                let path = match path {
                    "" => key.clone(),
                    _ => format!("{path}.{key}"),
                };
                if fields[..i].iter().any(|(k, _)| k == key) {
                    return Some(format!("repeated field {path}"));
                }
                match known.iter().find(|(k, _)| k == key) {
                    Some((_, parsed)) => refused_field(value, parsed, &path),
                    None => Some(format!("unknown field {path}")),
                }
            })
        }
        (Value::Arr(items), Value::Arr(known)) => (items.iter().zip(known).enumerate())
            .find_map(|(i, (item, parsed))| refused_field(item, parsed, &format!("{path}[{i}]"))),
        _ => None,
    }
}

/// `--scenario`, or `table5`, the paper's Figure 3 setting.
fn scenario_name(flags: &Flags) -> &str {
    flags.scenario.as_deref().unwrap_or("table5")
}

/// The experiment `run` and `dump_config` build: the `--config` file or
/// the named scenario, with `--seed`, `--frames`, `--selection` and the
/// tier flags laid over it — each only when given. Tier flags over a
/// config without a tier build one from its single server. A `--config`
/// file with a key `ExperimentConfig` does not have, a key repeated in
/// one object, or a config that [`ExperimentConfig::check`] refuses, is
/// an error.
fn experiment(flags: &Flags) -> io::Result<ExperimentConfig> {
    let mut config = match &flags.config {
        None => scenario(scenario_name(flags)),
        Some(path) => {
            let fail =
                |kind, e: String| io::Error::new(kind, format!("--config {}: {e}", path.display()));
            let body = std::fs::read_to_string(path).map_err(|e| fail(e.kind(), e.to_string()))?;
            let invalid = |e: serde_json::Error| fail(io::ErrorKind::InvalidData, e.to_string());
            let input: Value = serde_json::from_str(&body).map_err(invalid)?;
            let config: ExperimentConfig = serde_json::from_value(&input).map_err(invalid)?;
            // The parser skips a key the type does not have, and all but
            // the first of a repeated key; refuse both.
            let parsed = serde_json::to_value(&config).map_err(invalid)?;
            if let Some(why) = refused_field(&input, &parsed, "") {
                return Err(fail(io::ErrorKind::InvalidData, why));
            }
            (config.check()).map_err(|why| fail(io::ErrorKind::InvalidInput, why))?;
            config
        }
    };
    if let Some(seed) = flags.seed {
        config.seed = seed;
    }
    if let Some(frames) = flags.frames {
        config.stream.total_frames = frames;
    }
    if let Some(selection) = flags.selection {
        config.selection = selection;
    }
    if flags.servers.is_none() && flags.routing.is_none() && flags.admission.is_none() {
        return Ok(config);
    }
    let mut tier = config.tier_config();
    if let Some(n) = flags.servers {
        // A uniform tier over the first server's profile (or the
        // default server's when the file's tier has none).
        let spec = tier.servers.first().copied().unwrap_or_default();
        tier.servers = vec![spec; n.get()];
    }
    if let Some(routing) = flags.routing {
        tier.routing = routing;
    }
    if let Some(admission) = flags.admission {
        tier.admission = admission;
    }
    config.tier = Some(tier);
    Ok(config)
}

/// FrameFeedback against the all-or-nothing baseline, as a sweep's
/// controller axis.
fn ff_vs_all_or_nothing() -> Vec<(String, ControllerSpec)> {
    vec![
        ("framefeedback".into(), ControllerSpec::framefeedback()),
        ("all-or-nothing".into(), ControllerSpec::AllOrNothing),
    ]
}

/// Timeouts over offloaded frames; 0 when nothing was offloaded.
fn miss_rate(timeouts: u64, offloaded: u64) -> f64 {
    if offloaded == 0 {
        0.0
    } else {
        timeouts as f64 / offloaded as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_field_is_named_by_its_path() {
        let parsed = serde_json::to_value(&ExperimentConfig::default()).unwrap();
        let read = |body: &str| serde_json::from_str::<Value>(body).unwrap();
        let input = read(r#"{"seed": 1, "stream": {"fps": 30.0}}"#);
        assert_eq!(refused_field(&input, &parsed, ""), None);
        let input = read(r#"{"seed": 1, "stream": {"fps": 30.0, "fsp": 30.0}}"#);
        assert_eq!(
            refused_field(&input, &parsed, ""),
            Some("unknown field stream.fsp".into())
        );
        let input = read(r#"{"network": {"steps": [[0.0, {"loss": 1.0}]]}}"#);
        let at = Some("unknown field network.steps[0][1].loss".into());
        assert_eq!(refused_field(&input, &parsed, ""), at);
    }

    #[test]
    fn a_repeated_field_is_named_by_its_path() {
        let parsed = serde_json::to_value(&ExperimentConfig::default()).unwrap();
        let read = |body: &str| serde_json::from_str::<Value>(body).unwrap();
        let refused = |body: &str| refused_field(&read(body), &parsed, "");
        assert_eq!(
            refused(r#"{"seed": 42, "seed": 7}"#),
            Some("repeated field seed".into())
        );
        assert_eq!(
            refused(r#"{"stream": {"fps": 30.0, "fps": 15.0}}"#),
            Some("repeated field stream.fps".into())
        );
        let steps = r#"{"network": {"steps": [[0.0, {"loss_pct": 1.0, "loss_pct": 2.0}]]}}"#;
        let at = Some("repeated field network.steps[0][1].loss_pct".into());
        assert_eq!(refused(steps), at);
    }
}
