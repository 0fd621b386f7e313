//! Extension: adaptive local-model selection (the related-work \[38\]
//! idea, composed with FrameFeedback).
//!
//! When the controller offloads nearly everything, the local engine only
//! classifies the leftovers — so it can afford a slower, more accurate
//! model, and drop back to the fast one the moment offloading collapses.
//! Run on a network that is healthy, then dies, then recovers.

use ff_bench::export_json;
use ff_core::FrameFeedback;
use ff_device::{run_experiment, ExperimentConfig, SelectorConfig};
use ff_net::NetworkConditions;
use ff_workload::StepSchedule;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    mean_throughput: f64,
    mean_local_accuracy_pct: f64,
    healthy_phase_p: f64,
    dead_phase_p: f64,
}

fn scenario() -> StepSchedule<NetworkConditions> {
    StepSchedule::new(vec![
        (0.0, NetworkConditions::new(10.0, 0.0)),  // healthy
        (45.0, NetworkConditions::new(1.0, 20.0)), // collapse
        (90.0, NetworkConditions::new(10.0, 0.0)), // recovery
    ])
}

fn run(adaptive: bool) -> Row {
    let mut config = ExperimentConfig::default();
    config.network = scenario();
    config.peer_devices = 0;
    if adaptive {
        config.adaptive_local_model = Some(SelectorConfig::default());
    }
    let r = run_experiment(config, Box::new(FrameFeedback::new()));
    Row {
        variant: if adaptive {
            "adaptive-local-model"
        } else {
            "fixed-mnv3small"
        }
        .into(),
        mean_throughput: r.mean_throughput,
        mean_local_accuracy_pct: r.mean_local_accuracy.unwrap_or(f64::NAN) * 100.0,
        healthy_phase_p: r.qos.aggregate(20.0, 45.0).unwrap().mean_throughput,
        dead_phase_p: r.qos.aggregate(55.0, 90.0).unwrap().mean_throughput,
    }
}

fn main() {
    println!("== adaptive local model: healthy -> dead link -> recovery ==\n");
    println!(
        "{:<22} {:>8} {:>14} {:>12} {:>10}",
        "variant", "mean P", "local acc %", "P healthy", "P dead"
    );
    let rows = vec![run(false), run(true)];
    for r in &rows {
        println!(
            "{:<22} {:>8.1} {:>14.2} {:>12.1} {:>10.1}",
            r.variant,
            r.mean_throughput,
            r.mean_local_accuracy_pct,
            r.healthy_phase_p,
            r.dead_phase_p
        );
    }

    let fixed = &rows[0];
    let adaptive = &rows[1];
    println!(
        "\nduring full offloading the adaptive variant classifies its leftover local \
         frames {:+.2} accuracy points better,",
        adaptive.mean_local_accuracy_pct - fixed.mean_local_accuracy_pct
    );
    println!(
        "and when the link dies it falls back to the fast model, keeping the dead-phase \
         floor within {:.1} fps of the fixed variant ({:.1} vs {:.1}).",
        (adaptive.dead_phase_p - fixed.dead_phase_p).abs(),
        adaptive.dead_phase_p,
        fixed.dead_phase_p
    );

    match export_json("model_selection", &rows) {
        Ok(path) => println!("rows exported to {}", path.display()),
        Err(e) => eprintln!("json export failed: {e}"),
    }
}
