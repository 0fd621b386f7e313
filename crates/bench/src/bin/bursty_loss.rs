//! Extension: bursty (Gilbert–Elliott) vs. i.i.d. packet loss.
//!
//! The paper's NetEm setup uses independent loss; its reference \[37\]
//! notes real wireless links lose in bursts, sometimes tens of percent.
//! At the *same average* loss rate, bursts change the timeout pattern a
//! controller sees: calm stretches punctuated by storms. This experiment
//! runs every controller at 7% average loss under both processes and
//! reports how the throughput and the controller's behaviour differ.

use ff_bench::{export_json, run_lineup, Phase};
use ff_device::ExperimentConfig;
use ff_net::{GilbertElliott, LossModel, NetworkConditions};
use ff_workload::StepSchedule;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    process: String,
    controller: String,
    mean_throughput: f64,
    timeouts: u64,
    po_target_std: f64,
}

fn config(loss_model: Option<LossModel>) -> ExperimentConfig {
    let mut c = ExperimentConfig::default();
    // 10 Mbps with 7% average loss: bandwidth is ample, loss is the only
    // disturbance, isolating the loss-process effect.
    c.network = StepSchedule::constant(NetworkConditions::new(10.0, 7.0));
    c.loss_model = loss_model;
    c.peer_devices = 0;
    c
}

fn po_target_std(result: &ff_device::ExperimentResult) -> f64 {
    let targets: Vec<f64> = result
        .qos
        .records()
        .iter()
        .skip(15) // past the ramp
        .map(|r| r.po_target)
        .collect();
    let mean = targets.iter().sum::<f64>() / targets.len() as f64;
    (targets.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / targets.len() as f64).sqrt()
}

fn main() {
    println!("== bursty vs i.i.d. loss at 7% average (10 Mbps link) ==\n");
    let mut rows = Vec::new();

    for (label, model) in [
        ("bernoulli", None),
        (
            "gilbert-elliott",
            Some(LossModel::GilbertElliott(
                GilbertElliott::with_average_loss(0.07),
            )),
        ),
    ] {
        println!("--- {label} ---");
        let results = run_lineup(&config(model));
        let phases = [Phase {
            label: "steady (15s+)",
            from_secs: 15.0,
            to_secs: 134.0,
        }];
        ff_bench::print_phase_table(&results, &phases);
        for r in &results {
            rows.push(Row {
                process: label.to_string(),
                controller: r.controller.clone(),
                mean_throughput: r.mean_throughput,
                timeouts: r.offload_timeouts,
                po_target_std: po_target_std(r),
            });
        }
        println!();
    }

    // The comparison the extension is after: how much more does the
    // controller's target wander under bursts, and at what cost?
    let find = |proc: &str, ctl: &str| {
        rows.iter()
            .find(|r| r.process == proc && r.controller == ctl)
            .expect("row exists")
    };
    let ff_iid = find("bernoulli", "framefeedback");
    let ff_ge = find("gilbert-elliott", "framefeedback");
    println!(
        "framefeedback P_o-target std: i.i.d. {:.2} vs bursty {:.2}; \
         mean P: {:.1} vs {:.1}",
        ff_iid.po_target_std, ff_ge.po_target_std, ff_iid.mean_throughput, ff_ge.mean_throughput
    );
    let aon_iid = find("bernoulli", "all-or-nothing");
    let aon_ge = find("gilbert-elliott", "all-or-nothing");
    println!(
        "all-or-nothing mean P: i.i.d. {:.1} vs bursty {:.1} \
         (bursts leave long clean stretches, which interval policies exploit; \
         steady attrition defeats them)",
        aon_iid.mean_throughput, aon_ge.mean_throughput
    );

    match export_json("bursty_loss", &rows) {
        Ok(path) => println!("\nrows exported to {}", path.display()),
        Err(e) => eprintln!("json export failed: {e}"),
    }
}
