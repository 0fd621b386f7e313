//! Extension: mobile devices (random-walk link conditions).
//!
//! The paper's motivating workloads include UAVs and vehicles (§I) whose
//! links wander continuously rather than stepping on a timetable. Three
//! devices follow independent mobility traces against the shared server;
//! the per-device controllers must each track their own link.

use ff_bench::export_json;
use ff_core::{Controller, FrameFeedback};
use ff_device::{run_fleet, FleetConfig};
use ff_sim::RngFactory;
use ff_workload::{mobility_trace, MobilityConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: &'static str,
    mean_throughput: f64,
    offloaded: u64,
    timeouts: u64,
}

fn main() {
    println!("== mobility: three devices on independent random-walk links ==\n");

    let mut config = FleetConfig::default();
    let rng = RngFactory::new(2024);
    let mobility = MobilityConfig::default();
    config.per_device_network = Some(
        (0..config.devices.len() as u64)
            .map(|i| mobility_trace(&mobility, &mut rng.indexed_stream("mobility", i)))
            .collect(),
    );

    let controllers: Vec<Box<dyn Controller>> = (0..config.devices.len())
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect();
    let schedules = config.per_device_network.clone().unwrap();
    let result = run_fleet(config, controllers);

    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>18}",
        "device", "P", "offloaded", "timeouts", "bw range seen"
    );
    let mut rows = Vec::new();
    for (i, d) in result.devices.iter().enumerate() {
        let bws: Vec<f64> = schedules[i]
            .steps()
            .iter()
            .map(|(_, c)| c.bandwidth_mbps)
            .collect();
        let lo = bws.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = bws.iter().cloned().fold(0.0, f64::max);
        println!(
            "{:<14} {:>8.1} {:>10} {:>10} {:>9.1}-{:.1} Mbps",
            d.device, d.mean_throughput, d.frames_offloaded, d.offload_timeouts, lo, hi
        );
        rows.push(Row {
            device: d.device,
            mean_throughput: d.mean_throughput,
            offloaded: d.frames_offloaded,
            timeouts: d.offload_timeouts,
        });
    }
    println!(
        "\nfleet total P = {:.1} fps, fairness {:.3}, server rejections {}",
        result.total_mean_throughput, result.offload_fairness, result.server_stats.rejections
    );
    println!(
        "Every device must beat its own local floor despite the wandering link —\n\
         the controller needs no mobility model, only the timeout signal."
    );
    for d in &result.devices {
        assert!(
            d.mean_throughput > 4.5,
            "{} fell below a plausible floor: {:.1}",
            d.device,
            d.mean_throughput
        );
    }

    match export_json("mobility", &rows) {
        Ok(path) => println!("rows exported to {}", path.display()),
        Err(e) => eprintln!("json export failed: {e}"),
    }
}
