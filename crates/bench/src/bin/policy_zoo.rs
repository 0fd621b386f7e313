//! Extension: the policy zoo — routing × admission × controller fleet,
//! head to head on a two-server tier.
//!
//! The paper evaluates one server and one knob (the PD controller).
//! With the multi-server tier the design space is three-dimensional:
//! *who gets in* (admission), *where they land* (routing), and *how the
//! devices adapt* (the controller fleet). This grid runs every
//! combination over a mildly saturated 6-device / 2-server scenario and
//! prints a markdown comparison table: mean total throughput,
//! deadline-miss rate over offloaded frames, and Jain's fairness index
//! per cell.
//!
//! Flags: `--frames N` (per-device stream length, default 1800),
//! `--servers N` (tier size, default 2), `--devices N` (default 6),
//! `--seed S` (default 42). `FF_SWEEP_WORKERS` controls parallelism.

use ff_bench::{export_json, parse_flag};
use ff_device::{FleetConfig, FleetDeviceConfig};
use ff_models::{DeviceKind, GpuProfile, ModelKind};
use ff_server::{OverflowPolicy, ServerSpec, TierConfig};
use ff_sim::SimDuration;
use ff_sweep::{
    run_fleet_sweep, AdmissionSpec, ControllerSpec, FleetSweepSpec, RoutingSpec, SweepOptions,
};
use serde::Serialize;

/// Per-device token-bucket rate: just under the per-device fair share of
/// the default two-server tier (~170 rps / 6 devices ≈ 28 rps), so a
/// greedy 30 fps tenant is clipped while adaptive tenants are not.
const BUCKET_RATE: f64 = 25.0;

/// A deliberately *heterogeneous* tier: servers alternate between a big
/// GPU (batch 9 ≈ 114 rps) and a small one (batch 3 ≈ 57 rps). Static
/// sharding maps half the devices onto the small server and overloads
/// it; load-aware routing should absorb the asymmetry — that contrast
/// is the point of the routing axis.
fn tier(servers: usize) -> TierConfig {
    TierConfig {
        servers: (0..servers)
            .map(|i| ServerSpec {
                gpu: GpuProfile {
                    batch_limit: if i % 2 == 0 { 9 } else { 3 },
                },
                policy: OverflowPolicy::RejectNewest,
            })
            .collect(),
        ..TierConfig::uniform(servers, ServerSpec::default())
    }
}

fn scenario(devices: usize, servers: usize, frames: u64, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::default();
    config.seed = seed;
    config.stream.total_frames = frames;
    config.devices = (0..devices)
        .map(|_| FleetDeviceConfig {
            device: DeviceKind::Pi4BRev12,
            model: ModelKind::MobileNetV3Small,
        })
        .collect();
    // The default 2-server tier holds ~170 rps against 6 × 30 = 180 rps
    // offered — saturated enough that the policies separate, not so
    // overloaded that everything drowns.
    config.tier = Some(tier(servers));
    config
}

fn fleets(devices: usize) -> Vec<(String, Vec<ControllerSpec>)> {
    let pd = ControllerSpec::framefeedback;
    let all_pd: Vec<ControllerSpec> = (0..devices).map(|_| pd()).collect();
    let mut one_greedy: Vec<ControllerSpec> = (0..devices - 1).map(|_| pd()).collect();
    one_greedy.push(ControllerSpec::AlwaysOffload);
    let all_greedy: Vec<ControllerSpec> = (0..devices)
        .map(|_| ControllerSpec::AlwaysOffload)
        .collect();
    vec![
        ("all-pd".into(), all_pd),
        ("one-greedy".into(), one_greedy),
        ("all-greedy".into(), all_greedy),
    ]
}

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let frames: u64 = parse_flag(&args, "--frames")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_800);
    let servers: usize = parse_flag(&args, "--servers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let devices: usize = parse_flag(&args, "--devices")
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let seed: u64 = parse_flag(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);

    println!(
        "== policy zoo: {devices} devices x {servers} servers, {frames} frames, seed {seed} ==\n"
    );

    let spec = FleetSweepSpec {
        name: "policy_zoo".into(),
        scenarios: vec![("saturated".into(), scenario(devices, servers, frames, seed))],
        seeds: vec![seed],
        routings: vec![
            ("static-shard".into(), RoutingSpec::StaticShard),
            (
                "jsq".into(),
                RoutingSpec::JoinShortestQueue {
                    gossip_interval: SimDuration::from_millis(500),
                },
            ),
            ("po2c".into(), RoutingSpec::PowerOfTwoChoices),
        ],
        admissions: vec![
            ("admit-all".into(), AdmissionSpec::AdmitAll),
            (
                "token-bucket".into(),
                AdmissionSpec::TokenBucket {
                    rate_rps: BUCKET_RATE,
                    burst: BUCKET_RATE,
                },
            ),
        ],
        controllers: fleets(devices),
    };

    let report = run_fleet_sweep(&spec, &SweepOptions::from_env());
    println!(
        "{} cells in {:.1}s\n",
        report.cells.len(),
        report.elapsed_secs
    );

    let mut rows = Vec::with_capacity(report.cells.len());
    for cell in &report.cells {
        let r = &cell.result;
        let offloaded: u64 = r.devices.iter().map(|d| d.frames_offloaded).sum();
        let timeouts: u64 = r.devices.iter().map(|d| d.offload_timeouts).sum();
        let miss_rate = if offloaded == 0 {
            0.0
        } else {
            timeouts as f64 / offloaded as f64
        };
        rows.push(ZooRow {
            routing: cell.key.routing.clone(),
            admission: cell.key.admission.clone(),
            fleet: cell.key.controller.clone(),
            seed: cell.key.seed,
            total_throughput: r.total_mean_throughput,
            deadline_miss_rate: miss_rate,
            jain_fairness: r.offload_fairness,
            admission_rejections: r.admission_rejections,
            server_rejections: r.server_stats.rejections,
            per_server_completions: r.per_server_stats.iter().map(|s| s.completions).collect(),
            server_completions_total: r.server_stats.completions,
        });
    }

    println!("| routing | admission | fleet | throughput | miss rate | Jain | adm. rej |");
    println!("|---|---|---|---:|---:|---:|---:|");
    for row in &rows {
        println!(
            "| {} | {} | {} | {:.1} | {:.3} | {:.3} | {} |",
            row.routing,
            row.admission,
            row.fleet,
            row.total_throughput,
            row.deadline_miss_rate,
            row.jain_fairness,
            row.admission_rejections
        );
    }

    // Structural sanity the CI smoke job re-checks from the JSON export.
    for row in &rows {
        assert!(
            (0.0..=1.0).contains(&row.jain_fairness),
            "Jain index out of range in {row:?}",
        );
        assert_eq!(
            row.per_server_completions.iter().sum::<u64>(),
            row.server_completions_total,
            "per-server completions must sum to the tier total"
        );
    }
    println!("\nchecks: Jain in [0,1] and per-server completions sum to tier totals");

    match export_json("policy_zoo", &rows) {
        Ok(path) => println!("rows exported to {}", path.display()),
        Err(e) => eprintln!("json export failed: {e}"),
    }
}

impl std::fmt::Debug for ZooRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{} (seed {})",
            self.routing, self.admission, self.fleet, self.seed
        )
    }
}
