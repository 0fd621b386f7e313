//! Extension: the content-aware sweep — scene scripts × model-selection
//! policy, accuracy vs deadline misses.
//!
//! The paper's workload is content-blind: every frame is worth the same.
//! The content layer scores frames with a scene script, filters the
//! uninformative ones, and lets [`ModelSelection::ExpectedAccuracy`]
//! demote offloads to the local model when deadline risk eats the remote
//! model's accuracy edge. This grid runs the three named scene scenarios
//! under both policies and prints the accuracy-vs-miss-rate table that
//! `CONTENT_SWEEP.md` commits.
//!
//! Flags: `--frames N` (stream length, default 1800), `--seed S`
//! (default 42), `--md PATH` (rewrite the committed markdown table).
//! `FF_SWEEP_WORKERS` controls parallelism.

use ff_bench::{export_json, parse_flag};
use ff_device::{content_scenarios, ModelSelection};
use ff_sweep::{run_sweep, ControllerSpec, SweepOptions, SweepSpec};
use serde::Serialize;

#[derive(Serialize)]
struct ContentRow {
    scenario: String,
    selection: String,
    seed: u64,
    mean_throughput: f64,
    accuracy_weighted_throughput: f64,
    /// QoS intervals in the run, and how many saw at least one inference.
    /// `accuracy_weighted_throughput` averages over active intervals only
    /// (all-skipped seconds don't dilute it), so the cross-metric sanity
    /// bound is on totals: `aw · active <= mean_throughput · intervals`.
    intervals: usize,
    active_intervals: usize,
    deadline_miss_rate: f64,
    frames_offloaded: u64,
    frames_local: u64,
    frames_skipped: u64,
    frames_shrunk: u64,
}

fn spec(frames: u64, seed: u64) -> SweepSpec {
    let mut scenarios = Vec::new();
    for (name, mut config) in content_scenarios() {
        config.stream.total_frames = frames;
        for (policy, selection) in [
            ("paper", ModelSelection::AlwaysPaper),
            // A small hysteresis margin keeps the policy local through
            // the risk estimate's decay dips instead of re-probing the
            // dead network every timeout-window length.
            (
                "expected-accuracy",
                ModelSelection::ExpectedAccuracy { margin: 0.04 },
            ),
        ] {
            let mut config = config.clone();
            config.selection = selection;
            scenarios.push((format!("{name}/{policy}"), config));
        }
    }
    SweepSpec {
        name: "content_sweep".into(),
        scenarios,
        seeds: vec![seed],
        routings: Vec::new(),
        admissions: Vec::new(),
        controllers: vec![("framefeedback".into(), ControllerSpec::framefeedback())],
    }
}

fn table(rows: &[ContentRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "| scenario | selection | mean P | accuracy-weighted P | miss rate | skipped | shrunk |\n",
    );
    out.push_str("|---|---|---:|---:|---:|---:|---:|\n");
    for row in rows {
        out.push_str(&format!(
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
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let frames: u64 = parse_flag(&args, "--frames")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_800);
    let seed: u64 = parse_flag(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let md_path = parse_flag(&args, "--md");

    println!("== content sweep: scene x selection, {frames} frames, seed {seed} ==\n");

    let report = run_sweep(&spec(frames, seed), &SweepOptions::from_env());
    println!(
        "{} cells in {:.1}s\n",
        report.cells.len(),
        report.elapsed_secs
    );

    let mut rows = Vec::with_capacity(report.cells.len());
    for cell in &report.cells {
        let r = &cell.result;
        let (scenario, selection) = cell
            .key
            .scenario
            .split_once('/')
            .expect("scenario labels are scene/policy");
        let stats = r.filter_stats.expect("content scenarios carry a filter");
        assert!(stats.conserved(), "filter counters must conserve frames");
        let agg = r.qos.aggregate_all().expect("runs produce QoS records");
        let miss_rate = if r.frames_offloaded == 0 {
            0.0
        } else {
            r.offload_timeouts as f64 / r.frames_offloaded as f64
        };
        rows.push(ContentRow {
            scenario: scenario.to_string(),
            selection: selection.to_string(),
            seed: cell.key.seed,
            mean_throughput: r.mean_throughput,
            accuracy_weighted_throughput: r.mean_accuracy_weighted_throughput,
            intervals: agg.intervals,
            active_intervals: agg.active_intervals,
            deadline_miss_rate: miss_rate,
            frames_offloaded: r.frames_offloaded,
            frames_local: r.frames_local,
            frames_skipped: stats.skipped,
            frames_shrunk: stats.shrunk,
        });
    }

    let md = table(&rows);
    print!("{md}");

    // The winning criterion `tests/content_inert.rs` pins at the same
    // scale: the accuracy-aware policy beats the paper split on
    // accuracy-weighted throughput in at least 1 of the 3 scenarios.
    let mut wins = 0;
    for pair in rows.chunks(2) {
        let (paper, expected) = (&pair[0], &pair[1]);
        assert_eq!(paper.selection, "paper");
        assert_eq!(expected.selection, "expected-accuracy");
        if expected.accuracy_weighted_throughput > paper.accuracy_weighted_throughput {
            wins += 1;
        }
    }
    println!("\nexpected-accuracy wins on accuracy-weighted throughput in {wins}/3 scenarios");
    assert!(
        wins >= 1,
        "expected-accuracy must win at least 1 of 3 scene scenarios \
         (won {wins}; the scenarios' network collapse starts 25-30 s in, \
         so runs shorter than ~1200 frames / 40 s never reach it)"
    );

    if let Some(path) = md_path {
        let body = format!(
            "# Content-aware sweep: accuracy vs deadline misses\n\n\
             Scene scripts x model-selection policy over a mid-run network\n\
             collapse, MobileNetV3Small on the device and EfficientNetB0 on\n\
             the server. Regenerate with:\n\n\
             ```sh\n\
             cargo run --release -p ff-bench --bin content_sweep -- --md CONTENT_SWEEP.md\n\
             ```\n\n\
             `{frames}` frames per run, seed `{seed}`.\n\n{md}\n\
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
        match std::fs::write(&path, body) {
            Ok(()) => println!("markdown table written to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    match export_json("content_sweep", &rows) {
        Ok(path) => println!("rows exported to {}", path.display()),
        Err(e) => eprintln!("json export failed: {e}"),
    }
}
