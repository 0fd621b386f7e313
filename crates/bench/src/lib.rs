//! # ff-bench — regeneration harness for every table and figure
//!
//! Shared plumbing for the experiment binaries (`src/bin/*.rs`), each of
//! which regenerates one artifact of the paper's evaluation:
//!
//! | Binary                | Artifact |
//! |-----------------------|----------|
//! | `table2_local_rates`  | Table II — measured local rates `P_l` |
//! | `table3_accuracy`     | Table III — model accuracy (+ §II-D trade-off) |
//! | `table4_settings`     | Table IV — controller settings validation |
//! | `fig2_gain_sweep`     | Fig. 2 — `P_o` under gain variants, loss at 27 s |
//! | `fig3_network`        | Fig. 3 + Table V — throughput under network degradation |
//! | `fig4_server_load`    | Fig. 4 + Table VI — throughput under server load |
//! | `cpu_usage`           | §II-A CPU usage observation |
//! | `combined_stress`     | §IV-C combined network × load (extension X2) |
//! | `dashboard`           | live terminal fleet view over telemetry export |
//!
//! Each binary prints a human-readable table and exports the raw series
//! as JSON under `target/experiments/`. Performance is measured by the
//! standalone `benchmark/` package, not here. Grid-shaped experiments
//! (`seed_sweep`, `fig2_gain_sweep`, `deadline_sweep`, `pid_ablation`,
//! and the [`run_lineup`] lineups) execute through the `ff-sweep`
//! shared-cursor engine — one worker per core, deterministic
//! aggregation, `FF_SWEEP_WORKERS` / `FF_SWEEP_CACHE_DIR` to override.

mod dashboard;

pub use dashboard::Dashboard;

use ff_device::{ExperimentConfig, ExperimentResult};
use ff_metrics::{render_chart, ChartConfig, ChartSeries};
use ff_sweep::{run_sweep, SweepOptions, SweepSpec};
use serde::Serialize;

/// Return the value following `flag` in a CLI argument list, if any —
/// the shared flag parser of the experiment binaries.
pub fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Run the same experiment configuration under every controller.
///
/// Backed by the `ff-sweep` engine: the four runs execute in parallel
/// (one per core, `FF_SWEEP_WORKERS` to override) and aggregate in
/// lineup order. Results are bit-identical to running
/// [`run_experiment`](ff_device::run_experiment) serially per controller.
pub fn run_lineup(config: &ExperimentConfig) -> Vec<ExperimentResult> {
    let spec = SweepSpec::lineup("lineup", config.clone());
    run_sweep(&spec, &SweepOptions::from_env())
        .cells
        .into_iter()
        .map(|c| c.result)
        .collect()
}

/// A labelled time range for per-phase reporting.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub label: &'static str,
    pub from_secs: f64,
    pub to_secs: f64,
}

/// Print a per-phase mean-throughput table for a set of results, matching
/// the structure of the paper's figures (one line per controller).
pub fn print_phase_table(results: &[ExperimentResult], phases: &[Phase]) {
    print!("{:<16}", "controller");
    for p in phases {
        print!(" {:>14}", p.label);
    }
    println!(" {:>10}", "mean P");
    for r in results {
        print!("{:<16}", r.controller);
        for p in phases {
            let v = r
                .qos
                .aggregate(p.from_secs, p.to_secs)
                .map_or(f64::NAN, |a| a.mean_throughput);
            print!(" {:>14.1}", v);
        }
        println!(" {:>10.1}", r.mean_throughput);
    }
}

/// Print per-second `(t, P, P_l, P_o, P_o target)` series for one result —
/// the raw points behind the figures.
pub fn print_series(result: &ExperimentResult) {
    println!("# controller = {}", result.controller);
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8}",
        "t(s)", "P", "P_l", "P_o", "Po*"
    );
    for rec in result.qos.records() {
        println!(
            "{:>6.0} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            rec.t_secs,
            rec.throughput(),
            rec.pl,
            rec.po,
            rec.po_target
        );
    }
}

/// Symbols used for the controller series in terminal charts, in
/// [`ControllerSpec::lineup`](ff_sweep::ControllerSpec::lineup) order.
pub const CHART_SYMBOLS: [char; 4] = ['F', 'l', 'a', 'n'];

/// Render the per-second throughput `P` of several results as a terminal
/// line chart (the visual form of Figures 3 and 4).
pub fn print_throughput_chart(title: &str, results: &[ExperimentResult]) {
    let series_points: Vec<Vec<(f64, f64)>> = results
        .iter()
        .map(|r| {
            r.qos
                .records()
                .iter()
                .map(|rec| (rec.t_secs, rec.throughput()))
                .collect()
        })
        .collect();
    let series: Vec<ChartSeries<'_>> = results
        .iter()
        .zip(&series_points)
        .enumerate()
        .map(|(i, (r, points))| ChartSeries {
            label: &r.controller,
            symbol: CHART_SYMBOLS[i % CHART_SYMBOLS.len()],
            points,
        })
        .collect();
    println!("{title}");
    print!(
        "{}",
        render_chart(
            &ChartConfig {
                y_label: "P (frames/s)",
                x_label: "t (s)",
                ..Default::default()
            },
            &series,
        )
    );
}

/// Render the `P_o` target of one result as a terminal chart (the visual
/// form of Figure 2's traces).
pub fn print_po_target_chart(title: &str, labelled: &[(String, &ExperimentResult)]) {
    let series_points: Vec<Vec<(f64, f64)>> = labelled
        .iter()
        .map(|(_, r)| {
            r.qos
                .records()
                .iter()
                .map(|rec| (rec.t_secs, rec.po_target))
                .collect()
        })
        .collect();
    let symbols = ['1', '2', '3', '4', '5', '6', '7', '8'];
    let series: Vec<ChartSeries<'_>> = labelled
        .iter()
        .zip(&series_points)
        .enumerate()
        .map(|(i, ((label, _), points))| ChartSeries {
            label,
            symbol: symbols[i % symbols.len()],
            points,
        })
        .collect();
    println!("{title}");
    print!(
        "{}",
        render_chart(
            &ChartConfig {
                y_label: "P_o target (frames/s)",
                x_label: "t (s)",
                ..Default::default()
            },
            &series,
        )
    );
}

/// Write a serializable result set as pretty JSON under
/// `target/experiments/<name>.json`; returns the path.
pub fn export_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_lineup_produces_one_result_per_controller() {
        let mut config = ExperimentConfig::default();
        config.stream.total_frames = 150; // 5 s, keep the test fast
        config.peer_devices = 0;
        let results = run_lineup(&config);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.frames_generated, 150);
        }
    }

    #[test]
    fn export_json_round_trips() {
        let path = export_json("selftest", &vec![1, 2, 3]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        let back: Vec<i32> = serde_json::from_str(&body).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
