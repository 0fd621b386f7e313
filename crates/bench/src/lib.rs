//! # ff-bench — regeneration harness for every table and figure
//!
//! The `report` binary regenerates each artifact of the paper's
//! evaluation, and each extension, from one catalogue entry:
//!
//! ```sh
//! cargo run --release -p ff-bench --bin report -- <entry> [flags]
//! ```
//!
//! | Entry                 | Artifact |
//! |-----------------------|----------|
//! | `table2_local_rates`  | Table II — measured local rates `P_l` |
//! | `table3_accuracy`     | Table III — model accuracy (+ §II-D trade-off) |
//! | `table4_settings`     | Table IV — controller settings validation |
//! | `fig2_gain_sweep`     | Fig. 2 — `P_o` under gain variants, loss at 27 s |
//! | `fig3_network`        | Fig. 3 + Table V — throughput under network degradation |
//! | `fig4_server_load`    | Fig. 4 + Table VI — throughput under server load |
//! | `cpu_usage`           | §II-A CPU usage observation (+ energy model) |
//! | `combined_stress`     | §IV-C combined network × load (extension X2) |
//! | `fairness`            | §II-A.3 fairness at saturation |
//! | `autotune`            | §III-B tuning procedure, automated |
//! | `pid_ablation`        | the `K_I = 0` justification |
//! | `aimd_vs_pd`          | PD control vs TCP-style AIMD |
//! | `bursty_loss`         | Gilbert–Elliott vs i.i.d. loss |
//! | `quality_adaptation`  | §II-D closed loop: adaptive JPEG quality |
//! | `model_selection`     | adaptive local model |
//! | `deadline_sweep`      | the 250 ms deadline choice |
//! | `mobility`            | random-walk links |
//! | `seed_sweep`          | Fig. 3 over 15 seeds, bootstrap CI |
//! | `policy_zoo`          | routing × admission × controller fleet (`POLICY_ZOO.md`) |
//! | `content_sweep`       | scene × model selection (`CONTENT_SWEEP.md`) |
//! | `outage`              | server crash and restart |
//! | `both_models`         | Figs. 3 and 4 with EfficientNetB0 |
//! | `regret`              | regret against a clairvoyant oracle |
//! | `run`                 | one controller under one scenario (or `--config` file) |
//! | `verify_trace`        | replay-verify a trace `run --trace` recorded |
//! | `dump_config`         | the `ExperimentConfig` a `run` would use |
//!
//! An entry prints its tables, runs its checks (a failed check panics,
//! so `report` exits non-zero) and returns the value `report` exports
//! as JSON to `target/experiments/<entry>.json`. Entries build their
//! runs from `ff_device::scenario`'s named settings and take their phase
//! tables from the scenario's own step schedule. The last three entries
//! run one experiment as the command line asks:
//!
//! ```sh
//! cargo run --release -p ff-bench --bin report -- run --scenario table6 --controller all-or-nothing --seed 7
//! cargo run --release -p ff-bench --bin report -- run --frames 600 --kp 0.9 --trace tuned.fftrace
//! cargo run --release -p ff-bench --bin report -- verify_trace --trace tuned.fftrace --kp 0.9
//! ```
//!
//! The other binary, `dashboard`, is a live terminal fleet view over
//! the telemetry export. Performance is measured by the standalone
//! `benchmark/` package, not here. Grid-shaped entries run through the
//! `ff-sweep` shared-cursor engine — one worker per core, deterministic
//! aggregation, `FF_SWEEP_WORKERS` / `FF_SWEEP_CACHE_DIR` to override.

/// `report` prints through [`print_out`]: this `println!` shadows the
/// standard one for the whole crate.
macro_rules! println {
    () => {
        $crate::print_out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::print_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod dashboard;
mod entries;

pub use dashboard::Dashboard;

use ff_device::{
    ExperimentConfig, ExperimentResult, FleetDeviceConfig, ModelSelection, SCENARIO_NAMES,
};
use ff_metrics::{render_chart, ChartConfig, ChartSeries, QosAggregate, QosRecord};
use ff_models::{DeviceKind, ModelKind};
use ff_server::{AdmissionPolicy, RoutingPolicy};
use ff_sim::SimDuration;
use ff_sweep::{run_sweep, ControllerSpec, SweepOptions, SweepReport, SweepSpec};
use ff_workload::StepSchedule;
use serde::{Serialize, Value};
use std::fmt;
use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// Run `report <entry> [flags]` with `args` as what follows the program
/// name, exporting into `dir`. Returns the exit status: 0 on success, 1
/// when the export (or an entry's own output file) cannot be written,
/// 2 for a missing or unknown entry or a bad flag. A failed check
/// panics. `run`, `verify_trace` and `dump_config` also exit 1 on an
/// unreadable `--config` or trace, a `--config` naming a field
/// `ExperimentConfig` does not have, and a replay mismatch.
pub fn report(args: &[String], dir: &Path) -> u8 {
    let names: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
    let usage = format!(
        "usage: report <entry> [flags]\nentries:\n  {}",
        names.join("\n  ")
    );
    let Some(entry) = args.first().and_then(|name| find(name)) else {
        if let Some(name) = args.first() {
            eprintln!("unknown entry {name:?}");
        }
        eprintln!("{usage}");
        return 2;
    };
    let flags = match Flags::parse(entry, &args[1..]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return 2;
        }
    };
    match (entry.run)(&flags).and_then(|value| export_json(dir, entry.name, &value)) {
        Ok(path) => {
            println!("exported to {}", path.display());
            0
        }
        Err(e) => {
            eprintln!("{}: {e}", entry.name);
            1
        }
    }
}

/// Set once a write to stdout fails with a broken pipe: its reader is
/// gone (`report … | head`), so nothing more is printed, while the entry
/// still runs its checks and exports.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `args` to stdout unless stdout is closed. A broken pipe closes
/// it for the rest of the process; any other failure panics, as
/// `print!` does.
fn print_out(args: fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        let broken_pipe = e.kind() == io::ErrorKind::BrokenPipe;
        assert!(broken_pipe, "failed printing to stdout: {e}");
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// One artifact `report` regenerates: its name, the flags it takes (out
/// of [`FLAGS`]), those of them it cannot go without, and a run
/// function whose doc comment says what the artifact is. The function
/// prints the entry's tables, runs its checks (panicking on a failed
/// one) and returns the value to export.
struct Entry {
    name: &'static str,
    flags: &'static [&'static str],
    required: &'static [&'static str],
    run: fn(&Flags) -> io::Result<Value>,
}

/// The catalogue entry named after its run function in `entries`,
/// taking the flags in the first optional array and requiring those in
/// the second.
macro_rules! entry {
    ($name:ident) => {
        entry!($name, [])
    };
    ($name:ident, $flags:expr) => {
        entry!($name, $flags, [])
    };
    ($name:ident, $flags:expr, $required:expr) => {
        Entry {
            name: stringify!($name),
            flags: &$flags,
            required: &$required,
            run: entries::$name,
        }
    };
}

/// Every artifact `report` regenerates: the paper's evaluation first,
/// then the extensions, then the single runs.
const CATALOGUE: &[Entry] = &[
    entry!(table2_local_rates),
    entry!(table3_accuracy),
    entry!(table4_settings),
    entry!(fig2_gain_sweep),
    entry!(fig3_network),
    entry!(fig4_server_load),
    entry!(cpu_usage),
    entry!(combined_stress),
    entry!(fairness),
    entry!(autotune),
    entry!(pid_ablation),
    entry!(aimd_vs_pd),
    entry!(bursty_loss),
    entry!(quality_adaptation),
    entry!(model_selection),
    entry!(deadline_sweep),
    entry!(mobility),
    entry!(seed_sweep),
    entry!(policy_zoo, ["--frames", "--seed", "--devices", "--servers"]),
    entry!(content_sweep, ["--frames", "--seed", "--md"]),
    entry!(outage),
    entry!(both_models),
    entry!(regret),
    entry!(
        run,
        [
            "--scenario",
            "--controller",
            "--seed",
            "--frames",
            "--kp",
            "--kd",
            "--servers",
            "--routing",
            "--admission",
            "--selection",
            "--config",
            "--trace",
        ]
    ),
    entry!(verify_trace, ["--trace", "--kp", "--kd"], ["--trace"]),
    entry!(
        dump_config,
        [
            "--scenario",
            "--seed",
            "--frames",
            "--servers",
            "--routing",
            "--admission",
            "--selection",
            "--config",
        ]
    ),
];

fn find(name: &str) -> Option<&'static Entry> {
    CATALOGUE.iter().find(|e| e.name == name)
}

/// Every flag an entry can take.
const FLAGS: [&str; 14] = [
    "--frames",
    "--seed",
    "--devices",
    "--servers",
    "--md",
    "--scenario",
    "--controller",
    "--kp",
    "--kd",
    "--routing",
    "--admission",
    "--selection",
    "--config",
    "--trace",
];

/// An entry's parsed flags; `None` leaves the entry's default.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    frames: Option<u64>,
    seed: Option<u64>,
    devices: Option<NonZeroUsize>,
    servers: Option<NonZeroUsize>,
    md: Option<String>,
    scenario: Option<String>,
    controller: Option<String>,
    kp: Option<f64>,
    kd: Option<f64>,
    routing: Option<RoutingPolicy>,
    admission: Option<AdmissionPolicy>,
    selection: Option<ModelSelection>,
    config: Option<PathBuf>,
    trace: Option<PathBuf>,
}

impl Flags {
    /// Parse what follows the entry name. Rejects, by name, an unknown
    /// flag, a flag `entry` does not take, a flag it requires that is
    /// not given, a flag with no value, and a value that does not
    /// parse; rejects `--config` with `--scenario` and gains for a
    /// controller that has none.
    fn parse(entry: &Entry, args: &[String]) -> Result<Flags, String> {
        let args = FlagArgs::parse(&FLAGS, args)?;
        if let Some(flag) = args.names().find(|f| !entry.flags.contains(f)) {
            return Err(format!("{} does not take {flag}", entry.name));
        }
        if let Some(flag) = (entry.required.iter()).find(|&&f| !args.names().any(|g| g == f)) {
            return Err(format!("{} needs {flag}", entry.name));
        }
        let flags = Flags {
            frames: args.value("--frames")?,
            seed: args.value("--seed")?,
            devices: args.value("--devices")?,
            servers: args.value("--servers")?,
            md: args.value("--md")?,
            scenario: args.value_with("--scenario", parse_scenario)?,
            controller: args.value("--controller")?,
            kp: args.value("--kp")?,
            kd: args.value("--kd")?,
            routing: args.value_with("--routing", parse_routing)?,
            admission: args.value_with("--admission", parse_admission)?,
            selection: args.value_with("--selection", parse_selection)?,
            config: args.value("--config")?,
            trace: args.value("--trace")?,
        };
        if flags.config.is_some() && flags.scenario.is_some() {
            return Err(
                "--config and --scenario exclude each other: the file is the scenario".into(),
            );
        }
        flags.controller_spec(flags.controller())?;
        Ok(flags)
    }

    /// The controller `run` runs: `--controller`, or FrameFeedback.
    fn controller(&self) -> &str {
        self.controller.as_deref().unwrap_or("framefeedback")
    }

    /// The controller called `name` with the `--kp`/`--kd` gain overrides
    /// applied — to the run's `--controller`, or to the controller a
    /// trace header names.
    fn controller_spec(&self, name: &str) -> Result<ControllerSpec, String> {
        match ControllerSpec::from_name(name) {
            None => Err(format!("unknown controller {name:?}")),
            Some(ControllerSpec::FrameFeedback(mut pid)) => {
                pid.kp = self.kp.unwrap_or(pid.kp);
                pid.kd = self.kd.unwrap_or(pid.kd);
                Ok(ControllerSpec::FrameFeedback(pid))
            }
            Some(_) if self.kp.is_some() || self.kd.is_some() => Err(format!(
                "--kp/--kd only apply to the framefeedback controller, not {name}"
            )),
            Some(spec) => Ok(spec),
        }
    }
}

fn parse_scenario(s: &str) -> Result<String, String> {
    if !SCENARIO_NAMES.contains(&s) {
        return Err(format!("not one of {}", SCENARIO_NAMES.join(" | ")));
    }
    Ok(s.to_string())
}

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

/// Command-line `--flag value` pairs, parsed strictly against a table of
/// the flags a binary takes. Every error names its flag.
#[derive(Debug)]
pub struct FlagArgs<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> FlagArgs<'a> {
    /// Split `args` into pairs. Rejects a flag not in `table` and a flag
    /// with no value (the end of `args`, or another `--flag`).
    pub fn parse(table: &[&str], args: &'a [String]) -> Result<FlagArgs<'a>, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if !table.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag:?}"));
            }
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.as_str(), value.as_str()));
        }
        Ok(FlagArgs { pairs })
    }

    /// The flags given, in order.
    pub fn names(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.pairs.iter().map(|&(flag, _)| flag)
    }

    /// `flag`'s value parsed as a `T` (the last one if given twice), or
    /// `None` when it is not given. Rejects a value that does not parse.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: fmt::Display,
    {
        self.value_with(flag, |value| {
            value.parse().map_err(|e: T::Err| e.to_string())
        })
    }

    /// `flag`'s value read by `parse`, as [`value`](Self::value) reads
    /// it by `FromStr`.
    fn value_with<T>(
        &self,
        flag: &str,
        parse: fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let Some(&(_, value)) = self.pairs.iter().rev().find(|&&(f, _)| f == flag) else {
            return Ok(None);
        };
        parse(value)
            .map(Some)
            .map_err(|e| format!("{flag} {value:?}: {e}"))
    }
}

/// Write `value` as pretty JSON to `<dir>/<name>.json`, creating `dir`;
/// returns the path.
fn export_json(dir: &Path, name: &str, value: &Value) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

/// Print `rows` under `title` as a markdown table, one row per element.
///
/// Each row is laid out from its serde value tree: an object's fields
/// become columns named by the field (the first row's names head the
/// table), a tuple's elements are laid out in turn, and any other value
/// is one unnamed column. Columns are right-aligned, floats print with
/// three decimals, `null` prints as `-`, and a nested array or object
/// prints as compact JSON.
fn print_rows<T: Serialize>(title: &str, rows: &[T]) {
    let rows: Vec<Vec<(String, Value)>> = rows
        .iter()
        .map(|row| {
            let mut cells = Vec::new();
            flatten(row.to_value(), &mut cells);
            cells
        })
        .collect();
    let header: Vec<String> = rows.first().map_or(Vec::new(), |first| {
        first.iter().map(|(name, _)| name.clone()).collect()
    });
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| row.iter().map(|(_, v)| cell(v)).collect())
        .collect();
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count().max(3)).collect();
    for line in &body {
        for (w, text) in widths.iter_mut().zip(line) {
            *w = (*w).max(text.chars().count());
        }
    }
    let rule: Vec<String> = widths
        .iter()
        .map(|&w| format!("{}:", "-".repeat(w - 1)))
        .collect();
    println!("== {title} ==");
    for line in [&header, &rule].into_iter().chain(&body) {
        let padded: Vec<String> = (line.iter().zip(&widths))
            .map(|(text, &w)| format!("{text:>w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    }
    println!();
}

/// A row's cells: an object's fields, a tuple's elements (laid out in
/// turn), or the value itself as one unnamed cell.
fn flatten(value: Value, cells: &mut Vec<(String, Value)>) {
    match value {
        Value::Obj(fields) => cells.extend(fields),
        Value::Arr(items) => items.into_iter().for_each(|v| flatten(v, cells)),
        v => cells.push((String::new(), v)),
    }
}

fn cell(value: &Value) -> String {
    match value {
        Value::Null => "-".into(),
        Value::Bool(b) => b.to_string(),
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(x) => format!("{x:.3}"),
        Value::Str(s) => s.clone(),
        nested => serde_json::to_string(nested).unwrap_or_default(),
    }
}

/// One phase per step of `schedule`, from its step time to the next;
/// the last ends at `end_secs`.
fn phases<T: Clone>(schedule: &StepSchedule<T>, end_secs: f64) -> Vec<Range<f64>> {
    let starts: Vec<f64> = schedule.steps().iter().map(|&(t, _)| t).collect();
    let ends = starts.iter().skip(1).copied().chain([end_secs]);
    starts
        .iter()
        .zip(ends)
        .map(|(&from, to)| from..to)
        .collect()
}

/// A phase's label: `"<from>-<to>"` in whole seconds.
fn label(phase: &Range<f64>) -> String {
    format!("{:.0}-{:.0}", phase.start, phase.end)
}

/// Where a run of `config` ends: its stream's duration, rounded up to
/// the whole second its last QoS interval closes.
fn run_end(config: &ExperimentConfig) -> f64 {
    config.stream.stream_duration().as_secs_f64().ceil()
}

/// Mean throughput `P` of `result` over `window`; panics on a window
/// with no QoS interval.
fn mean_p(result: &ExperimentResult, window: Range<f64>) -> f64 {
    let mean = result.qos.aggregate(window.start, window.end);
    mean.expect("a window with QoS intervals").mean_throughput
}

/// FrameFeedback's mean throughput over all-or-nothing's in `window`.
fn advantage(ff: &ExperimentResult, aon: &ExperimentResult, window: Range<f64>) -> f64 {
    mean_p(ff, window.clone()) / mean_p(aon, window).max(1e-9)
}

/// Print `metric` for each result in each phase and over the whole run —
/// one row per controller, the structure of the paper's figures.
fn print_phase_table(
    title: &str,
    results: &[ExperimentResult],
    phases: &[Range<f64>],
    metric: fn(&QosAggregate) -> f64,
) {
    let rows: Vec<Value> = results
        .iter()
        .map(|r| {
            let mut row = vec![("controller".to_string(), Value::Str(r.controller.clone()))];
            for p in phases {
                let value = r
                    .qos
                    .aggregate(p.start, p.end)
                    .as_ref()
                    .map_or(f64::NAN, metric);
                row.push((label(p), Value::F64(value)));
            }
            let all = r.qos.aggregate_all().as_ref().map_or(f64::NAN, metric);
            row.push(("whole run".to_string(), Value::F64(all)));
            Value::Obj(row)
        })
        .collect();
    print_rows(title, &rows);
}

/// The results of a controller lineup, labelled by controller.
fn lineup(results: &[ExperimentResult]) -> Vec<(String, &ExperimentResult)> {
    results.iter().map(|r| (r.controller.clone(), r)).collect()
}

/// Render one per-second QoS field `y` of labelled runs as a terminal
/// line chart (the visual form of the paper's figures).
fn print_chart(title: &str, runs: &[(String, &ExperimentResult)], y: fn(&QosRecord) -> f64) {
    let points: Vec<Vec<(f64, f64)>> = runs
        .iter()
        .map(|(_, r)| r.qos.records().iter().map(|q| (q.t_secs, y(q))).collect())
        .collect();
    let series: Vec<ChartSeries<'_>> = runs
        .iter()
        .zip(&points)
        .zip("12345678".chars().cycle())
        .map(|(((label, _), points), symbol)| ChartSeries {
            label,
            symbol,
            points,
        })
        .collect();
    let config = ChartConfig {
        y_label: "frames/s",
        x_label: "t (s)",
        ..Default::default()
    };
    println!("== {title} ==\n{}", render_chart(&config, &series));
}

/// Run the same experiment configuration under every controller of
/// [`ControllerSpec::lineup`], in parallel on the `ff-sweep` engine.
/// Results are bit-identical to running
/// [`run_experiment`](ff_device::run_experiment) serially per controller.
fn run_lineup(config: &ExperimentConfig) -> Vec<ExperimentResult> {
    let spec = SweepSpec::lineup("lineup", config.clone());
    let report = run_sweep(&spec, &SweepOptions::from_env());
    report.cells.into_iter().map(|c| c.result).collect()
}

/// Run `scenarios × seeds × controllers` on the `ff-sweep` engine; the
/// cells come back in that order.
fn sweep(
    scenarios: Vec<(String, ExperimentConfig)>,
    seeds: Vec<u64>,
    controllers: Vec<(String, ControllerSpec)>,
) -> SweepReport {
    let spec = SweepSpec {
        name: "report".into(),
        scenarios,
        seeds,
        routings: Vec::new(),
        admissions: Vec::new(),
        controllers,
    };
    run_sweep(&spec, &SweepOptions::from_env())
}

/// `n` Pi 4B r1.2 devices running MobileNetV3Small.
pub fn pi_fleet(n: usize) -> Vec<FleetDeviceConfig> {
    let device = FleetDeviceConfig {
        device: DeviceKind::Pi4BRev12,
        model: ModelKind::MobileNetV3Small,
    };
    vec![device; n]
}

/// A lineup of `n` FrameFeedback devices whose last `greedy` are
/// replaced by always-offload tenants.
pub fn fleet(n: usize, greedy: usize) -> Vec<ControllerSpec> {
    (0..n)
        .map(|i| {
            if i + greedy >= n {
                ControllerSpec::AlwaysOffload
            } else {
                ControllerSpec::framefeedback()
            }
        })
        .collect()
}

/// The named `ff_device` scenario.
fn scenario(name: &str) -> ExperimentConfig {
    ff_device::scenario(name).expect("a name in ff_device::SCENARIO_NAMES")
}

/// Population standard deviation of `result`'s P_o target over the
/// QoS intervals whose end falls in `window`.
fn po_target_std(result: &ExperimentResult, window: Range<f64>) -> f64 {
    let records = result.qos.records().iter();
    let values: Vec<f64> = records
        .filter(|q| window.contains(&q.t_secs))
        .map(|q| q.po_target)
        .collect();
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(name: &str, line: &str) -> Result<Flags, String> {
        Flags::parse(find(name).expect("catalogue entry"), &args(line))
    }

    /// A path under the system temp directory, unique to this test.
    fn scratch(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ff-bench-{test}-{}", std::process::id()))
    }

    #[test]
    fn flags_parse_into_their_types() {
        let flags = parse(
            "policy_zoo",
            "--frames 600 --devices 4 --servers 2 --seed 7",
        )
        .unwrap();
        assert_eq!(flags.frames, Some(600));
        assert_eq!(flags.devices, NonZeroUsize::new(4));
        assert_eq!(flags.servers, NonZeroUsize::new(2));
        assert_eq!(flags.seed, Some(7));
        let flags = parse("content_sweep", "--md out.md").unwrap();
        assert_eq!(flags.md.as_deref(), Some("out.md"));
        assert_eq!(parse("fig3_network", ""), Ok(Flags::default()));
    }

    #[test]
    fn an_unknown_flag_is_rejected_by_name() {
        let err = parse("policy_zoo", "--device 4").unwrap_err();
        assert_eq!(err, "unknown flag \"--device\"");
    }

    #[test]
    fn a_flag_the_entry_does_not_take_is_rejected() {
        let err = parse("fig3_network", "--frames 600").unwrap_err();
        assert_eq!(err, "fig3_network does not take --frames");
        let err = parse("policy_zoo", "--md out.md").unwrap_err();
        assert_eq!(err, "policy_zoo does not take --md");
    }

    #[test]
    fn a_flag_without_a_value_is_rejected() {
        let err = parse("policy_zoo", "--frames").unwrap_err();
        assert_eq!(err, "--frames needs a value");
        let err = parse("policy_zoo", "--frames --seed 3").unwrap_err();
        assert_eq!(err, "--frames needs a value");
    }

    #[test]
    fn a_value_that_does_not_parse_is_rejected() {
        let err = parse("policy_zoo", "--frames 6OO").unwrap_err();
        assert!(err.starts_with("--frames \"6OO\": "), "{err}");
        assert!(parse("policy_zoo", "--seed -1").is_err());
        assert!(parse("policy_zoo", "--devices 0").is_err());
        assert!(parse("policy_zoo", "--servers 2.5").is_err());
    }

    #[test]
    fn a_missing_or_unknown_entry_or_a_bad_flag_exits_2() {
        let dir = scratch("usage");
        assert_eq!(report(&[], &dir), 2);
        assert_eq!(report(&args("fig9_nope"), &dir), 2);
        assert_eq!(report(&args("table4_settings --frames 10"), &dir), 2);
        assert!(!dir.exists(), "nothing ran, so nothing was exported");
    }

    #[test]
    fn a_report_exports_its_value_or_exits_1() {
        let dir = scratch("export");
        assert_eq!(report(&args("table4_settings"), &dir), 0);
        let body = std::fs::read_to_string(dir.join("table4_settings.json")).unwrap();
        let rows: Vec<(String, f64)> = serde_json::from_str(&body).unwrap();
        assert_eq!(rows[0], ("K_P".to_string(), 0.2));
        // A directory under a regular file cannot be created.
        let under_a_file = dir.join("table4_settings.json").join("experiments");
        assert!(export_json(&under_a_file, "selftest", &Value::U64(1)).is_err());
        assert_eq!(report(&args("table4_settings"), &under_a_file), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn phases_follow_the_schedule_to_the_run_end() {
        let config = scenario("table6");
        let phases = phases(&config.background, run_end(&config));
        let labels: Vec<String> = phases.iter().map(label).collect();
        let expected = [
            "0-10", "10-20", "20-35", "35-50", "50-60", "60-75", "75-90", "90-100",
        ];
        assert_eq!(labels[..8], expected);
        assert_eq!(phases[8], 100.0..134.0);
    }

    #[test]
    fn docs_quote_only_live_binaries_and_entries() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let docs = [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            "POLICY_ZOO.md",
            "CONTENT_SWEEP.md",
            ".claude/skills/verify/SKILL.md",
            ".github/workflows/ci.yml",
        ];
        // The word after each `marker`, skipping `<placeholder>`s.
        let quoted = |text: &str, marker: &str| -> Vec<String> {
            let after = text
                .match_indices(marker)
                .map(|(i, _)| &text[i + marker.len()..]);
            let words = after.filter_map(|rest| rest.split_whitespace().next());
            let words = words.map(|w| w.trim_end_matches(|c: char| !c.is_alphanumeric()));
            words
                .filter(|w| !w.starts_with('<'))
                .map(String::from)
                .collect()
        };
        for doc in docs {
            let text = std::fs::read_to_string(root.join(doc)).expect(doc);
            for bin in quoted(&text, "--bin ") {
                let live = ["report", "dashboard"].contains(&bin.as_str());
                assert!(live, "{doc} quotes `--bin {bin}`, which is not a binary");
            }
            for name in quoted(&text, "report -- ") {
                assert!(find(&name).is_some(), "{doc} quotes `report -- {name}`");
            }
        }
    }

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
}
