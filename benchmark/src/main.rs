//! The repository's benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark all [--seed N] [--seconds S] [--traced] [--smoke]
//! benchmark aa  [--n N] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, the JSON object the driver reads. `all` and `aa` run that
//! form once per workload in child processes, so each workload's peak
//! memory is its own.

mod catalog;
mod host;
mod layers;
mod loadgen;
mod multi;
mod run;
mod span;
mod stats;
mod workloads;

use catalog::{END_TO_END, PER_LAYER};
use layers::{LayerMetric, Suite};
use run::{run_reps, summarize, Summary};
use serde::Value;
use span::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{
    served_tier, FleetWorkload, LiveShape, LiveWorkload, SweepWorkload, Workload, NAMES,
};

/// `run_seconds` of `BENCHMARK.json`: the run length the repetition
/// counts below are sized for, on the 2-core reference host.
const NOMINAL_SECONDS: u64 = 25;

/// Repetitions per workload at [`NOMINAL_SECONDS`], warm-up included, in
/// [`NAMES`] order. Fixed work, never a deadline: `--seconds` scales the
/// count before the run starts and nothing is cut short by the clock.
const NOMINAL_REPS: [u64; 4] = [32, 12, 40, 22];

/// Sizes of everything a run executes.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// `fleet-served-1k`: devices, frames per device.
    pub served: (usize, u64),
    /// `fleet-cold-100k-x2`: devices, frames per device.
    pub cold: (usize, u64),
    /// `sweep-paper-grid`: seeds, frames per cell.
    pub sweep: (u64, u64),
    /// `live-capacity-frame`: connections, window, payload, phases.
    pub live: LiveShape,
    /// The traced run's reactor drives: as `live`, with phases long
    /// enough for a p99 and for the open-loop schedule to settle.
    pub probe: LiveShape,
    /// Length of the traced run's paced 64-device fleet, seconds.
    pub paced_secs: u64,
}

impl Shapes {
    /// The shapes `BENCHMARK.json`'s workloads name.
    fn full(seconds: u64) -> Shapes {
        let live = LiveShape {
            conns: 64,
            window: 4,
            payload: 25_000,
            ramp: Duration::from_millis(250),
            measure: Duration::from_millis(750),
        };
        Shapes {
            served: (1_024, 1_000),
            cold: (102_400, 60),
            sweep: (32, 4_000),
            live,
            probe: LiveShape {
                measure: Duration::from_millis(1_000),
                ..live
            },
            paced_secs: (seconds / 6).clamp(2, 10),
        }
    }

    /// The same code paths at a size where a workload ends in two
    /// seconds; for a quick correctness pass, never for numbers.
    fn smoke() -> Shapes {
        let live = LiveShape {
            conns: 16,
            window: 4,
            payload: 25_000,
            ramp: Duration::from_millis(100),
            measure: Duration::from_millis(300),
        };
        Shapes {
            served: (1_024, 60),
            cold: (10_240, 60),
            sweep: (4, 1_000),
            live,
            probe: live,
            paced_secs: 2,
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Index into [`NAMES`].
    pub workload: usize,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Requested run length; scales the repetition count.
    pub seconds: u64,
    /// Record spans and measure the layers.
    pub trace: bool,
    /// Tiny shapes, three repetitions.
    pub smoke: bool,
}

impl Plan {
    fn shapes(&self) -> Shapes {
        if self.smoke {
            Shapes::smoke()
        } else {
            Shapes::full(self.seconds)
        }
    }

    /// Repetitions of this run, warm-up included.
    fn reps(&self) -> usize {
        if self.smoke {
            return 3;
        }
        let nominal = NOMINAL_REPS[self.workload];
        let scaled = (nominal * self.seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
        // A traced run spends most of its time in the layer suite; its
        // repetitions only feed the spans and the `host.*` figures.
        let reps = if self.trace {
            scaled.div_ceil(5)
        } else {
            scaled
        };
        reps.max(3) as usize
    }
}

/// Where the traced run writes its spans.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Report {
    summary: Summary,
    peak_rss_mb: f64,
    layers: Vec<LayerMetric>,
    notes: Vec<String>,
    spans: Spans,
    measured_s: f64,
}

fn execute(plan: &Plan) -> Report {
    let shapes = plan.shapes();
    let reps = plan.reps();
    let mut spans = Spans::new(plan.trace);
    let run = spans.open(None, "run");
    let started = Instant::now();

    fn go<W: Workload>(w: W, reps: usize, spans: &mut Spans, run: span::SpanId) -> Summary {
        summarize(&run_reps(&w, reps, spans, run), W::FIXED_WORK)
    }
    let seed = plan.seed;
    let summary = match plan.workload {
        0 => go(
            FleetWorkload {
                seed,
                devices: shapes.served.0,
                frames: shapes.served.1,
                tier: Some(served_tier()),
                shards: 1,
            },
            reps,
            &mut spans,
            run,
        ),
        1 => go(
            FleetWorkload {
                seed,
                devices: shapes.cold.0,
                frames: shapes.cold.1,
                tier: None,
                shards: 2,
            },
            reps,
            &mut spans,
            run,
        ),
        2 => go(
            SweepWorkload::new(seed, shapes.sweep.0, shapes.sweep.1),
            reps,
            &mut spans,
            run,
        ),
        3 => go(
            LiveWorkload {
                seed,
                shape: shapes.live,
            },
            reps,
            &mut spans,
            run,
        ),
        _ => unreachable!("the workload index was checked when parsed"),
    };
    let measured_s = started.elapsed().as_secs_f64();
    // Read before the layer suite runs its own fleets in this process.
    let peak_rss_mb = host::peak_rss_mb();

    let (mut layers, mut notes) = (Vec::new(), Vec::new());
    if plan.trace {
        let mut suite = Suite::new(&mut spans, run);
        layers::run_all(&mut suite, seed, &shapes);
        for (name, value) in [
            ("host.rep_median_ms", summary.rep_median_ms),
            ("host.rep_iqr_share", summary.rep_iqr_share),
            ("host.first_rep_penalty_ms", summary.first_rep_penalty_ms),
            ("host.trace_overhead_share", summary.trace_overhead_share),
            ("host.cores", host::cores() as f64),
        ] {
            suite.put(name, value);
        }
        (layers, notes) = (suite.metrics, suite.notes);
    }
    spans.close(run, summary.attempted);
    Report {
        summary,
        peak_rss_mb,
        layers,
        notes,
        spans,
        measured_s,
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn end_to_end_values(r: &Report) -> [f64; 8] {
    let s = &r.summary;
    [
        s.setup_s,
        s.frames_per_s,
        s.cpu_us_per_frame,
        r.peak_rss_mb,
        s.device_goodput_fps,
        s.deadline_hit_share,
        s.completed_share,
        f64::from(u8::from(s.result_identical)),
    ]
}

/// Run one workload and print its report; the driver's entry point.
fn run_one(plan: &Plan) -> ExitCode {
    let name = NAMES[plan.workload];
    let cores = host::cores();
    println!(
        "workload {name}  seed {}  repetitions {} (1 warm-up)  {}",
        plan.seed,
        plan.reps(),
        if plan.trace { "traced" } else { "untraced" }
    );
    println!("host_cores {cores}");
    if cores < 2 {
        println!("warning: fewer than 2 cores; the 2-thread workloads are serialised");
    }
    if plan.workload == 3 {
        println!("traffic crosses the host's loopback interface only; no real link is measured");
        let live = plan.shapes().live;
        println!(
            "arrivals: closed loop, {} connections x {} outstanding requests of {} bytes, one client thread",
            live.conns, live.window, live.payload
        );
    }

    let r = execute(plan);
    let s = &r.summary;
    println!(
        "measured section {:.1} s over {} repetitions",
        r.measured_s,
        plan.reps()
    );
    match s.hash {
        Some(h) => println!("result_hash {h:016x}  events_per_repetition {}", s.events),
        None => println!("result_hash none (wall-clock workload; conservation is checked instead)"),
    }
    println!(
        "repetition median {:.2} ms  iqr/median {:.4}  warm-up penalty {:.2} ms",
        s.rep_median_ms, s.rep_iqr_share, s.first_rep_penalty_ms
    );

    let rep_ms: Vec<String> = s.rep_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    println!("repetition ms, in run order: {}", rep_ms.join(" "));

    let mut metrics = Vec::new();
    if plan.trace {
        let mut missing: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        for m in &r.layers {
            println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
            metrics.push((m.name.to_string(), metric(m.value, m.unit)));
            missing.retain(|n| *n != m.name);
        }
        assert!(
            missing.is_empty(),
            "layer metrics not measured: {missing:?}"
        );
        for note in &r.notes {
            println!("note: {note}");
        }
        match write_trace(plan, &metrics, &r.spans) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => println!("warning: spans not written: {e}"),
        }
    } else {
        for (&(name, unit, ..), value) in END_TO_END.iter().zip(end_to_end_values(&r)) {
            println!("{name:<40} {value:>16.6} {unit}");
            metrics.push((name.to_string(), metric(value, unit)));
        }
    }

    let correct = s.result_identical && s.failed == 0;
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(s.attempted)),
        ("failed".into(), Value::U64(s.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("a value tree serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{name}: outputs are wrong (identical {}, failed {})",
            s.result_identical, s.failed
        );
        ExitCode::FAILURE
    }
}

fn write_trace(
    plan: &Plan,
    per_layer: &[(String, Value)],
    spans: &Spans,
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", NAMES[plan.workload], plan.seed));
    let doc = Value::Obj(vec![
        ("workload".into(), Value::Str(NAMES[plan.workload].into())),
        ("seed".into(), Value::U64(plan.seed)),
        ("per_layer".into(), Value::Obj(per_layer.to_vec())),
        ("spans".into(), spans.to_json()),
    ]);
    let body = serde_json::to_string(&doc).expect("a value tree serializes");
    std::fs::write(&path, body)?;
    Ok(path)
}

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  benchmark all [--seed N] [--seconds S] [--traced] [--smoke]
  benchmark aa  [--n N] [--seed N] [--seconds S] [--smoke]
workloads: fleet-served-1k fleet-cold-100k-x2 sweep-paper-grid live-capacity-frame";

/// Parsed command line.
struct Args {
    mode: Option<String>,
    workload: Option<usize>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    n: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        mode: None,
        workload: None,
        seed: 42,
        seconds: NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        n: 5,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg}: {text:?} is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let at = NAMES.iter().position(|n| *n == name);
                out.workload = Some(at.ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => out.seed = number(value("a number")?)?,
            "--seconds" => out.seconds = number(value("a number")?)?.clamp(1, 60),
            "--trace" => out.trace = number(value("0 or 1")?)? != 0,
            "--n" => out.n = number(value("a number")?)?.max(2) as usize,
            "--traced" => out.trace = true,
            "--smoke" => out.smoke = true,
            "all" | "aa" if out.mode.is_none() => out.mode = Some(arg.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.mode.as_deref(), args.workload) {
        (None, Some(workload)) => run_one(&Plan {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
        }),
        (Some("all"), None) => multi::all(args.seed, args.seconds, args.trace, args.smoke),
        (Some("aa"), None) => multi::aa(args.n, args.seed, args.seconds, args.smoke),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workload: usize, seconds: u64, trace: bool, smoke: bool) -> Plan {
        Plan {
            workload,
            seed: 1,
            seconds,
            trace,
            smoke,
        }
    }

    #[test]
    fn repetitions_scale_with_seconds_and_never_drop_below_three() {
        assert_eq!(plan(0, 25, false, false).reps(), 32);
        assert_eq!(plan(0, 50, false, false).reps(), 64);
        assert_eq!(plan(1, 25, false, false).reps(), 12);
        assert_eq!(plan(3, 1, false, false).reps(), 3);
        assert_eq!(plan(0, 25, true, false).reps(), 7);
        assert_eq!(plan(1, 25, true, false).reps(), 3);
        assert_eq!(plan(2, 25, false, true).reps(), 3);
    }

    #[test]
    fn the_command_line_of_the_driver_parses() {
        let argv: Vec<String> = "--workload sweep-paper-grid --seed 7 --seconds 25 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse(&argv).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(2), 7, 25, true)
        );
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--seed".into()]).is_err());
        assert!(parse(&["--frobnicate".into()]).is_err());
    }
}
