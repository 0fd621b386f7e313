//! `ff-bench dashboard` — live terminal fleet view over telemetry export.
//!
//! Four modes, sharing one renderer (`ff_bench::Dashboard`):
//!
//! - **default**: run a Table V fleet simulation in-process with the
//!   telemetry pipeline enabled, serve the snapshot stream on an
//!   ephemeral TCP port (`ff_telemetry::TcpExportSink`), connect back to it
//!   like any external client would, and redraw the dashboard per
//!   snapshot line — the full export loop in one command.
//! - `--connect ADDR`: render snapshots from an already-running
//!   exporter (a fleet sim or live server started elsewhere).
//! - `--serve ADDR`: run the fleet sim and serve snapshots on `ADDR`,
//!   waiting up to 30 s for the first subscriber; no local rendering.
//! - `--headless PATH`: run the fleet sim writing snapshots to a JSONL
//!   file and print the final `FleetResult` as JSON on stdout — the CI
//!   schema-check entry point.
//!
//! Shared knobs: `--devices N` (default 3), `--frames N` per device
//! (default 900 = 30 s at 30 fps), `--seed N`, `--window-us N`, and
//! `--servers N` (default 1) to put the fleet behind an N-server tier —
//! the snapshot stream then carries `server/<i>` scopes per server.
//!
//! Flags are parsed strictly (`ff_bench::FlagArgs`): an unknown flag, a
//! flag with no value, a value that does not parse, or two mode flags
//! at once exit 2 and name the flag. An address that cannot be
//! connected to or bound, or a snapshot file that cannot be created,
//! exits 1 and names it.

use ff_bench::{fleet, pi_fleet, Dashboard, FlagArgs};
use ff_device::{run_fleet, ControllerSpec, FleetConfig, FleetResult};
use ff_server::{ServerSpec, TierConfig};
use ff_telemetry::{JsonlSink, Snapshot, TcpExportSink, Telemetry, TelemetryConfig};
use ff_workload::table_v;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: dashboard [--connect ADDR | --serve ADDR | --headless PATH] \
[--devices N] [--frames N] [--seed N] [--window-us N] [--servers N]";

/// Every flag `dashboard` takes; the first three pick the mode.
const FLAGS: [&str; 8] = [
    "--connect",
    "--serve",
    "--headless",
    "--devices",
    "--servers",
    "--frames",
    "--seed",
    "--window-us",
];

#[derive(Debug, PartialEq)]
struct Options {
    devices: usize,
    servers: usize,
    frames: u64,
    seed: u64,
    window_us: u64,
    mode: Mode,
}

#[derive(Debug, PartialEq)]
enum Mode {
    SelfServe,
    Connect(String),
    Serve(String),
    Headless(String),
}

/// Parse the arguments after the program name. Rejects, by name, an
/// unknown flag, a flag with no value, a value that does not parse, and
/// more than one mode flag.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let args = FlagArgs::parse(&FLAGS, args)?;
    let modes: Vec<&str> = FLAGS[..3]
        .iter()
        .copied()
        .filter(|&mode| args.names().any(|f| f == mode))
        .collect();
    if let [a, b, ..] = modes[..] {
        return Err(format!("{a} and {b} exclude each other"));
    }
    let mode = if let Some(addr) = args.value("--connect")? {
        Mode::Connect(addr)
    } else if let Some(addr) = args.value("--serve")? {
        Mode::Serve(addr)
    } else if let Some(path) = args.value("--headless")? {
        Mode::Headless(path)
    } else {
        Mode::SelfServe
    };
    Ok(Options {
        devices: args.value("--devices")?.unwrap_or(3),
        servers: args.value("--servers")?.unwrap_or(1),
        frames: args.value("--frames")?.unwrap_or(900),
        seed: args.value("--seed")?.unwrap_or(42),
        window_us: args.value("--window-us")?.unwrap_or(1_000_000),
        mode,
    })
}

fn fleet_config(opts: &Options, telemetry: Telemetry) -> FleetConfig {
    let mut c = FleetConfig::default();
    c.seed = opts.seed;
    c.devices = pi_fleet(opts.devices);
    c.stream.total_frames = opts.frames;
    c.network = table_v();
    // N=1 keeps the legacy single-server path (bit-identical by the
    // tier determinism contract); N>1 shards devices across the tier.
    if opts.servers > 1 {
        c.tier = Some(TierConfig::uniform(opts.servers, ServerSpec::default()));
    }
    c.telemetry = telemetry;
    c
}

/// Run the fleet sim on a background thread; the caller consumes the
/// snapshot stream while it runs. `finish()` closes the last window.
fn spawn_fleet(opts: &Options, telemetry: &Telemetry) -> thread::JoinHandle<FleetResult> {
    let config = fleet_config(opts, telemetry.clone());
    let telemetry = telemetry.clone();
    let n = config.devices.len();
    thread::spawn(move || {
        let controllers = fleet(n, 0).iter().map(ControllerSpec::build).collect();
        let result = run_fleet(config, controllers);
        telemetry.finish();
        result
    })
}

fn print_summary(result: &FleetResult) {
    println!(
        "fleet done: total mean P = {:.1} frames/s over {} devices, {} events",
        result.total_mean_throughput,
        result.devices.len(),
        result.events_handled,
    );
}

/// Render every snapshot line arriving on `stream` until EOF.
fn render_from(stream: TcpStream) {
    let mut dashboard = Dashboard::new();
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let Ok(snapshot) = serde_json::from_str::<Snapshot>(&line) else {
            continue;
        };
        dashboard.ingest(snapshot);
        // Full redraw: clear screen, home cursor.
        print!("\x1b[2J\x1b[H{}", dashboard.render());
    }
    println!(
        "\nstream closed after {} snapshots",
        dashboard.snapshots_seen()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("{e}");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Run the mode `opts` picks. An address that cannot be connected to or
/// bound, or a snapshot file that cannot be created, is an error naming
/// it.
fn run(opts: &Options) -> Result<(), String> {
    let telemetry = Telemetry::new(TelemetryConfig {
        window_us: opts.window_us,
        ..Default::default()
    });
    let bind = |addr: &str| TcpExportSink::bind(addr).map_err(|e| format!("bind {addr}: {e}"));
    match &opts.mode {
        Mode::Connect(addr) => {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
            render_from(stream);
        }
        Mode::SelfServe => {
            let sink = bind("127.0.0.1:0")?;
            let addr = sink.addr();
            eprintln!("serving telemetry on {addr}");
            // Subscribe before the sim emits its first snapshot.
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
            while sink.client_count() == 0 {
                thread::sleep(Duration::from_millis(5));
            }
            telemetry.add_sink(Box::new(sink));
            let sim = spawn_fleet(opts, &telemetry);
            let renderer = thread::spawn(move || render_from(stream));
            let result = sim.join().expect("fleet sim");
            // Dropping the last pipeline handle drops the export sink,
            // closing the stream; the renderer exits on EOF.
            drop(telemetry);
            renderer.join().expect("renderer");
            print_summary(&result);
        }
        Mode::Serve(addr) => {
            let sink = bind(addr)?;
            println!("serving telemetry on {}", sink.addr());
            let wait_started = Instant::now();
            while sink.client_count() == 0 {
                if wait_started.elapsed() > Duration::from_secs(30) {
                    eprintln!("no subscriber within 30s; running anyway");
                    break;
                }
                thread::sleep(Duration::from_millis(20));
            }
            telemetry.add_sink(Box::new(sink));
            let sim = spawn_fleet(opts, &telemetry);
            print_summary(&sim.join().expect("fleet sim"));
        }
        Mode::Headless(path) => {
            let sink = JsonlSink::create(path).map_err(|e| format!("create {path}: {e}"))?;
            telemetry.add_sink(Box::new(sink));
            let result = spawn_fleet(opts, &telemetry).join().expect("fleet sim");
            println!(
                "{}",
                serde_json::to_string(&result).expect("serialize fleet result")
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn flags_parse_into_their_types_and_defaults_hold() {
        let opts = parse("--headless x.jsonl --frames 60 --devices 2 --servers 3").unwrap();
        assert_eq!(
            opts,
            Options {
                devices: 2,
                servers: 3,
                frames: 60,
                seed: 42,
                window_us: 1_000_000,
                mode: Mode::Headless("x.jsonl".into()),
            }
        );
        let opts = parse("").unwrap();
        assert_eq!((opts.devices, opts.frames), (3, 900));
        assert_eq!(opts.mode, Mode::SelfServe);
        assert_eq!(
            parse("--connect 127.0.0.1:9000").unwrap().mode,
            Mode::Connect("127.0.0.1:9000".into())
        );
    }

    #[test]
    fn an_unknown_flag_is_rejected_by_name() {
        let err = parse("--headless x.jsonl --frames 60 --devise 2").unwrap_err();
        assert_eq!(err, "unknown flag \"--devise\"");
    }

    #[test]
    fn a_flag_without_a_value_is_rejected() {
        assert_eq!(parse("--frames").unwrap_err(), "--frames needs a value");
        assert_eq!(
            parse("--headless --frames 60").unwrap_err(),
            "--headless needs a value"
        );
    }

    #[test]
    fn a_value_that_does_not_parse_is_rejected() {
        let err = parse("--devices three").unwrap_err();
        assert!(err.starts_with("--devices \"three\": "), "{err}");
        assert!(parse("--seed -1").is_err());
        assert!(parse("--window-us 1.5").is_err());
    }

    #[test]
    fn two_modes_at_once_are_rejected() {
        let err = parse("--serve 127.0.0.1:0 --headless x.jsonl").unwrap_err();
        assert_eq!(err, "--serve and --headless exclude each other");
        let err = parse("--headless x.jsonl --connect a:1 --serve b:2").unwrap_err();
        assert_eq!(err, "--connect and --serve exclude each other");
    }
}
