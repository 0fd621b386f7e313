//! `ff-bench dashboard` — live terminal fleet view over telemetry export.
//!
//! Four modes, sharing one renderer (`ff_bench::Dashboard`):
//!
//! - **default**: run a Table V fleet simulation in-process with the
//!   telemetry pipeline enabled, serve the snapshot stream on an
//!   ephemeral TCP port (`ff_live::TcpExportSink`), connect back to it
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

use ff_bench::{fleet, pi_fleet, Dashboard};
use ff_device::{run_fleet, ControllerSpec, FleetConfig, FleetResult};
use ff_live::TcpExportSink;
use ff_server::{ServerSpec, TierConfig};
use ff_telemetry::{JsonlSink, Snapshot, Telemetry, TelemetryConfig};
use ff_workload::table_v;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

struct Options {
    devices: usize,
    servers: usize,
    frames: u64,
    seed: u64,
    window_us: u64,
    mode: Mode,
}

enum Mode {
    SelfServe,
    Connect(String),
    Serve(String),
    Headless(String),
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let mode = if let Some(addr) = flag("--connect") {
        Mode::Connect(addr)
    } else if let Some(addr) = flag("--serve") {
        Mode::Serve(addr)
    } else if let Some(path) = flag("--headless") {
        Mode::Headless(path)
    } else {
        Mode::SelfServe
    };
    Options {
        devices: flag("--devices").map_or(3, |v| v.parse().expect("--devices N")),
        servers: flag("--servers").map_or(1, |v| v.parse().expect("--servers N")),
        frames: flag("--frames").map_or(900, |v| v.parse().expect("--frames N")),
        seed: flag("--seed").map_or(42, |v| v.parse().expect("--seed N")),
        window_us: flag("--window-us").map_or(1_000_000, |v| v.parse().expect("--window-us N")),
        mode,
    }
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

fn main() {
    let opts = parse_args();
    let telemetry = Telemetry::new(TelemetryConfig {
        window_us: opts.window_us,
        ..Default::default()
    });

    match &opts.mode {
        Mode::Connect(addr) => {
            let stream = TcpStream::connect(addr).expect("connect to exporter");
            render_from(stream);
        }
        Mode::SelfServe => {
            let sink = TcpExportSink::bind("127.0.0.1:0").expect("bind export port");
            let addr = sink.addr();
            eprintln!("serving telemetry on {addr}");
            // Subscribe before the sim emits its first snapshot.
            let stream = TcpStream::connect(addr).expect("self-connect");
            while sink.client_count() == 0 {
                thread::sleep(Duration::from_millis(5));
            }
            telemetry.add_sink(Box::new(sink));
            let sim = spawn_fleet(&opts, &telemetry);
            let renderer = thread::spawn(move || render_from(stream));
            let result = sim.join().expect("fleet sim");
            // Dropping the last pipeline handle drops the export sink,
            // closing the stream; the renderer exits on EOF.
            drop(telemetry);
            renderer.join().expect("renderer");
            print_summary(&result);
        }
        Mode::Serve(addr) => {
            let sink = TcpExportSink::bind(addr).expect("bind export port");
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
            let sim = spawn_fleet(&opts, &telemetry);
            print_summary(&sim.join().expect("fleet sim"));
        }
        Mode::Headless(path) => {
            let sink = JsonlSink::create(path).expect("create snapshot JSONL file");
            telemetry.add_sink(Box::new(sink));
            let result = spawn_fleet(&opts, &telemetry).join().expect("fleet sim");
            println!(
                "{}",
                serde_json::to_string(&result).expect("serialize fleet result")
            );
        }
    }
}
