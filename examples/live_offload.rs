//! Live mode: the same FrameFeedback controller, but over a **real TCP
//! connection in real time** — a local edge server with adaptive
//! batching, a paced 30 fps capture loop on a 10 Mbps emulated uplink,
//! and a server that starts answering past the deadline halfway through
//! the run.
//!
//! This example runs for ~21 wall-clock seconds.
//!
//! ```sh
//! cargo run --release --example live_offload
//! ```

use framefeedback::controller::FrameFeedback;
use framefeedback::reactor::{
    run_reactor_device, FleetClientConfig, NetworkConditions, ReactorDeviceConfig, ReactorServer,
    ReactorServerConfig,
};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

fn main() {
    let server = ReactorServer::start("127.0.0.1:0", ReactorServerConfig::default())
        .expect("bind loopback server");
    println!("edge server listening on {}", server.addr());

    // After 10 seconds every reply is held for 300 ms, past the 250 ms
    // deadline: the path has degraded and no offload can succeed.
    {
        let chaos = server.chaos();
        thread::spawn(move || {
            thread::sleep(Duration::from_secs(10));
            println!(">>> replies now stall 300 ms, past the deadline");
            chaos.set_stall(1.0, Duration::from_millis(300));
        });
    }

    let config = FleetClientConfig {
        device: ReactorDeviceConfig {
            fs: 30.0,
            duration: Duration::from_secs(20),
            deadline: Duration::from_millis(250),
            frame_bytes: 25_000,
            local_rate_fps: 13.0,
            tick: Duration::from_secs(1),
            network: NetworkConditions {
                bandwidth_mbps: 10.0,
                loss_pct: 0.0,
            },
            ..ReactorDeviceConfig::default()
        },
        ..FleetClientConfig::default()
    };
    let summary = run_reactor_device(server.addr(), &config, Box::new(FrameFeedback::new()))
        .expect("device session");

    println!("\nper-second control trace:");
    println!(
        "{:>6} {:>7} {:>7} {:>9} {:>7}",
        "t(s)", "P_l", "P_o", "timeouts", "Po*"
    );
    for r in summary.qos.records() {
        println!(
            "{:>6.0} {:>7.1} {:>7.1} {:>9.1} {:>7.1}",
            r.t_secs, r.pl, r.po, r.timeouts, r.po_target
        );
    }

    if let (Some(p50), Some(p95)) = (
        summary.latency_ms.percentile(0.5),
        summary.latency_ms.percentile(0.95),
    ) {
        println!("\noffload latency over TCP: p50 {p50:.0} ms, p95 {p95:.0} ms (deadline 250 ms)");
    }
    println!(
        "frames {}  offloaded {}  local {}  successes {}  timeouts {}  mean P {:.1}",
        summary.frames,
        summary.offloaded,
        summary.local_completed,
        summary.successes,
        summary.timeouts,
        summary.qos.mean_throughput()
    );

    let s = server.stats();
    println!(
        "server: {} requests, {} completions, {} rejections, {} batches, {} stalled replies",
        s.requests.load(Ordering::Relaxed),
        s.completions.load(Ordering::Relaxed),
        s.rejections.load(Ordering::Relaxed),
        s.batches.load(Ordering::Relaxed),
        s.chaos_stalls.load(Ordering::Relaxed),
    );
    server.shutdown();
}
