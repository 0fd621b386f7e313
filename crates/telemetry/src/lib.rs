//! `ff-telemetry`: deterministic, low-overhead observability for
//! FrameFeedback hosts.
//!
//! # Architecture
//!
//! ```text
//!  producer threads                 collector (any thread)      sinks
//!  ────────────────                 ──────────────────────      ─────
//!  Recorder::counter ──┐
//!  Recorder::gauge   ──┼─► SPSC ring ─┐
//!  Recorder::latency ──┘  (per        ├─► Telemetry::poll ──► Snapshot ─► JsonlSink
//!                          recorder)  │    fold into             │      ─► ChannelSink
//!  Recorder::log ────────► SPSC ring ─┘    time windows          └─────► TCP export
//! ```
//!
//! * A [`Recorder`] is a per-producer-thread handle: recording is
//!   wait-free, allocation-free, lock-free, and syscall-free (a few
//!   atomic stores into a preallocated ring slot). When the pipeline is
//!   disabled, every record is a single branch.
//! * [`Telemetry::poll`] drains the rings and folds events into
//!   periodic [`Snapshot`]s — windows keyed by the **event timestamps**
//!   (`t_us`), never by wall clock, so in simulation the snapshot
//!   stream is a pure function of the event stream.
//! * Snapshots fan out to pluggable [`Sink`]s: JSONL files, in-process
//!   subscriber channels ([`Telemetry::subscribe`]), and the
//!   line-delimited TCP export endpoint [`TcpExportSink`].
//!
//! # Determinism contract
//!
//! Telemetry never feeds back into the system it observes: recorders do
//! not schedule simulator events, take locks shared with the hot path,
//! or perturb RNG streams. Enabling or disabling telemetry leaves
//! simulation results **bit-identical** — proven by a differential test
//! over a Table V fleet run (`tests/telemetry_inert.rs` at the
//! workspace root).
//!
//! # Backpressure
//!
//! Rings are fixed-capacity and drop-oldest: a producer that outruns
//! collection overwrites its oldest events, and every overwrite is
//! accounted in [`Snapshot::dropped_events`] (never silently lost).
//! Simulation hosts poll synchronously from the producing thread, so
//! they never drop; live hosts size rings via
//! [`TelemetryConfig::ring_capacity`].

mod collect;
mod event;
mod export;
mod log;
mod recorder;
mod ring;
mod sink;

pub use collect::{
    CounterValue, GaugeValue, LatencyValue, LogEntry, ScopeSnapshot, Snapshot,
    SNAPSHOT_SCHEMA_VERSION,
};
pub use event::Metric;
pub use export::TcpExportSink;
pub use log::{Level, LogCode};
pub use recorder::{Recorder, Scope, Telemetry, TelemetryConfig};
pub use sink::{JsonlSink, Sink};

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window_us: u64) -> TelemetryConfig {
        TelemetryConfig {
            window_us,
            ring_capacity: 1 << 10,
        }
    }

    /// Drive a fixed event script through a fresh pipeline and return
    /// every snapshot it emits.
    fn run_script(window_us: u64, poll_every: usize) -> Vec<Snapshot> {
        let telemetry = Telemetry::new(config(window_us));
        let device = telemetry.scope("device/0");
        let server = telemetry.scope("server");
        let rx = telemetry.subscribe().expect("enabled pipeline");
        let mut rec = telemetry.recorder();
        for i in 0..50u64 {
            let t = i * 100_000; // 10 events per 1s window
            rec.counter(device, Metric::FramesOffloaded, 1, t);
            rec.gauge(device, Metric::Po, i as f64 / 50.0, t);
            rec.latency(device, Metric::OffloadLatencyMs, 5.0 + i as f64, t);
            if i % 10 == 0 {
                rec.gauge(server, Metric::ServerQueueDepth, (i / 10) as f64, t);
            }
            if i % 7 == 0 {
                rec.log(device, Level::Warn, LogCode::ChaosDrop, t);
            }
            if ((i + 1) as usize).is_multiple_of(poll_every) {
                telemetry.poll();
            }
        }
        telemetry.finish();
        let mut out = Vec::new();
        while let Ok(s) = rx.try_recv() {
            out.push(s);
        }
        out
    }

    #[test]
    fn snapshots_are_keyed_by_event_time_and_monotone() {
        let snaps = run_script(1_000_000, 3);
        assert_eq!(snaps.len(), 5, "50 events over 5 windows");
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.schema, SNAPSHOT_SCHEMA_VERSION);
            assert_eq!(s.seq, i as u64);
            assert_eq!(s.t_us, (i as u64 + 1) * 1_000_000);
            assert_eq!(s.window_us, 1_000_000);
            assert_eq!(s.dropped_events, 0);
        }
    }

    #[test]
    fn snapshot_stream_is_independent_of_poll_cadence() {
        // Same event script, three very different polling rhythms: the
        // snapshot streams must be identical (determinism contract).
        let a = run_script(1_000_000, 1);
        let b = run_script(1_000_000, 13);
        let c = run_script(1_000_000, 1000); // only the final finish()
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn counters_accumulate_and_gauges_take_last_write() {
        let snaps = run_script(1_000_000, 4);
        let dev = |s: &Snapshot| {
            s.scopes
                .iter()
                .find(|sc| sc.scope == "device/0")
                .cloned()
                .expect("device scope present")
        };
        // Counter is cumulative: 10 frames per window.
        for (i, s) in snaps.iter().enumerate() {
            let d = dev(s);
            assert_eq!(d.counters[0].metric, "frames_offloaded");
            assert_eq!(d.counters[0].value, 10 * (i as u64 + 1));
        }
        // Gauge is the last write in the window: i = 9, 19, ...
        let last = dev(&snaps[4]);
        assert_eq!(last.gauges[0].metric, "po");
        assert!((last.gauges[0].value - 49.0 / 50.0).abs() < 1e-12);
        // Latency histograms are cumulative.
        let h0 = &dev(&snaps[0]).latencies[0].histogram;
        let h4 = &dev(&snaps[4]).latencies[0].histogram;
        assert_eq!(h0.count(), 10);
        assert_eq!(h4.count(), 50);
    }

    #[test]
    fn logs_are_per_window_and_in_order() {
        let snaps = run_script(1_000_000, 6);
        let all_logs: Vec<LogEntry> = snaps
            .iter()
            .flat_map(|s| s.scopes.iter().flat_map(|sc| sc.logs.clone()))
            .collect();
        // i in {0, 7, 14, 21, 28, 35, 42, 49}.
        assert_eq!(all_logs.len(), 8);
        let ts: Vec<u64> = all_logs.iter().map(|l| l.t_us).collect();
        assert_eq!(
            ts,
            vec![0, 700_000, 1_400_000, 2_100_000, 2_800_000, 3_500_000, 4_200_000, 4_900_000]
        );
        for l in &all_logs {
            assert_eq!(l.level, "warn");
            assert_eq!(l.code, "chaos_drop");
        }
        // Per-window, not cumulative: window 0 holds exactly i=0, i=7.
        let w0: usize = snaps[0].scopes.iter().map(|sc| sc.logs.len()).sum();
        assert_eq!(w0, 2);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snaps = run_script(1_000_000, 5);
        for s in &snaps {
            let json = serde_json::to_string(s).unwrap();
            let back: Snapshot = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, s);
        }
    }

    #[test]
    fn disabled_pipeline_is_a_total_noop() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        assert!(telemetry.subscribe().is_none());
        let scope = telemetry.scope("anything");
        let mut rec = telemetry.recorder();
        assert!(!rec.is_enabled());
        rec.counter(scope, Metric::CellsDone, 1, 0);
        rec.gauge(scope, Metric::Po, 0.5, 0);
        rec.latency(scope, Metric::OffloadLatencyMs, 1.0, 0);
        telemetry.poll();
        telemetry.finish();
        assert_eq!(telemetry.events_produced(), 0);
        assert_eq!(telemetry.events_consumed(), 0);
        assert_eq!(telemetry.dropped_events(), 0);
    }

    #[test]
    fn scope_interning_is_idempotent() {
        let telemetry = Telemetry::enabled();
        let a = telemetry.scope("device/1");
        let b = telemetry.scope("device/2");
        let a2 = telemetry.scope("device/1");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn multi_recorder_events_merge_into_one_snapshot_stream() {
        let telemetry = Telemetry::new(config(1_000_000));
        let s0 = telemetry.scope("worker/0");
        let s1 = telemetry.scope("worker/1");
        let rx = telemetry.subscribe().unwrap();
        let mut r0 = telemetry.recorder();
        let mut r1 = telemetry.recorder();
        r0.counter(s0, Metric::CellsDone, 3, 10);
        r1.counter(s1, Metric::CellsDone, 4, 20);
        telemetry.finish();
        let snap = rx.try_recv().unwrap();
        assert_eq!(snap.scopes.len(), 2);
        assert_eq!(snap.scopes[0].scope, "worker/0");
        assert_eq!(snap.scopes[0].counters[0].value, 3);
        assert_eq!(snap.scopes[1].scope, "worker/1");
        assert_eq!(snap.scopes[1].counters[0].value, 4);
        assert_eq!(telemetry.events_consumed(), 2);
        assert_eq!(telemetry.events_produced(), 2);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_snapshot() {
        let dir = std::env::temp_dir().join("ff-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("snap-{}.jsonl", std::process::id()));
        {
            let telemetry = Telemetry::new(config(1_000_000));
            let scope = telemetry.scope("device/0");
            telemetry.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
            let mut rec = telemetry.recorder();
            for i in 0..30u64 {
                rec.counter(scope, Metric::FramesLocal, 1, i * 100_000);
            }
            telemetry.finish();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "3s of events in 1s windows");
        for line in &lines {
            let snap: Snapshot = serde_json::from_str(line).unwrap();
            assert_eq!(snap.schema, SNAPSHOT_SCHEMA_VERSION);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_accounting_surfaces_in_snapshots() {
        // A tiny ring with no polling in between: the producer laps the
        // consumer, and the final snapshot owns up to it.
        let telemetry = Telemetry::new(TelemetryConfig {
            window_us: 1_000_000,
            ring_capacity: 8,
        });
        let scope = telemetry.scope("device/0");
        let rx = telemetry.subscribe().unwrap();
        let mut rec = telemetry.recorder();
        for i in 0..100u64 {
            rec.counter(scope, Metric::FramesLocal, 1, i);
        }
        telemetry.finish();
        let snap = rx.try_recv().unwrap();
        assert_eq!(snap.dropped_events, 92, "ring of 8 keeps the newest 8");
        assert_eq!(snap.scopes[0].counters[0].value, 8);
        assert_eq!(
            telemetry.events_consumed() + telemetry.dropped_events(),
            telemetry.events_produced()
        );
    }
}
