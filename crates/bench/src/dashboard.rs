//! Terminal fleet dashboard: pure rendering over telemetry snapshots.
//!
//! [`Dashboard`] folds a stream of `ff_telemetry::Snapshot`s — from an
//! in-process subscriber channel, a JSONL file, or the telemetry TCP
//! export — into a live terminal view: a per-device QoS table, server
//! and engine counters, trend charts (via `ff_metrics::chart`), and the
//! most recent log events. It performs no I/O and holds no clock; the
//! `ff-bench dashboard` binary owns transport and redraw pacing, which
//! keeps this module deterministic and snapshot-testable.

use ff_metrics::{render_chart, ChartConfig, ChartSeries};
use ff_telemetry::Snapshot;
use std::collections::VecDeque;

/// How many recent log lines the dashboard retains.
const LOG_LINES: usize = 6;

/// How many trend points each chart series retains (oldest dropped).
const TREND_POINTS: usize = 512;

/// Accumulated dashboard state. Feed it snapshots with
/// [`ingest`](Dashboard::ingest); draw it with [`render`](Dashboard::render).
#[derive(Debug, Default)]
pub struct Dashboard {
    last: Option<Snapshot>,
    /// `(t_secs, Σ po)` across device scopes.
    po_total: VecDeque<(f64, f64)>,
    /// `(t_secs, Σ pl)` across device scopes.
    pl_total: VecDeque<(f64, f64)>,
    /// `(t_secs, Σ timeout rate)` across device scopes.
    timeout_total: VecDeque<(f64, f64)>,
    /// `(t_secs, server queue depth)`.
    queue_depth: VecDeque<(f64, f64)>,
    /// Most recent log events, formatted.
    logs: VecDeque<String>,
    snapshots_seen: u64,
}

fn is_device_scope(scope: &str) -> bool {
    scope.starts_with("device/") || scope == "live/device"
}

fn gauge(snapshot: &Snapshot, scope: &str, metric: &str) -> Option<f64> {
    snapshot
        .scopes
        .iter()
        .find(|s| s.scope == scope)?
        .gauges
        .iter()
        .find(|g| g.metric == metric)
        .map(|g| g.value)
}

fn counter(snapshot: &Snapshot, scope: &str, metric: &str) -> Option<u64> {
    snapshot
        .scopes
        .iter()
        .find(|s| s.scope == scope)?
        .counters
        .iter()
        .find(|c| c.metric == metric)
        .map(|c| c.value)
}

fn push_trend(series: &mut VecDeque<(f64, f64)>, point: (f64, f64)) {
    if series.len() == TREND_POINTS {
        series.pop_front();
    }
    series.push_back(point);
}

impl Dashboard {
    /// An empty dashboard.
    pub fn new() -> Dashboard {
        Dashboard::default()
    }

    /// How many snapshots have been folded in.
    pub fn snapshots_seen(&self) -> u64 {
        self.snapshots_seen
    }

    /// Fold one snapshot into the view state.
    pub fn ingest(&mut self, snapshot: Snapshot) {
        self.snapshots_seen += 1;
        let t_secs = snapshot.t_us as f64 / 1e6;

        let (mut po, mut pl, mut timeouts) = (0.0, 0.0, 0.0);
        let mut any_device = false;
        for s in snapshot.scopes.iter().filter(|s| is_device_scope(&s.scope)) {
            for g in &s.gauges {
                match g.metric.as_str() {
                    "po" => {
                        po += g.value;
                        any_device = true;
                    }
                    "pl" => pl += g.value,
                    "timeout_rate" => timeouts += g.value,
                    _ => {}
                }
            }
        }
        if any_device {
            push_trend(&mut self.po_total, (t_secs, po));
            push_trend(&mut self.pl_total, (t_secs, pl));
            push_trend(&mut self.timeout_total, (t_secs, timeouts));
        }
        for server_scope in ["server", "live/server"] {
            if let Some(depth) = gauge(&snapshot, server_scope, "server_queue_depth") {
                push_trend(&mut self.queue_depth, (t_secs, depth));
            }
        }

        for s in &snapshot.scopes {
            for log in &s.logs {
                let line = format!(
                    "[{:>8.2}s {:<5}] {:<12} {}",
                    log.t_us as f64 / 1e6,
                    log.level,
                    s.scope,
                    log.code
                );
                if self.logs.len() == LOG_LINES {
                    self.logs.pop_front();
                }
                self.logs.push_back(line);
            }
        }

        self.last = Some(snapshot);
    }

    /// Render the current state as a multi-line terminal view.
    pub fn render(&self) -> String {
        let Some(last) = &self.last else {
            return String::from("ff fleet dashboard — waiting for snapshots...\n");
        };
        let mut out = String::new();
        out.push_str(&format!(
            "ff fleet dashboard — t={:.1}s  snapshot #{} (seq {})  dropped_events={}\n\n",
            last.t_us as f64 / 1e6,
            self.snapshots_seen,
            last.seq,
            last.dropped_events,
        ));

        // Per-device QoS table from the latest snapshot's gauges.
        out.push_str(&format!(
            "{:<14} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9}\n",
            "device", "P_o", "P_l", "T", "Po*", "in-flight", "offloaded"
        ));
        for s in last.scopes.iter().filter(|s| is_device_scope(&s.scope)) {
            let g = |metric: &str| gauge(last, &s.scope, metric).unwrap_or(f64::NAN);
            let offloaded = counter(last, &s.scope, "frames_offloaded").unwrap_or(0);
            out.push_str(&format!(
                "{:<14} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>9.0} {:>9}\n",
                s.scope,
                g("po"),
                g("pl"),
                g("timeout_rate"),
                g("po_target"),
                g("in_flight"),
                offloaded,
            ));
        }

        // Server and engine lines (whichever scopes are present).
        for server_scope in ["server", "live/server"] {
            if let Some(depth) = gauge(last, server_scope, "server_queue_depth") {
                let c = |metric: &str| counter(last, server_scope, metric).unwrap_or(0);
                out.push_str(&format!(
                    "\n{:<14} queue={:<4.0} batch={:<4.0} requests={} completions={} \
                     rejections={} batches={}\n",
                    server_scope,
                    depth,
                    gauge(last, server_scope, "batch_occupancy").unwrap_or(0.0),
                    c("server_requests"),
                    c("server_completions"),
                    c("server_rejections"),
                    c("server_batches"),
                ));
                let chaos = c("chaos_drops") + c("chaos_disconnects") + c("chaos_stalls");
                if chaos > 0 {
                    out.push_str(&format!(
                        "{:<14} chaos: drops={} disconnects={} stalls={}\n",
                        "",
                        c("chaos_drops"),
                        c("chaos_disconnects"),
                        c("chaos_stalls"),
                    ));
                }
            }
        }
        if let Some(events) = gauge(last, "engine", "events_handled") {
            out.push_str(&format!(
                "{:<14} events={:.0} pending={:.0}\n",
                "engine",
                events,
                gauge(last, "engine", "pending_events").unwrap_or(0.0),
            ));
        }

        // Trend charts.
        if self.po_total.len() >= 2 {
            let po: Vec<(f64, f64)> = self.po_total.iter().copied().collect();
            let pl: Vec<(f64, f64)> = self.pl_total.iter().copied().collect();
            let timeouts: Vec<(f64, f64)> = self.timeout_total.iter().copied().collect();
            out.push('\n');
            out.push_str(&render_chart(
                &ChartConfig {
                    height: 10,
                    y_label: "fleet rates (frames/s)",
                    x_label: "t (s)",
                    ..Default::default()
                },
                &[
                    ChartSeries {
                        label: "sum P_o",
                        symbol: 'o',
                        points: &po,
                    },
                    ChartSeries {
                        label: "sum P_l",
                        symbol: 'l',
                        points: &pl,
                    },
                    ChartSeries {
                        label: "sum T",
                        symbol: 't',
                        points: &timeouts,
                    },
                ],
            ));
        }
        if self.queue_depth.len() >= 2 {
            let depth: Vec<(f64, f64)> = self.queue_depth.iter().copied().collect();
            out.push('\n');
            out.push_str(&render_chart(
                &ChartConfig {
                    height: 8,
                    y_label: "server queue depth (frames)",
                    x_label: "t (s)",
                    ..Default::default()
                },
                &[ChartSeries {
                    label: "queue",
                    symbol: 'q',
                    points: &depth,
                }],
            ));
        }

        if !self.logs.is_empty() {
            out.push_str("\nrecent events:\n");
            for line in &self.logs {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_telemetry::{
        CounterValue, GaugeValue, LogEntry, ScopeSnapshot, Snapshot, SNAPSHOT_SCHEMA_VERSION,
    };

    fn device_scope(name: &str, po: f64, pl: f64) -> ScopeSnapshot {
        ScopeSnapshot {
            scope: name.to_string(),
            counters: vec![CounterValue {
                metric: "frames_offloaded".into(),
                value: 17,
            }],
            gauges: vec![
                GaugeValue {
                    metric: "po".into(),
                    value: po,
                },
                GaugeValue {
                    metric: "pl".into(),
                    value: pl,
                },
                GaugeValue {
                    metric: "timeout_rate".into(),
                    value: 0.5,
                },
                GaugeValue {
                    metric: "po_target".into(),
                    value: po + 1.0,
                },
                GaugeValue {
                    metric: "in_flight".into(),
                    value: 3.0,
                },
            ],
            latencies: vec![],
            logs: vec![],
        }
    }

    fn snapshot(seq: u64, t_us: u64) -> Snapshot {
        Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            seq,
            t_us,
            window_us: 1_000_000,
            dropped_events: 0,
            scopes: vec![
                device_scope("device/0", 12.0, 9.0),
                device_scope("device/1", 8.0, 10.0),
                ScopeSnapshot {
                    scope: "server".into(),
                    counters: vec![CounterValue {
                        metric: "server_requests".into(),
                        value: 40 * (seq + 1),
                    }],
                    gauges: vec![GaugeValue {
                        metric: "server_queue_depth".into(),
                        value: 4.0 + seq as f64,
                    }],
                    latencies: vec![],
                    logs: vec![LogEntry {
                        t_us: t_us.saturating_sub(1),
                        level: "warn".into(),
                        code: "chaos_drop".into(),
                    }],
                },
            ],
        }
    }

    #[test]
    fn empty_dashboard_renders_a_waiting_banner() {
        let d = Dashboard::new();
        assert!(d.render().contains("waiting for snapshots"));
    }

    #[test]
    fn renders_device_table_server_line_and_logs() {
        let mut d = Dashboard::new();
        d.ingest(snapshot(0, 1_000_000));
        let view = d.render();
        assert!(view.contains("device/0"));
        assert!(view.contains("device/1"));
        assert!(view.contains("queue=4"));
        assert!(view.contains("chaos_drop"));
        // One snapshot: no trend chart yet.
        assert!(!view.contains("fleet rates"));
    }

    #[test]
    fn charts_appear_once_a_trend_exists() {
        let mut d = Dashboard::new();
        for seq in 0..5 {
            d.ingest(snapshot(seq, (seq + 1) * 1_000_000));
        }
        let view = d.render();
        assert_eq!(d.snapshots_seen(), 5);
        assert!(view.contains("fleet rates (frames/s)"));
        assert!(view.contains("server queue depth (frames)"));
        assert!(view.contains("o=sum P_o"));
    }

    #[test]
    fn trend_memory_is_bounded() {
        let mut d = Dashboard::new();
        for seq in 0..(TREND_POINTS as u64 + 100) {
            d.ingest(snapshot(seq, (seq + 1) * 1_000_000));
        }
        assert_eq!(d.po_total.len(), TREND_POINTS);
        assert_eq!(d.queue_depth.len(), TREND_POINTS);
        assert_eq!(d.logs.len(), LOG_LINES);
    }
}
