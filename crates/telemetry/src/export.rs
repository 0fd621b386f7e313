//! Line-delimited TCP export of telemetry snapshots.
//!
//! A [`TcpExportSink`] is a [`Sink`] that serves the snapshot stream
//! over a real socket: every snapshot the collector emits is written as
//! one compact JSON line to every connected client.
//! `ff-bench dashboard --connect <addr>` is the reference consumer, but
//! the protocol is plain enough for `nc` + `jq`.
//!
//! Protocol (documented in EXPERIMENTS.md): the server never reads from
//! clients; each line is one `Snapshot` in the schema-versioned JSON
//! produced by `serde_json` (`schema` field = `SNAPSHOT_SCHEMA_VERSION`).
//!
//! Export never blocks the host pipeline: subscriber sockets are
//! non-blocking, and bytes the kernel will not take immediately are
//! parked in a bounded per-subscriber buffer (256 KiB by default). A
//! subscriber that stalls long enough to overflow its buffer is
//! disconnected; a subscriber whose socket errors is dropped silently,
//! exactly as if it had hung up.

use crate::sink::Sink;
use crate::Snapshot;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Default per-subscriber pending-byte budget (256 KiB): enough to ride
/// out a paused terminal, small enough that a stuck reader cannot pin
/// unbounded memory.
const DEFAULT_PENDING_CAPACITY: usize = 256 * 1024;

/// Consecutive `accept` failures after which the accept loop gives up.
/// Transient conditions (`EINTR`, aborted handshakes, fd exhaustion)
/// clear well before this; only a persistently broken listener exits.
const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 1_000;

/// One connected subscriber: its non-blocking socket plus whatever bytes
/// the kernel would not accept yet.
struct Subscriber {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Subscriber {
    /// Push buffered bytes into the socket without ever blocking.
    /// `Ok` leaves the subscriber alive (possibly with bytes still
    /// pending); `Err` means the socket is gone.
    fn try_drain(&mut self) -> io::Result<()> {
        while !self.pending.is_empty() {
            match self.stream.write(&self.pending) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Serves the snapshot stream as JSON lines to any number of TCP
/// subscribers. Register it with `Telemetry::add_sink`.
pub struct TcpExportSink {
    addr: SocketAddr,
    clients: Arc<Mutex<Vec<Subscriber>>>,
    /// Per-subscriber pending-byte budget.
    capacity: usize,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
}

impl TcpExportSink {
    /// Bind `addr` (use `127.0.0.1:0` for an ephemeral port) and start
    /// accepting subscribers in a background thread, with the default
    /// per-subscriber buffer budget.
    pub fn bind(bind: &str) -> io::Result<TcpExportSink> {
        TcpExportSink::bind_with_capacity(bind, DEFAULT_PENDING_CAPACITY)
    }

    /// [`bind`](TcpExportSink::bind) with an explicit per-subscriber
    /// pending-byte budget — primarily for tests, which shrink it to
    /// exercise the overflow path without megabytes of traffic.
    fn bind_with_capacity(bind: &str, capacity: usize) -> io::Result<TcpExportSink> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let clients: Arc<Mutex<Vec<Subscriber>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));

        let accept_handle = {
            let clients = Arc::clone(&clients);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("ff-telemetry-export".into())
                .spawn(move || accept_loop(listener, clients, stop))?
        };

        Ok(TcpExportSink {
            addr,
            clients,
            capacity,
            stop,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many subscribers are currently connected.
    pub fn client_count(&self) -> usize {
        self.clients.lock().map(|c| c.len()).unwrap_or(0)
    }
}

fn accept_loop(listener: TcpListener, clients: Arc<Mutex<Vec<Subscriber>>>, stop: Arc<AtomicBool>) {
    let mut consecutive_errors: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                consecutive_errors = 0;
                // Nodelay so small snapshot lines reach dashboards promptly.
                let _ = stream.set_nodelay(true);
                // Writes must never block the emitting pipeline; a socket
                // that cannot go non-blocking is useless to us.
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                if let Ok(mut c) = clients.lock() {
                    c.push(Subscriber {
                        stream,
                        pending: Vec::new(),
                    });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                consecutive_errors = 0;
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // Interrupted, ConnectionAborted/Reset (handshake torn
                // down before accept), TimedOut, EMFILE…: all transient.
                // Keep serving existing subscribers and retry; only a
                // listener that fails every attempt for ~10 s straight
                // is abandoned.
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                    break;
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

impl Sink for TcpExportSink {
    fn emit(&mut self, snapshot: &Snapshot) {
        let Ok(json) = serde_json::to_string(snapshot) else {
            return;
        };
        let mut line = json.into_bytes();
        line.push(b'\n');
        let capacity = self.capacity;
        if let Ok(mut clients) = self.clients.lock() {
            clients.retain_mut(|c| {
                // A subscriber that stalled past its budget is cut loose
                // — the host pipeline never waits on a slow reader.
                if c.pending.len() + line.len() > capacity {
                    return false;
                }
                c.pending.extend_from_slice(&line);
                // Dead subscribers are dropped on their first failed
                // write; the survivors keep receiving.
                c.try_drain().is_ok()
            });
        }
    }

    fn flush(&mut self) {
        if let Ok(mut clients) = self.clients.lock() {
            clients.retain_mut(|c| {
                // End-of-run flush: give a live-but-slow subscriber a
                // bounded grace window to take its backlog, then let the
                // socket's own close-time draining do what it can.
                for _ in 0..50 {
                    if c.try_drain().is_err() {
                        return false;
                    }
                    if c.pending.is_empty() {
                        break;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                c.stream.flush().is_ok()
            });
        }
    }
}

impl Drop for TcpExportSink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metric, Telemetry, TelemetryConfig};
    use std::io::{BufRead, BufReader};

    #[test]
    fn exports_one_json_line_per_snapshot_to_each_client() {
        let telemetry = Telemetry::new(TelemetryConfig {
            window_us: 1_000_000,
            ..Default::default()
        });
        let sink = TcpExportSink::bind("127.0.0.1:0").unwrap();
        let addr = sink.addr();
        telemetry.add_sink(Box::new(sink));

        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(client);

        // The accept loop needs a beat to register the subscriber before
        // the first emit; poll until the connection shows up, then record.
        thread::sleep(Duration::from_millis(50));
        let mut rec = telemetry.recorder();
        let scope = telemetry.scope("export-test");
        for window in 0..3u64 {
            rec.counter(
                scope,
                Metric::ServerRequests,
                1 + window,
                window * 1_000_000,
            );
        }
        telemetry.finish();

        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line);
        }
        for (i, line) in lines.iter().enumerate() {
            let snap: Snapshot = serde_json::from_str(line.trim()).unwrap();
            assert_eq!(snap.t_us, (i as u64 + 1) * 1_000_000);
            let scope = snap
                .scopes
                .iter()
                .find(|s| s.scope == "export-test")
                .unwrap();
            assert_eq!(scope.counters[0].metric, "server_requests");
        }
        // Counters are cumulative: 1, then 1+2, then 1+2+3.
        let last: Snapshot = serde_json::from_str(lines[2].trim()).unwrap();
        assert_eq!(last.scopes[0].counters[0].value, 6);
    }

    #[test]
    fn dead_subscribers_are_dropped_not_fatal() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let sink = TcpExportSink::bind("127.0.0.1:0").unwrap();
        let addr = sink.addr();
        telemetry.add_sink(Box::new(sink));

        {
            let _short_lived = TcpStream::connect(addr).unwrap();
            thread::sleep(Duration::from_millis(50));
        } // dropped: the next emits hit a closed socket

        let mut rec = telemetry.recorder();
        let scope = telemetry.scope("s");
        // Several windows so the broken pipe actually surfaces (the first
        // write after close can still land in the kernel buffer).
        for window in 0..4u64 {
            rec.counter(scope, Metric::ServerRequests, 1, window * 1_000_000);
        }
        telemetry.finish(); // must not panic or error
        assert_eq!(telemetry.dropped_events(), 0);
    }

    /// A wide snapshot (~8 KiB serialized) for filling socket buffers
    /// quickly in the stall test.
    fn fat_snapshot(seq: u64) -> Snapshot {
        Snapshot {
            schema: crate::SNAPSHOT_SCHEMA_VERSION,
            seq,
            t_us: seq * 1_000_000,
            window_us: 1_000_000,
            dropped_events: 0,
            scopes: vec![crate::ScopeSnapshot {
                scope: "x".repeat(8_192),
                counters: Vec::new(),
                gauges: Vec::new(),
                latencies: Vec::new(),
                logs: Vec::new(),
            }],
        }
    }

    #[test]
    fn stalled_subscriber_is_cut_loose_without_blocking_emit() {
        // Tight budget so the overflow path triggers as soon as the
        // kernel's socket buffers are full.
        let mut sink = TcpExportSink::bind_with_capacity("127.0.0.1:0", 32 * 1_024).unwrap();
        let addr = sink.addr();

        // A subscriber that connects and then never reads a byte.
        let stalled = TcpStream::connect(addr).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(sink.client_count(), 1);

        // Emit until the stalled client is cut loose. Each line is
        // ~8 KiB, so a few hundred emits overwhelm loopback socket
        // buffers plus the 32 KiB pending budget. Every emit must
        // return promptly — the deadline proves no write ever blocked
        // on the stalled peer.
        let start = std::time::Instant::now();
        for seq in 0..2_000u64 {
            sink.emit(&fat_snapshot(seq));
            if sink.client_count() == 0 {
                break;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "emit stalled on a non-reading subscriber"
        );
        assert_eq!(
            sink.client_count(),
            0,
            "the stalled subscriber was never dropped"
        );
        drop(stalled);
    }

    #[test]
    fn slow_but_reading_subscriber_survives_and_catches_up() {
        let mut sink = TcpExportSink::bind_with_capacity("127.0.0.1:0", 64 * 1_024).unwrap();
        let addr = sink.addr();

        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(client);
        thread::sleep(Duration::from_millis(50));

        // Lines small enough that the kernel absorbs the burst; the
        // subscriber then reads everything back.
        for seq in 0..20u64 {
            sink.emit(&Snapshot {
                schema: crate::SNAPSHOT_SCHEMA_VERSION,
                seq,
                t_us: seq,
                window_us: 1,
                dropped_events: 0,
                scopes: Vec::new(),
            });
        }
        sink.flush();
        for seq in 0..20u64 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let snap: Snapshot = serde_json::from_str(line.trim()).unwrap();
            assert_eq!(snap.seq, seq);
        }
        assert_eq!(sink.client_count(), 1);
    }
}
