//! The `Telemetry` hub and the per-producer `Recorder` handles.

use crate::collect::{Fold, Snapshot};
use crate::event::{Event, EventKind, Metric};
use crate::log::{self, Level, LogCode};
use crate::ring::Ring;
use crate::sink::{ChannelSink, Sink};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Telemetry pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Snapshot window length in microseconds on the event time axis
    /// (default: one second, matching the controller tick).
    pub window_us: u64,
    /// Per-producer ring capacity in events (rounded up to a power of
    /// two). When a producer outruns collection by more than this, the
    /// oldest events are dropped and counted.
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window_us: 1_000_000,
            ring_capacity: 1 << 14,
        }
    }
}

/// An interned scope name (e.g. `device/3`). Cheap to copy into events;
/// resolved back to its string in snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope(pub(crate) u16);

/// Everything behind the hub's mutex. Locked by registration, polling,
/// and sink management — never by the recording hot path.
struct Shared {
    scope_names: Vec<String>,
    rings: Vec<Arc<Ring>>,
    sinks: Vec<Box<dyn Sink>>,
    fold: Fold,
    scratch: Vec<Event>,
    snapshots: Vec<Snapshot>,
}

struct Hub {
    config: TelemetryConfig,
    shared: Mutex<Shared>,
}

/// Handle to the telemetry pipeline. Cloning is cheap (an `Arc`); a
/// disabled handle ([`Telemetry::disabled`]) makes every downstream
/// operation a no-op, so hosts thread one `Telemetry` through
/// unconditionally and pay nothing when observability is off.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Hub>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    /// The default is **disabled**: simulations opt in explicitly.
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A disabled pipeline: recorders are no-ops, polling does nothing.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled pipeline with the default configuration.
    pub fn enabled() -> Telemetry {
        Telemetry::new(TelemetryConfig::default())
    }

    /// An enabled pipeline with an explicit configuration.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Hub {
                config,
                shared: Mutex::new(Shared {
                    scope_names: Vec::new(),
                    rings: Vec::new(),
                    sinks: Vec::new(),
                    fold: Fold::new(config.window_us),
                    scratch: Vec::new(),
                    snapshots: Vec::new(),
                }),
            })),
        }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern a scope name. Idempotent; on a disabled pipeline returns a
    /// placeholder scope.
    pub fn scope(&self, name: &str) -> Scope {
        let Some(hub) = &self.inner else {
            return Scope(0);
        };
        let mut shared = hub.shared.lock();
        if let Some(id) = shared.scope_names.iter().position(|n| n == name) {
            return Scope(id as u16);
        }
        let id = shared.scope_names.len();
        assert!(id < u16::MAX as usize, "too many telemetry scopes");
        shared.scope_names.push(name.to_string());
        Scope(id as u16)
    }

    /// Create a recorder backed by a fresh ring. **One recorder per
    /// producer thread**: the recorder is deliberately not `Clone`, which
    /// is what makes the ring single-producer without hot-path locking.
    /// All allocation happens here, never on record.
    pub fn recorder(&self) -> Recorder {
        let Some(hub) = &self.inner else {
            return Recorder { ring: None };
        };
        let ring = Arc::new(Ring::new(hub.config.ring_capacity));
        hub.shared.lock().rings.push(Arc::clone(&ring));
        Recorder { ring: Some(ring) }
    }

    /// Attach a snapshot sink. Sinks added after snapshots were already
    /// emitted only see subsequent ones.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        if let Some(hub) = &self.inner {
            hub.shared.lock().sinks.push(sink);
        }
    }

    /// Attach an in-process subscriber channel and return its receiver
    /// (`None` on a disabled pipeline).
    pub fn subscribe(&self) -> Option<Receiver<Snapshot>> {
        let Some(_) = &self.inner else { return None };
        let (sink, rx) = ChannelSink::new();
        self.add_sink(Box::new(sink));
        Some(rx)
    }

    /// Drain every ring and emit snapshots for all windows that closed.
    /// Cheap when nothing happened; safe to call from any thread and at
    /// any cadence — snapshot *content* depends only on the recorded
    /// event stream (windows are keyed by event time, not by when this
    /// runs).
    pub fn poll(&self) {
        self.collect(false);
    }

    /// Drain, close the final (partial) window, and flush all sinks.
    pub fn finish(&self) {
        self.collect(true);
    }

    fn collect(&self, finish: bool) {
        let Some(hub) = &self.inner else { return };
        let mut shared = hub.shared.lock();
        let shared = &mut *shared;
        shared.scratch.clear();
        for ring in &shared.rings {
            ring.drain(&mut shared.scratch);
        }
        let dropped: u64 = shared.rings.iter().map(|r| r.dropped()).sum();
        shared.snapshots.clear();
        shared.fold.apply(
            &shared.scratch,
            &shared.scope_names,
            dropped,
            &mut shared.snapshots,
        );
        if finish {
            shared
                .fold
                .finish(&shared.scope_names, dropped, &mut shared.snapshots);
        }
        // Deliver outside the fold, still under the hub lock (sinks may
        // be slow but correctness never depends on timing).
        for i in 0..shared.snapshots.len() {
            for sink in &mut shared.sinks {
                sink.emit(&shared.snapshots[i]);
            }
        }
        if finish {
            for sink in &mut shared.sinks {
                sink.flush();
            }
        }
    }

    /// Cumulative ring-buffer drops across all recorders.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(hub) => hub.shared.lock().rings.iter().map(|r| r.dropped()).sum(),
            None => 0,
        }
    }

    /// Total events folded into snapshots so far.
    pub fn events_consumed(&self) -> u64 {
        match &self.inner {
            Some(hub) => hub.shared.lock().fold.consumed(),
            None => 0,
        }
    }

    /// Total events ever recorded across all recorders.
    pub fn events_produced(&self) -> u64 {
        match &self.inner {
            Some(hub) => hub.shared.lock().rings.iter().map(|r| r.produced()).sum(),
            None => 0,
        }
    }
}

/// A single-producer recording handle.
///
/// Every record method is `#[inline]` and, on a disabled pipeline,
/// reduces to a `None` check — the "noop recorder" costs one predictable
/// branch. On an enabled pipeline a record is a few atomic stores into a
/// preallocated ring slot: no allocation, no lock, no syscall.
///
/// Methods take `&mut self` and the type is not `Clone`: exclusive
/// access *is* the single-producer guarantee the ring relies on.
pub struct Recorder {
    ring: Option<Arc<Ring>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.ring.is_some())
            .finish()
    }
}

impl Recorder {
    /// Whether records go anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Increment a counter by `delta`.
    #[inline]
    pub fn counter(&mut self, scope: Scope, metric: Metric, delta: u64, t_us: u64) {
        if let Some(ring) = &self.ring {
            ring.push(Event {
                t_us,
                scope: scope.0,
                kind: EventKind::Counter { metric, delta },
            });
        }
    }

    /// Sample a gauge.
    #[inline]
    pub fn gauge(&mut self, scope: Scope, metric: Metric, value: f64, t_us: u64) {
        if let Some(ring) = &self.ring {
            ring.push(Event {
                t_us,
                scope: scope.0,
                kind: EventKind::Gauge { metric, value },
            });
        }
    }

    /// Record one latency observation in milliseconds.
    #[inline]
    pub fn latency(&mut self, scope: Scope, metric: Metric, ms: f64, t_us: u64) {
        if let Some(ring) = &self.ring {
            ring.push(Event {
                t_us,
                scope: scope.0,
                kind: EventKind::Latency { metric, ms },
            });
        }
    }

    /// Emit a leveled log event. Also echoed to stderr when the `FF_LOG`
    /// env var asks for this level — even on a disabled recorder, so the
    /// override works with telemetry off.
    #[inline]
    pub fn log(&mut self, scope: Scope, level: Level, code: LogCode, t_us: u64) {
        log::echo(level, code, t_us);
        if let Some(ring) = &self.ring {
            ring.push(Event {
                t_us,
                scope: scope.0,
                kind: EventKind::Log { level, code },
            });
        }
    }
}
