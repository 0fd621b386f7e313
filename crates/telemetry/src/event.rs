//! The POD event vocabulary carried through the recorder rings.
//!
//! Everything in an [`Event`] is `Copy` with no heap payload: metric
//! identities, log levels, and log codes are fieldless enums that resolve
//! to `&'static str` names only at collection time, so the hot recording
//! path never touches an allocator or formats a string.

use crate::log::{Level, LogCode};

/// Identity of one instrument. Fieldless so events stay `Copy`; the
/// string name only materializes in snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // names are self-describing; see `name()`
pub enum Metric {
    // DES engine.
    EventsHandled,
    PendingEvents,
    QueueBackendWheel,
    // Device runtime.
    Po,
    Pl,
    TimeoutRate,
    TimeoutsNetwork,
    TimeoutsLoad,
    PoTarget,
    ControllerError,
    HeartbeatOk,
    InFlight,
    FramesOffloaded,
    FramesLocal,
    ProbesInFlight,
    InstantFailures,
    OffloadLatencyMs,
    // Edge server / live server.
    ServerQueueDepth,
    BatchOccupancy,
    ServerRequests,
    ServerCompletions,
    ServerRejections,
    ServerBatches,
    ChaosDrops,
    ChaosDisconnects,
    ChaosStalls,
    // Sweep workers.
    CellsDone,
    CacheHits,
    // Live client connection lifecycle.
    Reconnects,
    // Server tier (appended so earlier metric ids stay stable).
    AdmissionRejections,
    ServerUp,
    // Reactor live tier (appended so earlier metric ids stay stable).
    ReadyEvents,
    WriteBufferBytes,
    CoalescedWrites,
    WriterDrops,
}

impl Metric {
    /// Stable snake_case name used in snapshot JSON.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Metric::EventsHandled => "events_handled",
            Metric::PendingEvents => "pending_events",
            Metric::QueueBackendWheel => "queue_backend_wheel",
            Metric::Po => "po",
            Metric::Pl => "pl",
            Metric::TimeoutRate => "timeout_rate",
            Metric::TimeoutsNetwork => "timeouts_network",
            Metric::TimeoutsLoad => "timeouts_load",
            Metric::PoTarget => "po_target",
            Metric::ControllerError => "controller_error",
            Metric::HeartbeatOk => "heartbeat_ok",
            Metric::InFlight => "in_flight",
            Metric::FramesOffloaded => "frames_offloaded",
            Metric::FramesLocal => "frames_local",
            Metric::ProbesInFlight => "probes_in_flight",
            Metric::InstantFailures => "instant_failures",
            Metric::OffloadLatencyMs => "offload_latency_ms",
            Metric::ServerQueueDepth => "server_queue_depth",
            Metric::BatchOccupancy => "batch_occupancy",
            Metric::ServerRequests => "server_requests",
            Metric::ServerCompletions => "server_completions",
            Metric::ServerRejections => "server_rejections",
            Metric::ServerBatches => "server_batches",
            Metric::ChaosDrops => "chaos_drops",
            Metric::ChaosDisconnects => "chaos_disconnects",
            Metric::ChaosStalls => "chaos_stalls",
            Metric::CellsDone => "cells_done",
            Metric::CacheHits => "cache_hits",
            Metric::Reconnects => "reconnects",
            Metric::AdmissionRejections => "admission_rejections",
            Metric::ServerUp => "server_up",
            Metric::ReadyEvents => "ready_events",
            Metric::WriteBufferBytes => "write_buffer_bytes",
            Metric::CoalescedWrites => "coalesced_writes",
            Metric::WriterDrops => "writer_drops",
        }
    }

    /// Stable ordering key (snapshot metric order).
    pub(crate) const fn id(self) -> u16 {
        self as u16
    }
}

/// What one event records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    /// Monotone counter increment.
    Counter {
        /// The counter being incremented.
        metric: Metric,
        /// Increment (snapshots report the cumulative total).
        delta: u64,
    },
    /// Point-in-time gauge sample (last write in a window wins).
    Gauge {
        /// The gauge being set.
        metric: Metric,
        /// The sampled value.
        value: f64,
    },
    /// One latency observation folded into a `LogHistogram`.
    Latency {
        /// The latency instrument.
        metric: Metric,
        /// The observation in milliseconds.
        ms: f64,
    },
    /// A leveled, coded log event (see [`crate::log`]).
    Log {
        /// Severity.
        level: Level,
        /// What happened.
        code: LogCode,
    },
}

/// One recorded event: a timestamp (simulated or wall-mapped
/// microseconds), the emitting scope, and the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Event {
    /// Event time in microseconds (`SimTime::as_micros` in simulation,
    /// `WallClock`-mapped in live mode) — never the collector's clock.
    pub t_us: u64,
    /// Interned scope id (see [`crate::Telemetry::scope`]).
    pub scope: u16,
    /// The payload.
    pub kind: EventKind,
}
