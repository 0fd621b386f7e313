//! # ff-trace — binary record/replay traces of the device control loop
//!
//! Every decision the shared `DeviceRuntime` makes is a pure function of
//! the call sequence it observes: captures, transport verdicts, server
//! arrivals, responses, deadlines, and controller ticks, each stamped
//! with an explicit `SimTime`. This crate serializes exactly that call
//! sequence into a compact, schema-versioned binary format so any run —
//! simulated or live — can be:
//!
//! - **replay-verified**: re-driven through a fresh runtime and checked
//!   bit-for-bit against the recording (`ff_device::replay_verify`), and
//! - **replayed as workload**: its capture times and frame sizes fed
//!   back into the simulator as a recorded frame schedule
//!   (`ff_workload::ReplayFrames::from_trace`).
//!
//! ## Format
//!
//! A trace is `magic ∥ schema ∥ header ∥ events`:
//!
//! ```text
//! magic   "FFTR" (4 bytes)
//! schema  varint, currently 2
//! header  fs (f64, 8 bytes LE) ∥ deadline_us ∥ controller_period_us
//!         ∥ timeout_window_us ∥ probe_bytes ∥ seed (all varint)
//!         ∥ controller-name length (varint) ∥ UTF-8 name bytes
//!         ∥ selection code (1 byte) ∥ selection margin ∥
//!         local_accuracy ∥ remote_accuracy (f64, 8 bytes LE each)
//! event   opcode (1 byte) ∥ zigzag-varint time delta (µs, from the
//!         previous event's time) ∥ opcode-specific fields
//! ```
//!
//! Integers are LEB128 varints; event times are zigzag-encoded deltas so
//! the (rare) out-of-order stamps a wall-clock host can produce still
//! encode. Simulated hosts step backwards too: a fleet row logs
//! `LocalDone { at }` when its engine applies the completion — before the
//! device's next local capture or tick, stamped with the completion's own
//! earlier instant — so records are in call order, not in `at` order. `f64` fields are 8 raw little-endian bytes — bit-exact by
//! construction, which is what lets replay assert QoS records with
//! `to_bits` equality. Decoding is total: corrupt or truncated input
//! yields a [`TraceError`], never a panic.

#![warn(missing_docs)]

mod codec;
mod writer;

pub use writer::{TraceHandle, TraceWriter};

use codec::{decode_trace, encode_trace};

use ff_sim::SimTime;

/// The four magic bytes every trace starts with.
pub(crate) const TRACE_MAGIC: [u8; 4] = *b"FFTR";

/// Current trace schema version. Bump on any change to the header or
/// event wire layout; decoders reject traces from other versions.
///
/// v2: the header grew the model-selection policy (code + margin) and
/// the Table III local/remote accuracies; [`TickQos`] grew the
/// accuracy-weighted throughput field.
pub(crate) const TRACE_SCHEMA_VERSION: u32 = 2;

/// Static parameters of the recorded run — everything needed to rebuild
/// an identically-configured `DeviceRuntime` for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Source frame rate `F_s` in frames/s.
    pub fs: f64,
    /// End-to-end offload deadline in microseconds.
    pub deadline_us: u64,
    /// Controller measurement period in microseconds.
    pub controller_period_us: u64,
    /// Trailing window of the timeout-rate input `T`, in microseconds.
    pub timeout_window_us: u64,
    /// Payload size of heartbeat probes in bytes.
    pub probe_bytes: u64,
    /// Master seed of the recorded run (0 when not applicable, e.g. a
    /// live wall-clock run).
    pub seed: u64,
    /// Name of the controller that drove the run; replay must construct
    /// a controller with identical dynamics.
    pub controller: String,
    /// Model-selection policy code (0 = always-paper, 1 = expected-
    /// accuracy). Kept as a raw code so `ff-trace` stays free of an
    /// `ff-device` dependency; `ff_device::ModelSelection::from_code`
    /// rebuilds the typed policy.
    pub selection: u8,
    /// Hysteresis margin of the selection policy (0 for always-paper).
    pub selection_margin: f64,
    /// Top-1 accuracy of the on-device model (Table III).
    pub local_accuracy: f64,
    /// Top-1 accuracy of the remote model (Table III).
    pub remote_accuracy: f64,
}

/// Which way the splitter routed a captured frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRoute {
    /// Sent toward the server.
    Offload,
    /// Handed to the local inference engine.
    Local,
}

/// What the transport did with a submission (mirrors the runtime's
/// `SubmitOutcome` without depending on `ff-device`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSubmitOutcome {
    /// The transport took the frame; a response may arrive later.
    Accepted,
    /// Dropped in the network; resolves at the deadline.
    DroppedInNetwork,
    /// Failed synchronously (no connection).
    FailedInstantly,
}

/// Attributed cause of a timeout (`T_n` vs `T_l`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTimeoutCause {
    /// Network-attributed (`T_n`).
    Network,
    /// Server-load-attributed (`T_l`).
    ServerLoad,
}

/// How a response resolved, mirroring the runtime's `FrameOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceResponseOutcome {
    /// The tag was a heartbeat probe.
    Probe,
    /// The offload beat the deadline.
    Success {
        /// Capture-to-response latency in microseconds.
        latency_us: u64,
    },
    /// The offload missed the deadline.
    Timeout {
        /// Attributed cause.
        cause: TraceTimeoutCause,
    },
    /// A server rejection arrived; resolves as a load timeout later.
    Rejected,
    /// The tag was already resolved (late response).
    Stale,
}

/// The QoS record a controller tick emitted, stored as raw `f64`s so
/// replay can assert bit-equality without an `ff-metrics` dependency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickQos {
    /// End of the measurement interval, seconds since start.
    pub t_secs: f64,
    /// Local processing rate `P_l`.
    pub pl: f64,
    /// Offloading rate `P_o`.
    pub po: f64,
    /// Total timeout rate `T`.
    pub timeouts: f64,
    /// Network-attributed timeout rate `T_n`.
    pub timeouts_network: f64,
    /// Load-attributed timeout rate `T_l`.
    pub timeouts_load: f64,
    /// The controller's new offload-rate target (its output).
    pub po_target: f64,
    /// Accuracy-weighted throughput: completed inferences per second,
    /// weighted by their model's Table III top-1 accuracy.
    pub accuracy_weighted_throughput: f64,
}

/// One recorded control-loop event. The sequence of events in a trace
/// is exactly the sequence of `DeviceRuntime` calls the host made, in
/// order, which is what makes replay a faithful re-execution.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A frame was captured and routed (`DeviceRuntime::route_frame`).
    /// `bytes` is the raw captured payload size, before any adaptive-
    /// quality scaling — the size replay-as-workload feeds back.
    Capture {
        /// Event instant.
        at: SimTime,
        /// Stream-unique frame id (also the offload tag, if offloaded).
        frame_id: u64,
        /// Raw captured payload bytes.
        bytes: u64,
        /// The splitter's routing decision.
        route: TraceRoute,
    },
    /// A payload was handed to the transport (an offload or, directly
    /// after a [`TraceEvent::Tick`], its heartbeat probe).
    Submit {
        /// Submission instant (the frame's capture time).
        at: SimTime,
        /// Offload tag (probe tags live above `PROBE_TAG_BASE`).
        tag: u64,
        /// Payload bytes actually submitted (post quality adaptation).
        bytes: u64,
        /// The transport's verdict.
        outcome: TraceSubmitOutcome,
    },
    /// The frame reached the server (`frame_arrived_at_server`).
    ServerArrival {
        /// Arrival instant.
        at: SimTime,
        /// Offload tag.
        tag: u64,
    },
    /// The server rejected the frame (`frame_rejected_by_server`).
    ServerRejected {
        /// Rejection instant.
        at: SimTime,
        /// Offload tag.
        tag: u64,
    },
    /// A response reached the device (`on_response`) and resolved as
    /// `outcome`.
    Response {
        /// Arrival instant.
        at: SimTime,
        /// Offload tag.
        tag: u64,
        /// Whether the response carried success (vs a rejection).
        ok: bool,
        /// How the runtime resolved it.
        outcome: TraceResponseOutcome,
    },
    /// A deadline event fired (`on_deadline`); `timed_out` is the
    /// attributed cause if the frame actually expired unresolved.
    Deadline {
        /// Deadline instant.
        at: SimTime,
        /// Offload tag.
        tag: u64,
        /// `Some(cause)` iff the frame timed out here.
        timed_out: Option<TraceTimeoutCause>,
    },
    /// A polling host swept overdue deadlines (`expire_due`).
    ExpireDue {
        /// Sweep instant.
        at: SimTime,
        /// Frames that expired, in ascending tag order.
        expired: Vec<(u64, TraceTimeoutCause)>,
    },
    /// `n` local inferences completed (`note_local_done`).
    LocalDone {
        /// Completion instant.
        at: SimTime,
        /// Completions counted.
        n: u64,
    },
    /// A controller tick ran: the measurement it consumed, the QoS
    /// record it emitted (the controller's error input is
    /// `fs − (po + pl)`, its output is `po_target`), and the probe it
    /// sent — whose [`TraceEvent::Submit`] immediately follows.
    Tick {
        /// Tick instant.
        at: SimTime,
        /// The QoS record pushed this tick.
        qos: TickQos,
        /// The windowed timeout-rate input `T` the controller saw.
        timeout_rate: f64,
        /// The heartbeat flag the controller saw.
        heartbeat_ok: bool,
        /// Tag of the heartbeat probe sent for the next interval.
        probe_tag: u64,
    },
    /// End-of-run counters, written when the recording device's run
    /// finishes.
    End {
        /// Finish instant.
        at: SimTime,
        /// Frames handed to `offload` (incl. instant failures).
        frames_offloaded: u64,
        /// Offloads whose response beat the deadline.
        successes: u64,
        /// Offloads that missed the deadline (incl. instant failures).
        timeouts: u64,
        /// Offload attempts that failed synchronously.
        instant_failures: u64,
    },
}

impl TraceEvent {
    /// The instant this event was recorded at.
    pub(crate) fn at(&self) -> SimTime {
        match self {
            TraceEvent::Capture { at, .. }
            | TraceEvent::Submit { at, .. }
            | TraceEvent::ServerArrival { at, .. }
            | TraceEvent::ServerRejected { at, .. }
            | TraceEvent::Response { at, .. }
            | TraceEvent::Deadline { at, .. }
            | TraceEvent::ExpireDue { at, .. }
            | TraceEvent::LocalDone { at, .. }
            | TraceEvent::Tick { at, .. }
            | TraceEvent::End { at, .. } => *at,
        }
    }
}

/// A fully decoded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Static run parameters.
    pub header: TraceHeader,
    /// The recorded event sequence, in recording order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Decode a trace from its binary form. Total: corrupt or truncated
    /// input errors cleanly, never panics.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        decode_trace(bytes)
    }

    /// Encode this trace back to its binary form. `decode(encode(t))`
    /// is the identity (see the round-trip proptest).
    pub fn encode(&self) -> Vec<u8> {
        encode_trace(self)
    }
}

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not start with `TRACE_MAGIC`.
    BadMagic,
    /// The trace was written by an incompatible schema version.
    UnsupportedSchema(u64),
    /// The input ended mid-field.
    Truncated,
    /// An event carried an opcode this version does not know.
    BadOpcode(u8),
    /// A field held a value outside its domain.
    BadValue(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a FrameFeedback trace (bad magic)"),
            TraceError::UnsupportedSchema(v) => {
                write!(
                    f,
                    "unsupported trace schema {v} (this build reads {TRACE_SCHEMA_VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace truncated mid-field"),
            TraceError::BadOpcode(op) => write!(f, "unknown event opcode {op}"),
            TraceError::BadValue(what) => write!(f, "invalid field value: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}
