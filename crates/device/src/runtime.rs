//! The shared device runtime: one control loop for every host.
//!
//! The paper's central claim is that a single controller runs unchanged
//! against a simulated network and a real one (§III). This module is where
//! that claim becomes structural: it holds the only implementation of the
//! per-frame device loop — credit-based splitting, offload submission,
//! in-flight deadline tracking, probe heartbeats, `WindowedRate` interval
//! aggregation, `Controller::update`, and [`QosRecord`] emission — and the
//! simulated fleet and its shards (`fleet.rs`, `shard.rs`; the
//! single-device experiment is a fleet of one), the wall-clock fleet
//! client (`ff-reactor`) and the replayer are thin adapters over it.
//!
//! The loop is written against borrowed state (`DeviceLoop`): shared
//! [`RuntimeConfig`], a one-cache-line per-frame part, a per-offload
//! part, the QoS log and the trace handle. [`DeviceRuntime`] owns one of
//! each and lends them; a fleet keeps the two state parts in two columns
//! and lends a row, so a parked device's capture touches one line of a
//! small array (DESIGN.md §"Architecture: device runtime").
//!
//! Two abstractions make the runtime host-agnostic:
//!
//! - **Transport**: the runtime never touches a link or a socket; it hands
//!   each outgoing frame to a [`Transport`] and learns only whether the
//!   submission was accepted, dropped in the network, or failed instantly.
//! - **Clock**: every runtime method takes an explicit [`SimTime`] `now`.
//!   The simulator passes its event clock; the live client maps `Instant`s
//!   onto the same microsecond timeline with a [`WallClock`]. The runtime
//!   itself never reads a clock, which is what makes the two drivers
//!   bit-identical on identical inputs (see `tests/runtime_parity.rs`).
//!
//! Event-driven hosts (the sim) resolve deadlines with [`DeviceRuntime::on_deadline`]
//! at exactly-scheduled instants; polling hosts (the live client) call
//! [`DeviceRuntime::expire_due`] each iteration instead.

use crate::flight::{FlightRing, ProbeTable};
use crate::offload::{LatencyBreakdown, OffloadResolution, TimeoutCause};
use crate::selection::{deadline_risk, ModelSelection};
use crate::splitter::{FrameSplitter, Route};
use crate::watch::Watch;
use ff_core::{Controller, Measurement};
use ff_metrics::{QosLog, QosRecord, WindowedRate};
use ff_sim::{SimDuration, SimTime};
use ff_trace::{
    TickQos, TraceEvent, TraceHandle, TraceHeader, TraceResponseOutcome, TraceRoute,
    TraceSubmitOutcome, TraceTimeoutCause,
};
use std::time::Instant;

// The tag-space partition lives in the shared `crate::tags` module.
use crate::tags::{is_probe_tag, BACKGROUND_TAG_BASE, PROBE_TAG_BASE};

/// What happened when a frame was handed to the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The transport took the frame; a response may arrive later.
    Accepted,
    /// The transport dropped it (link overflow, loss beyond ARQ). The device
    /// only learns at the deadline, but the cause is already known to be
    /// the network.
    DroppedInNetwork,
    /// The attempt failed synchronously (no connection — the live
    /// analogue of ECONNREFUSED). The runtime records the timeout
    /// immediately, which is what makes `T` track the attempted rate and
    /// parks the controller at the §III-A.1 probe floor during outages.
    FailedInstantly,
}

/// Where the runtime hands outgoing frames and probes. Implementations
/// wrap the simulated uplink (`fleet.rs`) or a TCP connection behind
/// the same simulated uplink (`ff-reactor`).
pub trait Transport {
    /// Submit `bytes` of payload under `tag` at instant `now`.
    fn send(&mut self, tag: u64, bytes: u64, now: SimTime) -> SubmitOutcome;
}

/// Static parameters of the device control loop.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Source frame rate `F_s` in frames/s.
    pub fs: f64,
    /// End-to-end offload deadline (250 ms, §II-B).
    pub deadline: SimDuration,
    /// Controller measurement period (1 s, Table IV).
    pub controller_period: SimDuration,
    /// Trailing window for the timeout-rate input `T` ("the average of T
    /// from the last few seconds", §III-A.1).
    pub timeout_window: SimDuration,
    /// Payload size of heartbeat probes.
    pub probe_bytes: u64,
    /// Which model answers offload-routed frames. [`ModelSelection::AlwaysPaper`]
    /// reproduces the paper's runtime bit for bit.
    pub selection: ModelSelection,
    /// Top-1 accuracy of the on-device model (Table III), used by
    /// [`ModelSelection::ExpectedAccuracy`] and the accuracy-weighted
    /// throughput QoS field.
    pub local_accuracy: f64,
    /// Top-1 accuracy of the remote model (Table III).
    pub remote_accuracy: f64,
}

/// Result of [`DeviceRuntime::offload`].
#[derive(Debug, Clone, Copy)]
pub struct OffloadSubmission {
    /// The instant at which this frame times out if unanswered. Event-
    /// driven hosts schedule their deadline event here.
    pub deadline_at: SimTime,
    /// What the transport did with the frame.
    pub outcome: SubmitOutcome,
}

/// How a response (or deadline) resolved, from the host's point of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameOutcome {
    /// The tag was a heartbeat probe (heartbeat state updated internally).
    Probe,
    /// The offload beat the deadline.
    Success {
        /// Capture-to-response latency.
        latency: SimDuration,
        /// Where the latency was spent.
        breakdown: LatencyBreakdown,
    },
    /// The offload missed the deadline (response too late, or the
    /// response itself carried a rejection already resolved by deadline).
    Timeout {
        /// Attributed cause (`T_n` vs `T_l`).
        cause: TimeoutCause,
    },
    /// A server rejection arrived; the frame stays in flight and resolves
    /// as a load timeout at its deadline (same as the sim's batch-overflow
    /// path).
    Rejected,
    /// The tag was already resolved (late response after its deadline).
    Stale,
}

/// Everything one controller tick produced.
#[derive(Debug, Clone, Copy)]
pub struct TickOutput {
    /// The QoS record just appended to the log.
    pub record: QosRecord,
    /// Tag of the heartbeat probe sent for the next interval.
    pub probe_tag: u64,
    /// When that probe expires. Event-driven hosts schedule a deadline
    /// event here; polling hosts can ignore it ([`DeviceRuntime::expire_due`]
    /// cleans overdue probes).
    pub probe_deadline_at: SimTime,
    /// The windowed timeout rate `T` the controller was fed.
    pub timeout_rate: f64,
    /// The heartbeat verdict the controller was fed.
    pub heartbeat_ok: bool,
    /// The interval's event counts behind the record's rates.
    pub interval: IntervalCounters,
    /// Offloads still awaiting a response or deadline after this tick.
    pub in_flight: usize,
    /// Heartbeat probes outstanding, the one just sent included.
    pub probes_in_flight: usize,
}

/// Maps wall-clock [`Instant`]s onto the runtime's [`SimTime`] axis
/// (microseconds since the run started). This is the live client's
/// "clock adapter": the runtime only ever sees `SimTime`, so the same
/// arithmetic runs in both hosts.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose `t = 0` is now.
    pub fn start() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// The current runtime instant.
    pub fn now(&self) -> SimTime {
        self.at(Instant::now())
    }

    /// The runtime instant of a wall-clock `instant` (saturating at 0 for
    /// instants before the origin).
    pub(crate) fn at(&self, instant: Instant) -> SimTime {
        SimTime::from_micros(instant.saturating_duration_since(self.origin).as_micros() as u64)
    }
}

/// Event counts of one controller interval, reset at every tick.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntervalCounters {
    /// Frames handed to the uplink.
    pub sent: u64,
    /// Local inferences completed.
    pub local_done: u64,
    /// Offloads whose response beat the deadline.
    pub offload_success: u64,
    /// Timeouts attributed to the network (`T_n`).
    pub timeouts_network: u64,
    /// Timeouts attributed to server load (`T_l`).
    pub timeouts_load: u64,
}

/// The part of the loop's state every captured frame touches, whichever
/// way it is routed: one cache line.
#[derive(Debug)]
pub(crate) struct FrameState {
    splitter: FrameSplitter,
    /// `po_target / fs`, the splitter's credit increment, recomputed and
    /// validated whenever the target is written: the same operands as the
    /// division `FrameSplitter::route` does per frame, so routing is
    /// bit-identical while captures skip the `fdiv`.
    route_incr: f64,
    interval: IntervalCounters,
    frames_offloaded: u64,
}

/// The part only an offload, a response, a deadline or a tick touches.
#[derive(Debug)]
pub(crate) struct OffloadState {
    flights: FlightRing,
    probes: ProbeTable,
    timeout_rate: WindowedRate,
    /// Latest timeout stamp fed to `timeout_rate`. Wall-clock hosts can
    /// observe slightly out-of-order stamps (a response stamped by a
    /// reader thread but drained after a newer loop stamp); `WindowedRate`
    /// requires monotone time, so stamps are clamped to this floor. A
    /// no-op for event-driven hosts, whose clock never runs backwards.
    timeout_clock_floor: SimTime,
    po_target: f64,
    /// Tag of the next heartbeat probe: a base in the probe range
    /// (`PROBE_TAG_BASE`, or a fleet row's packed device index) plus the
    /// number of probes sent so far.
    next_probe_tag: u64,
    instant_failures: u64,
    heartbeat_ok: bool,
}

// A fleet keeps one of each per device, in two columns (DESIGN.md
// §"Architecture: device runtime" has the measurement behind the split):
// a capture that stays local must not reach past its one line, and a
// field added to either costs a 100k-device fleet 100 000× its size.
const _: () = assert!(std::mem::size_of::<FrameState>() == 64);
const _: () = assert!(std::mem::size_of::<OffloadState>() == 208);

/// Validate `config` and make the bootstrap decision (see
/// [`DeviceRuntime::new`]); probes will be tagged `probe_tag_base + seq`.
pub(crate) fn bootstrap(
    config: &RuntimeConfig,
    controller: &mut dyn Controller,
    probe_tag_base: u64,
) -> (FrameState, OffloadState) {
    assert!(config.fs > 0.0, "F_s must be positive");
    assert!(config.probe_bytes > 0, "probes must carry a payload");
    assert!(
        !config.controller_period.is_zero(),
        "controller period must be positive"
    );
    assert!(!config.deadline.is_zero(), "deadline must be positive");
    assert!(
        !config.timeout_window.is_zero(),
        "timeout window must be positive"
    );
    debug_assert!(is_probe_tag(probe_tag_base));
    let po_target = controller
        .update(&Measurement {
            fs: config.fs,
            po_achieved: 0.0,
            pl_achieved: 0.0,
            timeout_rate: 0.0,
            heartbeat_ok: false,
            dt_secs: config.controller_period.as_secs_f64(),
        })
        .po_target;
    (
        FrameState {
            splitter: FrameSplitter::new(),
            route_incr: route_increment(po_target, config.fs),
            interval: IntervalCounters::default(),
            frames_offloaded: 0,
        },
        OffloadState {
            flights: FlightRing::default(),
            probes: ProbeTable::default(),
            timeout_rate: WindowedRate::new(),
            timeout_clock_floor: SimTime::ZERO,
            po_target,
            next_probe_tag: probe_tag_base,
            instant_failures: 0,
            heartbeat_ok: false,
        },
    )
}

/// The splitter credit increment for a new `po_target`, with the checks
/// of `FrameSplitter::route` hoisted to the once-per-period write.
fn route_increment(po_target: f64, fs: f64) -> f64 {
    assert!(
        (0.0..=fs + 1e-9).contains(&po_target),
        "P_o target {po_target} outside [0, F_s={fs}]"
    );
    po_target / fs
}

impl FrameState {
    pub(crate) fn frames_offloaded(&self) -> u64 {
        self.frames_offloaded
    }
}

impl OffloadState {
    pub(crate) fn successes(&self) -> u64 {
        self.flights.successes()
    }

    pub(crate) fn timeouts(&self) -> u64 {
        self.flights.timeouts() + self.instant_failures
    }
}

/// The header describing a runtime configured as `config`, for hosts
/// that record one (replay rebuilds the configuration from it).
pub(crate) fn trace_header(config: &RuntimeConfig, seed: u64, controller: &str) -> TraceHeader {
    TraceHeader {
        fs: config.fs,
        deadline_us: config.deadline.as_micros(),
        controller_period_us: config.controller_period.as_micros(),
        timeout_window_us: config.timeout_window.as_micros(),
        probe_bytes: config.probe_bytes,
        seed,
        controller: controller.to_string(),
        selection: config.selection.code(),
        selection_margin: config.selection.margin(),
        local_accuracy: config.local_accuracy,
        remote_accuracy: config.remote_accuracy,
    }
}

/// Map the runtime's transport verdict into the trace vocabulary.
fn trace_submit(outcome: SubmitOutcome) -> TraceSubmitOutcome {
    match outcome {
        SubmitOutcome::Accepted => TraceSubmitOutcome::Accepted,
        SubmitOutcome::DroppedInNetwork => TraceSubmitOutcome::DroppedInNetwork,
        SubmitOutcome::FailedInstantly => TraceSubmitOutcome::FailedInstantly,
    }
}

/// Map a timeout cause into the trace vocabulary.
pub(crate) fn trace_cause(cause: TimeoutCause) -> TraceTimeoutCause {
    match cause {
        TimeoutCause::Network => TraceTimeoutCause::Network,
        TimeoutCause::ServerLoad => TraceTimeoutCause::ServerLoad,
    }
}

/// Map a frame outcome into the trace vocabulary.
pub(crate) fn trace_outcome(outcome: &FrameOutcome) -> TraceResponseOutcome {
    match outcome {
        FrameOutcome::Probe => TraceResponseOutcome::Probe,
        FrameOutcome::Success { latency, .. } => TraceResponseOutcome::Success {
            latency_us: latency.as_micros(),
        },
        FrameOutcome::Timeout { cause } => TraceResponseOutcome::Timeout {
            cause: trace_cause(*cause),
        },
        FrameOutcome::Rejected => TraceResponseOutcome::Rejected,
        FrameOutcome::Stale => TraceResponseOutcome::Stale,
    }
}

/// The device control loop, written once against borrowed state: the
/// owned [`DeviceRuntime`] lends its own fields, a fleet row lends one
/// element from each of its columns. Each method is documented on the
/// [`DeviceRuntime`] method of the same name.
pub(crate) struct DeviceLoop<'a> {
    pub(crate) config: &'a RuntimeConfig,
    pub(crate) frame: &'a mut FrameState,
    pub(crate) offload: &'a mut OffloadState,
    pub(crate) qos: &'a mut QosLog,
    /// Binary event recording (`ff-trace`), disabled by default. Same
    /// contract as telemetry: strictly write-only, so results are
    /// bit-identical with recording on or off (`tests/trace_inert.rs`).
    pub(crate) trace: &'a mut TraceHandle,
    /// The watched fleet row's accounting (equally write-only).
    pub(crate) watch: Option<&'a mut Watch>,
}

impl DeviceLoop<'_> {
    /// Stop recording and return the encoded trace, closed with a
    /// [`TraceEvent::End`] counter record at `now`; `None` if this row
    /// was not recording.
    pub(crate) fn finish_trace(&mut self, now: SimTime) -> Option<Vec<u8>> {
        let (frames_offloaded, successes, timeouts, instant_failures) = (
            self.frame.frames_offloaded,
            self.offload.successes(),
            self.offload.timeouts(),
            self.offload.instant_failures,
        );
        self.trace.record_with(|| TraceEvent::End {
            at: now,
            frames_offloaded,
            successes,
            timeouts,
            instant_failures,
        });
        std::mem::take(self.trace).finish()
    }

    pub(crate) fn route(&mut self) -> Route {
        self.frame.splitter.advance(self.frame.route_incr)
    }

    /// Whether the splitter would offload the next frame: the peek a
    /// shard's run-ahead stops at (`fleet::FleetCore::capture`).
    pub(crate) fn offloads_next(&self) -> bool {
        self.frame.splitter.offloads_next(self.frame.route_incr)
    }

    pub(crate) fn route_frame(&mut self, frame_id: u64, bytes: u64, now: SimTime) -> Route {
        let mut route = self.route();
        // Accuracy-aware demotion: an offload verdict may fall back to the
        // local model when the deadline risk discounts the remote model
        // below the local one. `AlwaysPaper` skips this entirely (not even
        // a rate-estimator read), keeping legacy runs bit-identical.
        if route == Route::Offload && self.config.selection != ModelSelection::AlwaysPaper {
            let risk = deadline_risk(
                self.offload
                    .timeout_rate
                    .rate_at(now, self.config.timeout_window),
                self.offload.po_target,
            );
            if self.config.selection.prefers_local(
                self.config.local_accuracy,
                self.config.remote_accuracy,
                risk,
            ) {
                route = Route::Local;
            }
        }
        self.trace.record_with(|| TraceEvent::Capture {
            at: now,
            frame_id,
            bytes,
            route: match route {
                Route::Offload => TraceRoute::Offload,
                Route::Local => TraceRoute::Local,
            },
        });
        route
    }

    pub(crate) fn offload(
        &mut self,
        transport: &mut dyn Transport,
        tag: u64,
        bytes: u64,
        captured_at: SimTime,
    ) -> OffloadSubmission {
        debug_assert!(tag < BACKGROUND_TAG_BASE, "frame tag in reserved range");
        self.frame.interval.sent += 1;
        self.frame.frames_offloaded += 1;
        let outcome = transport.send(tag, bytes, captured_at);
        self.trace.record_with(|| TraceEvent::Submit {
            at: captured_at,
            tag,
            bytes,
            outcome: trace_submit(outcome),
        });
        match outcome {
            SubmitOutcome::Accepted => self.offload.flights.sent(tag, captured_at),
            SubmitOutcome::DroppedInNetwork => {
                self.offload.flights.sent(tag, captured_at);
                self.offload.flights.network_dropped(tag);
            }
            SubmitOutcome::FailedInstantly => {
                self.offload.instant_failures += 1;
                self.record_timeout(captured_at, TimeoutCause::Network);
            }
        }
        OffloadSubmission {
            deadline_at: captured_at + self.config.deadline,
            outcome,
        }
    }

    pub(crate) fn note_local_done(&mut self, n: u64, now: SimTime) {
        self.trace
            .record_with(|| TraceEvent::LocalDone { at: now, n });
        self.frame.interval.local_done += n;
    }

    pub(crate) fn on_response(&mut self, tag: u64, now: SimTime, ok: bool) -> FrameOutcome {
        let outcome = self.resolve_response(tag, now, ok);
        self.trace.record_with(|| TraceEvent::Response {
            at: now,
            tag,
            ok,
            outcome: trace_outcome(&outcome),
        });
        if let Some(watch) = self.watch.as_deref_mut() {
            watch.responded(tag, outcome);
        }
        outcome
    }

    fn resolve_response(&mut self, tag: u64, now: SimTime, ok: bool) -> FrameOutcome {
        if is_probe_tag(tag) {
            if let Some(sent_at) = self.offload.probes.remove(tag) {
                if ok && now.saturating_since(sent_at) <= self.config.deadline {
                    self.offload.heartbeat_ok = true;
                }
            }
            return FrameOutcome::Probe;
        }
        if !ok {
            self.offload.flights.rejected_by_server(tag);
            return FrameOutcome::Rejected;
        }
        match self
            .offload
            .flights
            .response_arrived(tag, now, self.config.deadline)
        {
            Some(OffloadResolution::Success { latency, breakdown }) => {
                self.frame.interval.offload_success += 1;
                FrameOutcome::Success { latency, breakdown }
            }
            Some(OffloadResolution::Timeout { cause }) => {
                self.record_timeout(now, cause);
                FrameOutcome::Timeout { cause }
            }
            None => FrameOutcome::Stale,
        }
    }

    pub(crate) fn frame_arrived_at_server(&mut self, tag: u64, at: SimTime) {
        self.trace
            .record_with(|| TraceEvent::ServerArrival { at, tag });
        if !is_probe_tag(tag) {
            self.offload.flights.arrived_at_server(tag, at);
        }
    }

    pub(crate) fn frame_rejected_by_server(&mut self, tag: u64, at: SimTime) {
        self.trace
            .record_with(|| TraceEvent::ServerRejected { at, tag });
        if !is_probe_tag(tag) {
            self.offload.flights.rejected_by_server(tag);
        }
    }

    pub(crate) fn on_deadline(&mut self, tag: u64, now: SimTime) -> Option<TimeoutCause> {
        let result = if is_probe_tag(tag) {
            // An unresolved probe is a failed heartbeat; nothing to do —
            // the flag is already pessimistic.
            self.offload.probes.remove(tag);
            None
        } else if let Some(OffloadResolution::Timeout { cause }) = self
            .offload
            .flights
            .deadline_expired(tag, now, self.config.deadline)
        {
            self.record_timeout(now, cause);
            Some(cause)
        } else {
            None
        };
        self.trace.record_with(|| TraceEvent::Deadline {
            at: now,
            tag,
            timed_out: result.map(trace_cause),
        });
        if let (Some(watch), Some(cause)) = (self.watch.as_deref_mut(), result) {
            watch.timed_out(tag, cause);
        }
        result
    }

    pub(crate) fn expire_due(&mut self, now: SimTime) -> Vec<(u64, TimeoutCause)> {
        self.offload.probes.reap_overdue(now, self.config.deadline);
        let expired = self.offload.flights.expire_due(now, self.config.deadline);
        for &(_, cause) in &expired {
            self.record_timeout(now, cause);
        }
        self.trace.record_with(|| TraceEvent::ExpireDue {
            at: now,
            expired: expired
                .iter()
                .map(|&(tag, c)| (tag, trace_cause(c)))
                .collect(),
        });
        expired
    }

    pub(crate) fn tick(
        &mut self,
        now: SimTime,
        controller: &mut dyn Controller,
        transport: &mut dyn Transport,
    ) -> TickOutput {
        let config = self.config;
        let dt = config.controller_period.as_secs_f64();
        let interval = std::mem::take(&mut self.frame.interval);
        let po = interval.sent as f64 / dt;
        let pl = interval.local_done as f64 / dt;
        let timeout_rate = self
            .offload
            .timeout_rate
            .rate_at(now, config.timeout_window);
        let heartbeat_ok = self.offload.heartbeat_ok;

        let po_target = controller
            .update(&Measurement {
                fs: config.fs,
                po_achieved: po,
                pl_achieved: pl,
                timeout_rate,
                heartbeat_ok,
                dt_secs: dt,
            })
            .po_target;
        self.offload.po_target = po_target;
        self.frame.route_incr = route_increment(po_target, config.fs);

        // Accuracy-weighted throughput: completed inferences per second,
        // each weighted by its model's Table III top-1 accuracy. A timed-
        // out offload contributes nothing — which is exactly what the
        // ExpectedAccuracy selection policy optimises for.
        let accuracy_weighted = (config.local_accuracy * interval.local_done as f64
            + config.remote_accuracy * interval.offload_success as f64)
            / dt;
        self.qos.push_at(
            now,
            pl,
            po,
            interval.timeouts_network as f64 / dt,
            interval.timeouts_load as f64 / dt,
            po_target,
            accuracy_weighted,
        );
        let record = *self.qos.records().last().expect("record just pushed");

        // Heartbeat for the next interval. The flag is pessimistic until a
        // timely probe response arrives.
        self.offload.heartbeat_ok = false;
        let probe_tag = self.offload.next_probe_tag;
        self.offload.next_probe_tag += 1;
        self.trace.record_with(|| TraceEvent::Tick {
            at: now,
            qos: TickQos {
                t_secs: record.t_secs,
                pl: record.pl,
                po: record.po,
                timeouts: record.timeouts,
                timeouts_network: record.timeouts_network,
                timeouts_load: record.timeouts_load,
                po_target: record.po_target,
                accuracy_weighted_throughput: record.accuracy_weighted_throughput,
            },
            timeout_rate,
            heartbeat_ok,
            probe_tag,
        });
        self.offload.probes.insert(probe_tag, now);
        let probe_outcome = transport.send(probe_tag, config.probe_bytes, now);
        self.trace.record_with(|| TraceEvent::Submit {
            at: now,
            tag: probe_tag,
            bytes: config.probe_bytes,
            outcome: trace_submit(probe_outcome),
        });

        TickOutput {
            record,
            probe_tag,
            probe_deadline_at: now + config.deadline,
            timeout_rate,
            heartbeat_ok,
            interval,
            in_flight: self.offload.flights.in_flight(),
            probes_in_flight: self.offload.probes.len(),
        }
    }

    fn record_timeout(&mut self, now: SimTime, cause: TimeoutCause) {
        let offload = &mut *self.offload;
        offload.timeout_clock_floor = offload.timeout_clock_floor.max(now);
        let window = self.config.timeout_window;
        offload
            .timeout_rate
            .record(offload.timeout_clock_floor, window);
        match cause {
            TimeoutCause::Network => self.frame.interval.timeouts_network += 1,
            TimeoutCause::ServerLoad => self.frame.interval.timeouts_load += 1,
        }
    }
}

/// The per-frame device control loop with its state owned: what the
/// reactor fleet client and the replayer hold, one per device. (The
/// simulated fleet — the single-device experiment included, as a fleet of
/// one — holds the same state in columns and runs the same loop over
/// them.)
///
/// The runtime deliberately does **not** own the controller: hosts keep
/// their own (`Box<dyn Controller>` in the sim, `&mut dyn Controller` in
/// live) and lend it to [`DeviceRuntime::new`] and [`DeviceRuntime::tick`],
/// so controller ownership and borrow patterns stay a host concern.
#[derive(Debug)]
pub struct DeviceRuntime {
    config: RuntimeConfig,
    frame: FrameState,
    offload: OffloadState,
    qos: QosLog,
    trace: TraceHandle,
}

impl DeviceRuntime {
    /// Build the runtime and make the bootstrap decision at `t = 0` (so
    /// policies with static targets, e.g. always-offload, act from the
    /// first frame). The heartbeat is pessimistic: no probe has been
    /// answered yet.
    pub fn new(config: RuntimeConfig, controller: &mut dyn Controller) -> Self {
        Self::with_probe_base(config, controller, PROBE_TAG_BASE)
    }

    /// [`DeviceRuntime::new`] for a device whose probes are tagged
    /// `probe_tag_base + seq` (a fleet row, when replayed).
    pub(crate) fn with_probe_base(
        config: RuntimeConfig,
        controller: &mut dyn Controller,
        probe_tag_base: u64,
    ) -> Self {
        let (frame, offload) = bootstrap(&config, controller, probe_tag_base);
        DeviceRuntime {
            config,
            frame,
            offload,
            qos: QosLog::new(),
            trace: TraceHandle::disabled(),
        }
    }

    fn lend(&mut self) -> DeviceLoop<'_> {
        DeviceLoop {
            config: &self.config,
            frame: &mut self.frame,
            offload: &mut self.offload,
            qos: &mut self.qos,
            trace: &mut self.trace,
            watch: None,
        }
    }

    /// Route one captured frame against the current target.
    pub fn route(&mut self) -> Route {
        self.lend().route()
    }

    /// [`DeviceRuntime::route`] with the frame's identity attached, so
    /// the decision lands in the trace: records a capture event carrying
    /// the raw payload size (pre quality adaptation) and the route.
    /// Hosts that may record a trace use this; `route()` remains for
    /// callers without per-frame identity.
    pub fn route_frame(&mut self, frame_id: u64, bytes: u64, now: SimTime) -> Route {
        self.lend().route_frame(frame_id, bytes, now)
    }

    /// Offload one frame: count it, submit it through the transport, and
    /// start deadline tracking (unless the attempt failed instantly, in
    /// which case the timeout is recorded on the spot).
    pub fn offload(
        &mut self,
        transport: &mut dyn Transport,
        tag: u64,
        bytes: u64,
        captured_at: SimTime,
    ) -> OffloadSubmission {
        self.lend().offload(transport, tag, bytes, captured_at)
    }

    /// Count `n` completed local inferences (finishing at `now`) toward
    /// the current interval.
    pub fn note_local_done(&mut self, n: u64, now: SimTime) {
        self.lend().note_local_done(n, now)
    }

    /// A response for `tag` reached the device at `now`. `ok` is false for
    /// server rejections (batch overflow).
    pub fn on_response(&mut self, tag: u64, now: SimTime, ok: bool) -> FrameOutcome {
        self.lend().on_response(tag, now, ok)
    }

    /// The frame arrived at the server (sim adapter: refines `T_n`/`T_l`
    /// attribution for late responses).
    pub(crate) fn frame_arrived_at_server(&mut self, tag: u64, at: SimTime) {
        self.lend().frame_arrived_at_server(tag, at)
    }

    /// The server rejected the frame at `at` (batch overflow); it will
    /// resolve as a load timeout at its deadline.
    pub(crate) fn frame_rejected_by_server(&mut self, tag: u64, at: SimTime) {
        self.lend().frame_rejected_by_server(tag, at)
    }

    /// The deadline event for `tag` fired at `now` (event-driven hosts).
    /// Returns the attributed cause if the frame actually timed out.
    pub fn on_deadline(&mut self, tag: u64, now: SimTime) -> Option<TimeoutCause> {
        self.lend().on_deadline(tag, now)
    }

    /// Resolve every in-flight frame whose deadline has strictly passed
    /// (polling hosts call this each loop iteration), and discard overdue
    /// probes. Returns the expired frames in ascending tag order.
    pub fn expire_due(&mut self, now: SimTime) -> Vec<(u64, TimeoutCause)> {
        self.lend().expire_due(now)
    }

    /// One controller interval ended at `now`: measure, decide, emit the
    /// QoS record, reset the interval, and send the next heartbeat probe
    /// through the transport.
    pub fn tick(
        &mut self,
        now: SimTime,
        controller: &mut dyn Controller,
        transport: &mut dyn Transport,
    ) -> TickOutput {
        self.lend().tick(now, controller, transport)
    }

    /// Frames handed to [`DeviceRuntime::offload`] (including instant
    /// failures).
    pub fn frames_offloaded(&self) -> u64 {
        self.frame.frames_offloaded
    }

    /// Offloads whose response beat the deadline.
    pub fn successes(&self) -> u64 {
        self.offload.successes()
    }

    /// Offloads that missed the deadline, including instant failures.
    pub fn timeouts(&self) -> u64 {
        self.offload.timeouts()
    }

    /// Offload attempts that failed synchronously (no connection).
    pub fn instant_failures(&self) -> u64 {
        self.offload.instant_failures
    }

    /// Offloads still awaiting a response or deadline.
    pub fn in_flight(&self) -> usize {
        self.offload.flights.in_flight()
    }

    /// Consume the runtime, yielding the QoS log.
    pub fn into_qos(self) -> QosLog {
        self.qos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_core::Decision;

    /// Offloads everything; lets tests steer the target directly.
    struct FixedTarget(f64);

    impl Controller for FixedTarget {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn update(&mut self, m: &Measurement) -> Decision {
            m.validate();
            Decision { po_target: self.0 }
        }
        fn po_target(&self) -> f64 {
            self.0
        }
    }

    /// Scripted transport returning a fixed outcome per call.
    struct Scripted(SubmitOutcome);

    impl Transport for Scripted {
        fn send(&mut self, _tag: u64, _bytes: u64, _now: SimTime) -> SubmitOutcome {
            self.0
        }
    }

    fn config() -> RuntimeConfig {
        RuntimeConfig {
            fs: 30.0,
            deadline: SimDuration::from_millis(250),
            controller_period: SimDuration::from_secs(1),
            timeout_window: SimDuration::from_secs(3),
            probe_bytes: 25_000,
            selection: ModelSelection::AlwaysPaper,
            local_accuracy: 0.68,
            remote_accuracy: 0.77,
        }
    }

    fn runtime(target: f64) -> (DeviceRuntime, FixedTarget) {
        let mut ctl = FixedTarget(target);
        let rt = DeviceRuntime::new(config(), &mut ctl);
        (rt, ctl)
    }

    #[test]
    fn bootstrap_decision_sets_the_initial_target() {
        let (rt, _) = runtime(30.0);
        assert_eq!(rt.offload.po_target, 30.0);
    }

    #[test]
    fn accepted_offload_resolves_by_response_or_deadline() {
        let (mut rt, _) = runtime(30.0);
        let sub = rt.offload(
            &mut Scripted(SubmitOutcome::Accepted),
            1,
            8_000,
            SimTime::ZERO,
        );
        assert_eq!(sub.deadline_at, SimTime::from_millis(250));
        assert_eq!(rt.in_flight(), 1);
        let out = rt.on_response(1, SimTime::from_millis(90), true);
        assert!(matches!(out, FrameOutcome::Success { latency, .. }
            if latency == SimDuration::from_millis(90)));
        assert_eq!(rt.successes(), 1);
        assert_eq!(rt.timeouts(), 0);
    }

    #[test]
    fn network_drop_times_out_at_the_deadline_with_network_cause() {
        let (mut rt, _) = runtime(30.0);
        rt.offload(
            &mut Scripted(SubmitOutcome::DroppedInNetwork),
            2,
            8_000,
            SimTime::ZERO,
        );
        assert_eq!(rt.in_flight(), 1, "drops resolve only at the deadline");
        let cause = rt.on_deadline(2, SimTime::from_millis(250));
        assert_eq!(cause, Some(TimeoutCause::Network));
        assert_eq!(rt.timeouts(), 1);
    }

    #[test]
    fn instant_failure_is_an_immediate_network_timeout() {
        let (mut rt, _) = runtime(30.0);
        rt.offload(
            &mut Scripted(SubmitOutcome::FailedInstantly),
            3,
            8_000,
            SimTime::ZERO,
        );
        assert_eq!(rt.in_flight(), 0);
        assert_eq!(rt.timeouts(), 1);
        assert_eq!(rt.instant_failures(), 1);
        assert_eq!(rt.frames_offloaded(), 1);
    }

    #[test]
    fn expire_due_resolves_only_strictly_overdue_frames_in_tag_order() {
        let (mut rt, _) = runtime(30.0);
        let mut tp = Scripted(SubmitOutcome::Accepted);
        rt.offload(&mut tp, 7, 8_000, SimTime::ZERO);
        rt.offload(&mut tp, 5, 8_000, SimTime::ZERO);
        rt.offload(&mut tp, 9, 8_000, SimTime::from_millis(100));
        assert!(rt.expire_due(SimTime::from_millis(250)).is_empty());
        let expired = rt.expire_due(SimTime::from_millis(251));
        assert_eq!(
            expired,
            vec![(5, TimeoutCause::Network), (7, TimeoutCause::Network)]
        );
        assert_eq!(rt.in_flight(), 1);
    }

    #[test]
    fn probe_response_within_deadline_sets_the_heartbeat() {
        let (mut rt, mut ctl) = runtime(15.0);
        let mut tp = Scripted(SubmitOutcome::Accepted);
        let out = rt.tick(SimTime::from_secs(1), &mut ctl, &mut tp);
        assert!(is_probe_tag(out.probe_tag));
        assert_eq!(out.probe_deadline_at, SimTime::from_millis(1250));
        rt.on_response(out.probe_tag, SimTime::from_millis(1100), true);
        // The next tick's measurement sees heartbeat_ok = true; observe it
        // indirectly: a second response for the same (consumed) probe is
        // inert, and an overdue probe would not have set the flag.
        assert!(rt.offload.heartbeat_ok);
    }

    #[test]
    fn late_or_rejected_probe_leaves_the_heartbeat_pessimistic() {
        let (mut rt, mut ctl) = runtime(15.0);
        let mut tp = Scripted(SubmitOutcome::Accepted);
        let out = rt.tick(SimTime::from_secs(1), &mut ctl, &mut tp);
        rt.on_response(out.probe_tag, SimTime::from_secs(2), true); // late
        assert!(!rt.offload.heartbeat_ok);
        let out = rt.tick(SimTime::from_secs(2), &mut ctl, &mut tp);
        rt.on_response(out.probe_tag, SimTime::from_millis(2050), false); // rejected
        assert!(!rt.offload.heartbeat_ok);
    }

    #[test]
    fn tick_emits_interval_rates_and_resets_counters() {
        let (mut rt, mut ctl) = runtime(30.0);
        let mut tp = Scripted(SubmitOutcome::FailedInstantly);
        for tag in 0..10 {
            rt.offload(&mut tp, tag, 8_000, SimTime::from_millis(tag * 20));
        }
        rt.note_local_done(5, SimTime::from_millis(500));
        let out = rt.tick(SimTime::from_secs(1), &mut ctl, &mut tp);
        assert_eq!(out.record.po, 10.0);
        assert_eq!(out.record.pl, 5.0);
        assert_eq!(out.record.timeouts, 10.0);
        assert_eq!(out.record.timeouts_network, 10.0);
        assert_eq!(out.record.po_target, 30.0);
        assert_eq!(rt.qos.len(), 1);
        // Counters reset: a second empty tick reports zero rates.
        let out = rt.tick(SimTime::from_secs(2), &mut ctl, &mut tp);
        assert_eq!(out.record.po, 0.0);
        assert_eq!(out.record.pl, 0.0);
        assert_eq!(out.record.timeouts, 0.0);
    }

    #[test]
    fn rejection_resolves_as_a_load_timeout_at_the_deadline() {
        let (mut rt, _) = runtime(30.0);
        rt.offload(
            &mut Scripted(SubmitOutcome::Accepted),
            4,
            8_000,
            SimTime::ZERO,
        );
        assert_eq!(
            rt.on_response(4, SimTime::from_millis(60), false),
            FrameOutcome::Rejected
        );
        assert_eq!(rt.in_flight(), 1, "rejections resolve at the deadline");
        assert_eq!(
            rt.on_deadline(4, SimTime::from_millis(250)),
            Some(TimeoutCause::ServerLoad)
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn target_above_fs_panics() {
        route_increment(31.0, 30.0);
    }

    #[test]
    fn splitter_actuates_the_bootstrap_target() {
        let (mut rt, _) = runtime(15.0);
        let offloads = (0..30).filter(|_| rt.route() == Route::Offload).count();
        assert_eq!(offloads, 15, "half target offloads every other frame");
    }

    #[test]
    fn wall_clock_round_trips_instants() {
        let clock = WallClock::start();
        let later = clock.origin + std::time::Duration::from_millis(1234);
        assert_eq!(clock.at(later), SimTime::from_millis(1234));
        assert_eq!(clock.at(clock.origin), SimTime::ZERO);
        // Instants before the origin saturate to t = 0 rather than panic.
        let early = clock.origin - std::time::Duration::from_millis(5);
        assert_eq!(clock.at(early), SimTime::ZERO);
    }
}
