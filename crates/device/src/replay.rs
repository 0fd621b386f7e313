//! Replay verification: re-execute a recorded trace through a fresh
//! [`DeviceRuntime`] and assert every decision matches bit-for-bit.
//!
//! A trace (`ff-trace`) is the exact call log of a `DeviceRuntime`: the
//! runtime's state is a pure function of that sequence, so driving a
//! freshly constructed runtime with the recorded calls must reproduce
//! every recorded output — routing decisions, response resolutions,
//! deadline verdicts, QoS records (compared on raw `f64` bits), probe
//! tags, and the end-of-run counters. [`replay_verify`] does exactly
//! that and reports the first divergence, which makes a trace both a
//! regression artifact ("this exact run must keep behaving like this")
//! and a cross-host check (a live recording verifies on any machine).

use crate::runtime::{
    is_probe_tag, trace_cause, trace_outcome, DeviceRuntime, RuntimeConfig, SubmitOutcome,
    Transport, PROBE_TAG_BASE,
};
use crate::selection::ModelSelection;
use crate::splitter::Route;
use crate::ControllerSpec;
use ff_core::Controller;
use ff_sim::{SimDuration, SimTime};
use ff_trace::{Trace, TraceEvent, TraceRoute, TraceSubmitOutcome};

/// Statistics of a successful replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Total events replayed (including the `End` record).
    pub events: u64,
    /// Frame captures re-routed.
    pub captures: u64,
    /// Transport submissions re-verified (offloads and probes).
    pub submits: u64,
    /// Controller ticks whose QoS record matched bit-for-bit.
    pub ticks: u64,
}

/// The first point where a replay diverged from the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Index of the offending event in `trace.events` (or the event
    /// count, for end-of-trace problems).
    pub index: usize,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at event {}: {}",
            self.index, self.detail
        )
    }
}

impl std::error::Error for ReplayMismatch {}

/// Transport stand-in for replay: the replayer arms it with the recorded
/// submission before each call that sends, and it checks the runtime
/// asks for exactly that submission — then answers with the recorded
/// verdict, so the replayed runtime observes the recorded world.
#[derive(Default)]
struct ReplayTransport {
    expected: Option<(u64, u64, SimTime, TraceSubmitOutcome)>,
    mismatch: Option<String>,
}

impl ReplayTransport {
    fn arm(&mut self, tag: u64, bytes: u64, at: SimTime, outcome: TraceSubmitOutcome) {
        debug_assert!(self.expected.is_none(), "previous submission unconsumed");
        self.expected = Some((tag, bytes, at, outcome));
    }

    fn note(&mut self, detail: String) {
        self.mismatch.get_or_insert(detail);
    }
}

impl Transport for ReplayTransport {
    fn send(&mut self, tag: u64, bytes: u64, now: SimTime) -> SubmitOutcome {
        let Some((etag, ebytes, eat, eout)) = self.expected.take() else {
            self.note(format!("unexpected transport send (tag {tag})"));
            return SubmitOutcome::FailedInstantly;
        };
        if (tag, bytes, now) != (etag, ebytes, eat) {
            self.note(format!(
                "submission mismatch: recorded (tag {etag}, {ebytes} B, t={} µs), \
                 replayed (tag {tag}, {bytes} B, t={} µs)",
                eat.as_micros(),
                now.as_micros()
            ));
        }
        match eout {
            TraceSubmitOutcome::Accepted => SubmitOutcome::Accepted,
            TraceSubmitOutcome::DroppedInNetwork => SubmitOutcome::DroppedInNetwork,
            TraceSubmitOutcome::FailedInstantly => SubmitOutcome::FailedInstantly,
        }
    }
}

/// Re-run `trace` through a fresh runtime with the controller named in
/// its header, at its default settings
/// ([`ControllerSpec::from_name`]), and assert every recorded decision
/// reproduces exactly.
pub fn replay_verify(trace: &Trace) -> Result<ReplayReport, ReplayMismatch> {
    let spec = ControllerSpec::from_name(&trace.header.controller).ok_or(ReplayMismatch {
        index: 0,
        detail: format!("unknown controller {:?} in header", trace.header.controller),
    })?;
    replay_verify_with(trace, spec.build().as_mut())
}

/// [`replay_verify`] with a caller-supplied controller: tuned gains the
/// header does not carry, or a controller outside the lineup. It must
/// have the recorded dynamics.
pub fn replay_verify_with(
    trace: &Trace,
    controller: &mut dyn Controller,
) -> Result<ReplayReport, ReplayMismatch> {
    let h = &trace.header;
    let selection =
        ModelSelection::from_code(h.selection, h.selection_margin).ok_or(ReplayMismatch {
            index: 0,
            detail: format!("unknown model-selection code {} in header", h.selection),
        })?;
    // A fleet row tags its probes from its own packed base, not
    // `PROBE_TAG_BASE`; the recording's first tick names it.
    let probe_tag_base = trace
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Tick { probe_tag, .. } => Some(*probe_tag),
            _ => None,
        })
        .unwrap_or(PROBE_TAG_BASE);
    if !is_probe_tag(probe_tag_base) {
        return Err(ReplayMismatch {
            index: 0,
            detail: format!("first tick's probe tag {probe_tag_base} is outside the probe range"),
        });
    }
    let mut rt = DeviceRuntime::with_probe_base(
        RuntimeConfig {
            fs: h.fs,
            deadline: SimDuration::from_micros(h.deadline_us),
            controller_period: SimDuration::from_micros(h.controller_period_us),
            timeout_window: SimDuration::from_micros(h.timeout_window_us),
            probe_bytes: h.probe_bytes,
            selection,
            local_accuracy: h.local_accuracy,
            remote_accuracy: h.remote_accuracy,
        },
        controller,
        probe_tag_base,
    );
    let mut transport = ReplayTransport::default();
    let mut report = ReplayReport::default();
    let fail = |index: usize, detail: String| Err(ReplayMismatch { index, detail });

    let events = &trace.events;
    let mut i = 0;
    while i < events.len() {
        match &events[i] {
            TraceEvent::Capture {
                at,
                frame_id,
                bytes,
                route,
            } => {
                report.captures += 1;
                let got = rt.route_frame(*frame_id, *bytes, *at);
                let got_route = match got {
                    Route::Offload => TraceRoute::Offload,
                    Route::Local => TraceRoute::Local,
                };
                if got_route != *route {
                    return fail(
                        i,
                        format!(
                            "frame {frame_id}: recorded route {route:?}, replayed {got_route:?}"
                        ),
                    );
                }
                if got == Route::Offload {
                    // The triggering submission is recorded immediately
                    // after its capture.
                    let Some(TraceEvent::Submit {
                        at: sat,
                        tag,
                        bytes: sbytes,
                        outcome,
                    }) = events.get(i + 1)
                    else {
                        return fail(i + 1, "offloaded capture not followed by its submit".into());
                    };
                    transport.arm(*tag, *sbytes, *sat, *outcome);
                    rt.offload(&mut transport, *tag, *sbytes, *sat);
                    if let Some(detail) = transport.mismatch.take() {
                        return fail(i + 1, detail);
                    }
                    report.submits += 1;
                    i += 1; // consume the submit
                }
            }

            TraceEvent::Submit { tag, .. } => {
                return fail(
                    i,
                    format!("submit of tag {tag} without a triggering capture or tick"),
                );
            }

            TraceEvent::ServerArrival { at, tag } => rt.frame_arrived_at_server(*tag, *at),

            TraceEvent::ServerRejected { at, tag } => rt.frame_rejected_by_server(*tag, *at),

            TraceEvent::Response {
                at,
                tag,
                ok,
                outcome,
            } => {
                let got = trace_outcome(&rt.on_response(*tag, *at, *ok));
                if got != *outcome {
                    return fail(
                        i,
                        format!("response for tag {tag}: recorded {outcome:?}, replayed {got:?}"),
                    );
                }
            }

            TraceEvent::Deadline { at, tag, timed_out } => {
                let got = rt.on_deadline(*tag, *at).map(trace_cause);
                if got != *timed_out {
                    return fail(
                        i,
                        format!("deadline for tag {tag}: recorded {timed_out:?}, replayed {got:?}"),
                    );
                }
            }

            TraceEvent::ExpireDue { at, expired } => {
                let got: Vec<_> = rt
                    .expire_due(*at)
                    .into_iter()
                    .map(|(tag, c)| (tag, trace_cause(c)))
                    .collect();
                if got != *expired {
                    return fail(
                        i,
                        format!("expire sweep: recorded {expired:?}, replayed {got:?}"),
                    );
                }
            }

            TraceEvent::LocalDone { at, n } => rt.note_local_done(*n, *at),

            TraceEvent::Tick {
                at, qos, probe_tag, ..
            } => {
                // The tick's probe submission is recorded immediately
                // after the tick itself.
                let Some(TraceEvent::Submit {
                    at: sat,
                    tag,
                    bytes: sbytes,
                    outcome,
                }) = events.get(i + 1)
                else {
                    return fail(i + 1, "tick not followed by its probe submit".into());
                };
                transport.arm(*tag, *sbytes, *sat, *outcome);
                let out = rt.tick(*at, controller, &mut transport);
                if let Some(detail) = transport.mismatch.take() {
                    return fail(i + 1, detail);
                }
                if out.probe_tag != *probe_tag {
                    return fail(
                        i,
                        format!(
                            "tick probe tag: recorded {probe_tag}, replayed {}",
                            out.probe_tag
                        ),
                    );
                }
                let r = out.record;
                let got = [
                    r.t_secs,
                    r.pl,
                    r.po,
                    r.timeouts,
                    r.timeouts_network,
                    r.timeouts_load,
                    r.po_target,
                    r.accuracy_weighted_throughput,
                ];
                let want = [
                    qos.t_secs,
                    qos.pl,
                    qos.po,
                    qos.timeouts,
                    qos.timeouts_network,
                    qos.timeouts_load,
                    qos.po_target,
                    qos.accuracy_weighted_throughput,
                ];
                if got.map(f64::to_bits) != want.map(f64::to_bits) {
                    return fail(
                        i,
                        format!("tick QoS record: recorded {want:?}, replayed {got:?}"),
                    );
                }
                report.submits += 1;
                report.ticks += 1;
                i += 1; // consume the probe submit
            }

            TraceEvent::End {
                frames_offloaded,
                successes,
                timeouts,
                instant_failures,
                ..
            } => {
                let got = (
                    rt.frames_offloaded(),
                    rt.successes(),
                    rt.timeouts(),
                    rt.instant_failures(),
                );
                let want = (*frames_offloaded, *successes, *timeouts, *instant_failures);
                if got != want {
                    return fail(
                        i,
                        format!(
                            "end counters (offloaded, successes, timeouts, instant failures): \
                             recorded {want:?}, replayed {got:?}"
                        ),
                    );
                }
            }
        }
        i += 1;
    }
    report.events = events.len() as u64;
    Ok(report)
}
