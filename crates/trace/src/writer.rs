//! The recording side: an append-only [`TraceWriter`] and the
//! disabled-by-default [`TraceHandle`] hosts embed in the hot path.

use crate::codec::{put_event, put_header};
use crate::{TraceEvent, TraceHeader};

/// Append-only encoder of a trace: header up front, then one
/// [`TraceEvent`] per [`TraceWriter::record`] call, delta-encoded in
/// call order.
#[derive(Debug)]
pub struct TraceWriter {
    buf: Vec<u8>,
    last_at_us: u64,
}

impl TraceWriter {
    /// Start a trace with the given run parameters.
    pub fn new(header: &TraceHeader) -> Self {
        let mut buf = Vec::with_capacity(256);
        put_header(&mut buf, header);
        TraceWriter { buf, last_at_us: 0 }
    }

    /// Append one event.
    pub fn record(&mut self, event: &TraceEvent) {
        put_event(&mut self.buf, &mut self.last_at_us, event);
    }

    /// Finish the trace, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// The cheap on/off switch hosts thread through `DeviceRuntime` — the
/// same pattern as `ff-telemetry`'s disabled pipeline: when disabled
/// (the default), every record call is a single `None` check and the
/// event is never even constructed.
#[derive(Debug, Default)]
pub struct TraceHandle(Option<Box<TraceWriter>>);

impl TraceHandle {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A handle recording into a fresh writer for the given run.
    pub fn recording(header: &TraceHeader) -> Self {
        TraceHandle(Some(Box::new(TraceWriter::new(header))))
    }

    /// Record the event produced by `make` — which is only invoked (and
    /// its arguments only materialized) when recording is enabled.
    #[inline]
    pub fn record_with(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(w) = &mut self.0 {
            w.record(&make());
        }
    }

    /// Finish recording, yielding the encoded trace (`None` when the
    /// handle was disabled).
    pub fn finish(self) -> Option<Vec<u8>> {
        self.0.map(|w| w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Trace, TraceRoute};
    use ff_sim::SimTime;

    fn header() -> TraceHeader {
        TraceHeader {
            fs: 30.0,
            deadline_us: 250_000,
            controller_period_us: 1_000_000,
            timeout_window_us: 3_000_000,
            probe_bytes: 25_000,
            seed: 1,
            controller: "t".into(),
            selection: 0,
            selection_margin: 0.0,
            local_accuracy: 0.68,
            remote_accuracy: 0.77,
        }
    }

    #[test]
    fn writer_bytes_equal_trace_encode() {
        let events = vec![
            TraceEvent::Capture {
                at: SimTime::from_micros(0),
                frame_id: 0,
                bytes: 24_000,
                route: TraceRoute::Local,
            },
            TraceEvent::LocalDone {
                at: SimTime::from_micros(76_000),
                n: 1,
            },
        ];
        let mut w = TraceWriter::new(&header());
        for e in &events {
            w.record(e);
        }
        let via_writer = w.finish();
        let via_trace = Trace {
            header: header(),
            events,
        }
        .encode();
        assert_eq!(via_writer, via_trace);
    }

    #[test]
    fn disabled_handle_records_nothing_and_never_builds_events() {
        let mut h = TraceHandle::disabled();
        assert!(h.0.is_none());
        h.record_with(|| unreachable!("disabled handle must not build events"));
        assert!(h.finish().is_none());
    }

    #[test]
    fn recording_handle_round_trips() {
        let mut h = TraceHandle::recording(&header());
        assert!(h.0.is_some());
        h.record_with(|| TraceEvent::LocalDone {
            at: SimTime::from_micros(10),
            n: 3,
        });
        let bytes = h.finish().unwrap();
        let t = Trace::decode(&bytes).unwrap();
        assert_eq!(t.header, header());
        assert_eq!(t.events.len(), 1);
    }
}
