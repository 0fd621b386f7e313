//! The wire codec: LEB128 varints, zigzag time deltas, and the
//! per-opcode event layouts (see the crate docs for the format).

use crate::{
    TickQos, Trace, TraceError, TraceEvent, TraceHeader, TraceResponseOutcome, TraceRoute,
    TraceSubmitOutcome, TraceTimeoutCause, TRACE_MAGIC, TRACE_SCHEMA_VERSION,
};
use ff_sim::SimTime;

// Event opcodes. Stable within a schema version; adding an opcode or
// changing a layout requires bumping TRACE_SCHEMA_VERSION.
const OP_CAPTURE: u8 = 1;
const OP_SUBMIT: u8 = 2;
const OP_SERVER_ARRIVAL: u8 = 3;
const OP_SERVER_REJECTED: u8 = 4;
const OP_RESPONSE: u8 = 5;
const OP_DEADLINE: u8 = 6;
const OP_EXPIRE_DUE: u8 = 7;
const OP_LOCAL_DONE: u8 = 8;
const OP_TICK: u8 = 9;
const OP_END: u8 = 10;

// ---- primitive writers ----

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, zigzag(v));
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

// ---- primitive reader ----

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.buf.get(self.pos).ok_or(TraceError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(TraceError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let payload = (byte & 0x7f) as u64;
            // The 10th byte of a u64 varint may only carry the top bit.
            if shift == 63 && payload > 1 {
                return Err(TraceError::BadValue("varint overflows u64"));
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(TraceError::BadValue("varint longer than 10 bytes"))
    }

    fn zigzag(&mut self) -> Result<i64, TraceError> {
        Ok(unzigzag(self.varint()?))
    }

    fn f64(&mut self) -> Result<f64, TraceError> {
        let raw = self.bytes(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    fn bool(&mut self) -> Result<bool, TraceError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TraceError::BadValue("bool must be 0 or 1")),
        }
    }
}

// ---- enum <-> code maps ----

fn route_code(r: TraceRoute) -> u8 {
    match r {
        TraceRoute::Offload => 0,
        TraceRoute::Local => 1,
    }
}

fn route_from(code: u8) -> Result<TraceRoute, TraceError> {
    match code {
        0 => Ok(TraceRoute::Offload),
        1 => Ok(TraceRoute::Local),
        _ => Err(TraceError::BadValue("unknown route code")),
    }
}

fn submit_code(o: TraceSubmitOutcome) -> u8 {
    match o {
        TraceSubmitOutcome::Accepted => 0,
        TraceSubmitOutcome::DroppedInNetwork => 1,
        TraceSubmitOutcome::FailedInstantly => 2,
    }
}

fn submit_from(code: u8) -> Result<TraceSubmitOutcome, TraceError> {
    match code {
        0 => Ok(TraceSubmitOutcome::Accepted),
        1 => Ok(TraceSubmitOutcome::DroppedInNetwork),
        2 => Ok(TraceSubmitOutcome::FailedInstantly),
        _ => Err(TraceError::BadValue("unknown submit-outcome code")),
    }
}

fn cause_code(c: TraceTimeoutCause) -> u8 {
    match c {
        TraceTimeoutCause::Network => 0,
        TraceTimeoutCause::ServerLoad => 1,
    }
}

fn cause_from(code: u8) -> Result<TraceTimeoutCause, TraceError> {
    match code {
        0 => Ok(TraceTimeoutCause::Network),
        1 => Ok(TraceTimeoutCause::ServerLoad),
        _ => Err(TraceError::BadValue("unknown timeout-cause code")),
    }
}

// Response outcomes: 0 probe, 1 success (+latency), 2 timeout (+cause),
// 3 rejected, 4 stale.
fn put_response_outcome(buf: &mut Vec<u8>, o: TraceResponseOutcome) {
    match o {
        TraceResponseOutcome::Probe => buf.push(0),
        TraceResponseOutcome::Success { latency_us } => {
            buf.push(1);
            put_varint(buf, latency_us);
        }
        TraceResponseOutcome::Timeout { cause } => {
            buf.push(2);
            buf.push(cause_code(cause));
        }
        TraceResponseOutcome::Rejected => buf.push(3),
        TraceResponseOutcome::Stale => buf.push(4),
    }
}

fn response_outcome_from(r: &mut Reader<'_>) -> Result<TraceResponseOutcome, TraceError> {
    match r.u8()? {
        0 => Ok(TraceResponseOutcome::Probe),
        1 => Ok(TraceResponseOutcome::Success {
            latency_us: r.varint()?,
        }),
        2 => Ok(TraceResponseOutcome::Timeout {
            cause: cause_from(r.u8()?)?,
        }),
        3 => Ok(TraceResponseOutcome::Rejected),
        4 => Ok(TraceResponseOutcome::Stale),
        _ => Err(TraceError::BadValue("unknown response-outcome code")),
    }
}

// ---- header ----

pub(crate) fn put_header(buf: &mut Vec<u8>, h: &TraceHeader) {
    buf.extend_from_slice(&TRACE_MAGIC);
    put_varint(buf, TRACE_SCHEMA_VERSION as u64);
    put_f64(buf, h.fs);
    put_varint(buf, h.deadline_us);
    put_varint(buf, h.controller_period_us);
    put_varint(buf, h.timeout_window_us);
    put_varint(buf, h.probe_bytes);
    put_varint(buf, h.seed);
    put_varint(buf, h.controller.len() as u64);
    buf.extend_from_slice(h.controller.as_bytes());
    buf.push(h.selection);
    put_f64(buf, h.selection_margin);
    put_f64(buf, h.local_accuracy);
    put_f64(buf, h.remote_accuracy);
}

fn read_header(r: &mut Reader<'_>) -> Result<TraceHeader, TraceError> {
    if r.bytes(4)? != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let schema = r.varint()?;
    if schema != TRACE_SCHEMA_VERSION as u64 {
        return Err(TraceError::UnsupportedSchema(schema));
    }
    let fs = r.f64()?;
    let deadline_us = r.varint()?;
    let controller_period_us = r.varint()?;
    let timeout_window_us = r.varint()?;
    let probe_bytes = r.varint()?;
    let seed = r.varint()?;
    let name_len = r.varint()?;
    if name_len > r.buf.len() as u64 {
        return Err(TraceError::Truncated);
    }
    let controller = std::str::from_utf8(r.bytes(name_len as usize)?)
        .map_err(|_| TraceError::BadValue("controller name is not UTF-8"))?
        .to_string();
    let selection = r.u8()?;
    let selection_margin = r.f64()?;
    let local_accuracy = r.f64()?;
    let remote_accuracy = r.f64()?;
    Ok(TraceHeader {
        fs,
        deadline_us,
        controller_period_us,
        timeout_window_us,
        probe_bytes,
        seed,
        controller,
        selection,
        selection_margin,
        local_accuracy,
        remote_accuracy,
    })
}

// ---- events ----

/// Append one event, delta-encoding its time against `last_at_us`
/// (updated in place). Shared by [`crate::TraceWriter`] and
/// [`encode_trace`] so a re-encoded trace is byte-identical.
pub(crate) fn put_event(buf: &mut Vec<u8>, last_at_us: &mut u64, e: &TraceEvent) {
    let at_us = e.at().as_micros();
    let opcode = match e {
        TraceEvent::Capture { .. } => OP_CAPTURE,
        TraceEvent::Submit { .. } => OP_SUBMIT,
        TraceEvent::ServerArrival { .. } => OP_SERVER_ARRIVAL,
        TraceEvent::ServerRejected { .. } => OP_SERVER_REJECTED,
        TraceEvent::Response { .. } => OP_RESPONSE,
        TraceEvent::Deadline { .. } => OP_DEADLINE,
        TraceEvent::ExpireDue { .. } => OP_EXPIRE_DUE,
        TraceEvent::LocalDone { .. } => OP_LOCAL_DONE,
        TraceEvent::Tick { .. } => OP_TICK,
        TraceEvent::End { .. } => OP_END,
    };
    buf.push(opcode);
    put_zigzag(buf, at_us.wrapping_sub(*last_at_us) as i64);
    *last_at_us = at_us;
    match e {
        TraceEvent::Capture {
            frame_id,
            bytes,
            route,
            ..
        } => {
            put_varint(buf, *frame_id);
            put_varint(buf, *bytes);
            buf.push(route_code(*route));
        }
        TraceEvent::Submit {
            tag,
            bytes,
            outcome,
            ..
        } => {
            put_varint(buf, *tag);
            put_varint(buf, *bytes);
            buf.push(submit_code(*outcome));
        }
        TraceEvent::ServerArrival { tag, .. } | TraceEvent::ServerRejected { tag, .. } => {
            put_varint(buf, *tag);
        }
        TraceEvent::Response {
            tag, ok, outcome, ..
        } => {
            put_varint(buf, *tag);
            put_bool(buf, *ok);
            put_response_outcome(buf, *outcome);
        }
        TraceEvent::Deadline { tag, timed_out, .. } => {
            put_varint(buf, *tag);
            match timed_out {
                None => buf.push(0),
                Some(cause) => buf.push(1 + cause_code(*cause)),
            }
        }
        TraceEvent::ExpireDue { expired, .. } => {
            put_varint(buf, expired.len() as u64);
            for (tag, cause) in expired {
                put_varint(buf, *tag);
                buf.push(cause_code(*cause));
            }
        }
        TraceEvent::LocalDone { n, .. } => put_varint(buf, *n),
        TraceEvent::Tick {
            qos,
            timeout_rate,
            heartbeat_ok,
            probe_tag,
            ..
        } => {
            put_f64(buf, qos.t_secs);
            put_f64(buf, qos.pl);
            put_f64(buf, qos.po);
            put_f64(buf, qos.timeouts);
            put_f64(buf, qos.timeouts_network);
            put_f64(buf, qos.timeouts_load);
            put_f64(buf, qos.po_target);
            put_f64(buf, qos.accuracy_weighted_throughput);
            put_f64(buf, *timeout_rate);
            put_bool(buf, *heartbeat_ok);
            put_varint(buf, *probe_tag);
        }
        TraceEvent::End {
            frames_offloaded,
            successes,
            timeouts,
            instant_failures,
            ..
        } => {
            put_varint(buf, *frames_offloaded);
            put_varint(buf, *successes);
            put_varint(buf, *timeouts);
            put_varint(buf, *instant_failures);
        }
    }
}

fn read_event(r: &mut Reader<'_>, last_at_us: &mut u64) -> Result<TraceEvent, TraceError> {
    let opcode = r.u8()?;
    let dt = r.zigzag()?;
    let at_us = last_at_us
        .checked_add_signed(dt)
        .ok_or(TraceError::BadValue("event time out of range"))?;
    *last_at_us = at_us;
    let at = SimTime::from_micros(at_us);
    match opcode {
        OP_CAPTURE => Ok(TraceEvent::Capture {
            at,
            frame_id: r.varint()?,
            bytes: r.varint()?,
            route: route_from(r.u8()?)?,
        }),
        OP_SUBMIT => Ok(TraceEvent::Submit {
            at,
            tag: r.varint()?,
            bytes: r.varint()?,
            outcome: submit_from(r.u8()?)?,
        }),
        OP_SERVER_ARRIVAL => Ok(TraceEvent::ServerArrival {
            at,
            tag: r.varint()?,
        }),
        OP_SERVER_REJECTED => Ok(TraceEvent::ServerRejected {
            at,
            tag: r.varint()?,
        }),
        OP_RESPONSE => Ok(TraceEvent::Response {
            at,
            tag: r.varint()?,
            ok: r.bool()?,
            outcome: response_outcome_from(r)?,
        }),
        OP_DEADLINE => {
            let tag = r.varint()?;
            let timed_out = match r.u8()? {
                0 => None,
                code => Some(cause_from(code - 1)?),
            };
            Ok(TraceEvent::Deadline { at, tag, timed_out })
        }
        OP_EXPIRE_DUE => {
            let count = r.varint()?;
            // Each entry is at least 2 bytes; a count beyond the input's
            // remaining capacity is corruption, not a huge allocation.
            if count > (r.buf.len() - r.pos) as u64 {
                return Err(TraceError::Truncated);
            }
            let mut expired = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let tag = r.varint()?;
                let cause = cause_from(r.u8()?)?;
                expired.push((tag, cause));
            }
            Ok(TraceEvent::ExpireDue { at, expired })
        }
        OP_LOCAL_DONE => Ok(TraceEvent::LocalDone { at, n: r.varint()? }),
        OP_TICK => Ok(TraceEvent::Tick {
            at,
            qos: TickQos {
                t_secs: r.f64()?,
                pl: r.f64()?,
                po: r.f64()?,
                timeouts: r.f64()?,
                timeouts_network: r.f64()?,
                timeouts_load: r.f64()?,
                po_target: r.f64()?,
                accuracy_weighted_throughput: r.f64()?,
            },
            timeout_rate: r.f64()?,
            heartbeat_ok: r.bool()?,
            probe_tag: r.varint()?,
        }),
        OP_END => Ok(TraceEvent::End {
            at,
            frames_offloaded: r.varint()?,
            successes: r.varint()?,
            timeouts: r.varint()?,
            instant_failures: r.varint()?,
        }),
        other => Err(TraceError::BadOpcode(other)),
    }
}

/// Encode a whole trace (header + events) to bytes.
pub(crate) fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + trace.events.len() * 8);
    put_header(&mut buf, &trace.header);
    let mut last_at_us = 0u64;
    for e in &trace.events {
        put_event(&mut buf, &mut last_at_us, e);
    }
    buf
}

/// Decode a whole trace from bytes. Total — returns [`TraceError`] on
/// any corruption, never panics.
pub(crate) fn decode_trace(bytes: &[u8]) -> Result<Trace, TraceError> {
    let mut r = Reader::new(bytes);
    let header = read_header(&mut r)?;
    let mut events = Vec::new();
    let mut last_at_us = 0u64;
    while !r.done() {
        events.push(read_event(&mut r, &mut last_at_us)?);
    }
    Ok(Trace { header, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> TraceHeader {
        TraceHeader {
            fs: 30.0,
            deadline_us: 250_000,
            controller_period_us: 1_000_000,
            timeout_window_us: 3_000_000,
            probe_bytes: 25_000,
            seed: 42,
            controller: "framefeedback".into(),
            selection: 0,
            selection_margin: 0.0,
            local_accuracy: 0.68,
            remote_accuracy: 0.77,
        }
    }

    #[test]
    fn varint_round_trips_boundary_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.done());
        }
    }

    #[test]
    fn zigzag_round_trips_signed_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace {
            header: header(),
            events: vec![],
        };
        assert_eq!(decode_trace(&t.encode()).unwrap(), t);
    }

    #[test]
    fn out_of_order_timestamps_encode() {
        // A wall-clock host can stamp a response before an already-
        // recorded later event; deltas are signed for exactly this.
        let t = Trace {
            header: header(),
            events: vec![
                TraceEvent::LocalDone {
                    at: SimTime::from_micros(5_000),
                    n: 1,
                },
                TraceEvent::LocalDone {
                    at: SimTime::from_micros(2_000),
                    n: 2,
                },
            ],
        };
        assert_eq!(decode_trace(&t.encode()).unwrap(), t);
    }

    #[test]
    fn completions_logged_when_applied_round_trip_in_call_order() {
        // A fleet row: the capture at 1.0 s is recorded first, then the
        // two completions its engine applied before taking the frame,
        // each stamped with its own earlier instant.
        let at = SimTime::from_micros;
        let t = Trace {
            header: header(),
            events: vec![
                TraceEvent::Capture {
                    at: at(1_000_000),
                    frame_id: 30,
                    bytes: 24_000,
                    route: TraceRoute::Local,
                },
                TraceEvent::LocalDone {
                    at: at(930_000),
                    n: 1,
                },
                TraceEvent::LocalDone {
                    at: at(990_000),
                    n: 1,
                },
                TraceEvent::Capture {
                    at: at(1_033_333),
                    frame_id: 31,
                    bytes: 24_000,
                    route: TraceRoute::Offload,
                },
            ],
        };
        let decoded = decode_trace(&t.encode()).unwrap();
        assert_eq!(decoded, t);
        let stamps: Vec<u64> = decoded.events.iter().map(|e| e.at().as_micros()).collect();
        assert_eq!(stamps, [1_000_000, 930_000, 990_000, 1_033_333]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode_trace(b"NOPE"), Err(TraceError::BadMagic));
        assert_eq!(decode_trace(b""), Err(TraceError::Truncated));
    }

    #[test]
    fn future_schema_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&TRACE_MAGIC);
        put_varint(&mut buf, 999);
        assert_eq!(decode_trace(&buf), Err(TraceError::UnsupportedSchema(999)));
    }

    #[test]
    fn v1_traces_are_rejected_with_their_version() {
        // Schema 1 predates the selection fields; a v1 trace must fail
        // loudly rather than misparse its header tail as f64s.
        let mut buf = Vec::new();
        buf.extend_from_slice(&TRACE_MAGIC);
        put_varint(&mut buf, 1);
        assert_eq!(decode_trace(&buf), Err(TraceError::UnsupportedSchema(1)));
    }

    #[test]
    fn truncation_errors_cleanly_at_every_length() {
        let t = Trace {
            header: header(),
            events: vec![TraceEvent::Capture {
                at: SimTime::from_micros(33_333),
                frame_id: 7,
                bytes: 24_000,
                route: TraceRoute::Offload,
            }],
        };
        let full = t.encode();
        // Events run to end-of-input (no count field), so a cut exactly
        // at an event boundary is a valid shorter trace; every other
        // prefix must error, never panic.
        let header_len = Trace {
            header: header(),
            events: vec![],
        }
        .encode()
        .len();
        for n in 0..full.len() {
            let decoded = decode_trace(&full[..n]);
            if n == header_len {
                assert_eq!(decoded.unwrap().events.len(), 0);
            } else {
                assert!(decoded.is_err(), "prefix of {n} bytes decoded");
            }
        }
        assert!(decode_trace(&full).is_ok());
    }

    #[test]
    fn expire_due_count_beyond_input_is_truncation_not_alloc() {
        let t = Trace {
            header: header(),
            events: vec![],
        };
        let mut buf = t.encode();
        buf.push(OP_EXPIRE_DUE);
        put_varint(&mut buf, 0); // dt
        put_varint(&mut buf, u64::MAX); // absurd count
        assert_eq!(decode_trace(&buf), Err(TraceError::Truncated));
    }
}
