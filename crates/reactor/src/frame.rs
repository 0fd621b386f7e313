//! The `FFLP` wire codec: length-prefixed binary frames.
//!
//! Both directions share one self-describing frame, so a stream observer
//! can parse either side without knowing which it is watching:
//!
//! ```text
//! +------+-------------+--------+----------------------+
//! | FFLP | varint len  | opcode | body (len − 1 bytes) |
//! +------+-------------+--------+----------------------+
//!   4 B    1–5 B (LEB128)  1 B
//! ```
//!
//! * `len` counts the opcode byte plus the body, LEB128-encoded (base-128,
//!   little-endian groups, high bit = continuation).
//! * opcode `0x01` (request): body = `varint tag` + payload bytes.
//! * opcode `0x02` (response): body = `varint tag` + status byte
//!   (0 = ok, 1 = rejected).
//!
//! Hardening contract (the `ff-trace` codec pattern): decoding arbitrary
//! bytes **never panics** — a truncated frame is `Ok(None)` for the
//! streaming decoder and `Err` for [`decode_frame_exact`]; any corrupt
//! magic, opcode, status, or over-limit length is `Err`. Encoders append
//! into caller-owned buffers so steady-state encoding allocates nothing.

use std::fmt;

/// Frame magic, first on the wire.
pub const MAGIC: [u8; 4] = *b"FFLP";

/// Opcode for a client→server inference request.
const OP_REQUEST: u8 = 0x01;
/// Opcode for a server→client inference response.
const OP_RESPONSE: u8 = 0x02;

/// Upper bound on the declared frame length (opcode + body), mirroring
/// the legacy codec's 16 MiB cap; anything larger is corruption.
pub const MAX_FRAME_BYTES: u64 = 16 * 1024 * 1024;

/// A decoded frame, borrowing the request payload from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// Client→server: run inference on `payload` (a `tag`-identified
    /// frame's bytes).
    Request {
        /// Echo token correlating the response.
        tag: u64,
        /// The frame bytes (contents are opaque to the server).
        payload: &'a [u8],
    },
    /// Server→client: the verdict for request `tag`.
    Response {
        /// The request's echo token.
        tag: u64,
        /// `true` when the frame was inferred, `false` when the batcher
        /// rejected it under load.
        ok: bool,
    },
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not `FFLP`.
    BadMagic,
    /// The length varint is malformed (overlong or > 10 bytes).
    BadLength,
    /// The declared length exceeds [`MAX_FRAME_BYTES`] or is too short
    /// to hold the opcode.
    LengthOutOfRange,
    /// Unknown opcode byte.
    BadOpcode,
    /// A body field (tag varint, status byte) is malformed or the body
    /// length does not match the opcode's layout.
    BadBody,
    /// [`decode_frame_exact`] was given a buffer that is not exactly one
    /// well-formed frame (truncated or trailing bytes).
    Incomplete,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            FrameError::BadMagic => "bad FFLP magic",
            FrameError::BadLength => "malformed length varint",
            FrameError::LengthOutOfRange => "frame length out of range",
            FrameError::BadOpcode => "unknown opcode",
            FrameError::BadBody => "malformed frame body",
            FrameError::Incomplete => "buffer is not exactly one frame",
        };
        f.write_str(what)
    }
}

impl std::error::Error for FrameError {}

/// Append a LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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

/// Encoded size of a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Read a LEB128 varint. `Ok(None)` = more bytes needed; `Err` =
/// malformed (more than 10 bytes, or a 10th byte with bits beyond u64).
fn get_varint(buf: &[u8]) -> Result<Option<(u64, usize)>, FrameError> {
    let mut v: u64 = 0;
    for (i, &b) in buf.iter().enumerate().take(10) {
        if i == 9 && b > 0x01 {
            return Err(FrameError::BadLength);
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Ok(Some((v, i + 1)));
        }
    }
    if buf.len() >= 10 {
        return Err(FrameError::BadLength);
    }
    Ok(None)
}

/// Wire size of a frame whose opcode + body is `body_len` bytes.
fn frame_len(body_len: usize) -> usize {
    MAGIC.len() + varint_len(body_len as u64) + body_len
}

/// Exact number of bytes [`encode_request_into`] appends.
pub(crate) fn request_frame_len(tag: u64, payload_len: usize) -> usize {
    frame_len(1 + varint_len(tag) + payload_len)
}

/// Exact number of bytes [`encode_response_into`] appends.
pub(crate) fn response_frame_len(tag: u64) -> usize {
    frame_len(1 + varint_len(tag) + 1)
}

/// Append an encoded request frame to `buf` (which is **not** cleared:
/// consecutive encodes coalesce, and a long-lived buffer amortizes all
/// allocation).
pub fn encode_request_into(tag: u64, payload: &[u8], buf: &mut Vec<u8>) {
    let body_len = 1 + varint_len(tag) + payload.len();
    debug_assert!((body_len as u64) <= MAX_FRAME_BYTES);
    buf.reserve(frame_len(body_len));
    buf.extend_from_slice(&MAGIC);
    put_varint(buf, body_len as u64);
    buf.push(OP_REQUEST);
    put_varint(buf, tag);
    buf.extend_from_slice(payload);
}

/// Append an encoded response frame to `buf` (append semantics as
/// [`encode_request_into`]).
pub fn encode_response_into(tag: u64, ok: bool, buf: &mut Vec<u8>) {
    let body_len = 1 + varint_len(tag) + 1;
    buf.reserve(frame_len(body_len));
    buf.extend_from_slice(&MAGIC);
    put_varint(buf, body_len as u64);
    buf.push(OP_RESPONSE);
    put_varint(buf, tag);
    buf.push(u8::from(!ok));
}

/// Streaming decode: parse one frame from the front of `buf`.
///
/// Returns `Ok(Some((frame, consumed)))` when a full frame is present,
/// `Ok(None)` when more bytes are needed, and `Err` on corruption.
/// Never panics, whatever the input.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame<'_>, usize)>, FrameError> {
    // Magic: reject as soon as any prefix byte mismatches, so a corrupt
    // stream fails fast instead of waiting for 4 bytes.
    let probe = buf.len().min(4);
    if buf[..probe] != MAGIC[..probe] {
        return Err(FrameError::BadMagic);
    }
    if buf.len() < 4 {
        return Ok(None);
    }
    let Some((len, len_bytes)) = get_varint(&buf[4..])? else {
        return Ok(None);
    };
    if !(1..=MAX_FRAME_BYTES).contains(&len) {
        return Err(FrameError::LengthOutOfRange);
    }
    let header = 4 + len_bytes;
    let total = header + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[header..total];
    let (op, rest) = body.split_first().expect("len >= 1 was checked");
    let frame = match *op {
        OP_REQUEST => {
            let Some((tag, n)) = get_varint(rest)? else {
                return Err(FrameError::BadBody);
            };
            Frame::Request {
                tag,
                payload: &rest[n..],
            }
        }
        OP_RESPONSE => {
            let Some((tag, n)) = get_varint(rest)? else {
                return Err(FrameError::BadBody);
            };
            match rest[n..] {
                [status] if status <= 1 => Frame::Response {
                    tag,
                    ok: status == 0,
                },
                _ => return Err(FrameError::BadBody),
            }
        }
        _ => return Err(FrameError::BadOpcode),
    };
    Ok(Some((frame, total)))
}

/// Strict decode: `buf` must contain exactly one well-formed frame.
/// Truncation and trailing garbage are both errors — the invariant the
/// codec proptests pin down.
pub fn decode_frame_exact(buf: &[u8]) -> Result<Frame<'_>, FrameError> {
    match decode_frame(buf)? {
        Some((frame, consumed)) if consumed == buf.len() => Ok(frame),
        _ => Err(FrameError::Incomplete),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(frame: &Frame<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        match *frame {
            Frame::Request { tag, payload } => encode_request_into(tag, payload, &mut buf),
            Frame::Response { tag, ok } => encode_response_into(tag, ok, &mut buf),
        }
        buf
    }

    #[test]
    fn request_round_trips() {
        let payload = vec![0xAB; 300];
        let mut buf = Vec::new();
        encode_request_into(u64::MAX, &payload, &mut buf);
        let (frame, consumed) = decode_frame(&buf).expect("decodes").expect("complete");
        assert_eq!(consumed, buf.len());
        assert_eq!(
            frame,
            Frame::Request {
                tag: u64::MAX,
                payload: &payload,
            }
        );
    }

    #[test]
    fn response_round_trips_both_statuses() {
        for ok in [true, false] {
            let mut buf = Vec::new();
            encode_response_into(42, ok, &mut buf);
            assert_eq!(
                decode_frame_exact(&buf).expect("decodes"),
                Frame::Response { tag: 42, ok }
            );
        }
    }

    #[test]
    fn encoding_appends_for_coalescing() {
        let mut buf = Vec::new();
        encode_request_into(1, b"aa", &mut buf);
        let first = buf.len();
        encode_response_into(2, true, &mut buf);
        let (f1, n1) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(n1, first);
        assert!(matches!(f1, Frame::Request { tag: 1, .. }));
        let (f2, n2) = decode_frame(&buf[n1..]).unwrap().unwrap();
        assert_eq!(n1 + n2, buf.len());
        assert_eq!(f2, Frame::Response { tag: 2, ok: true });
    }

    #[test]
    fn truncation_is_incomplete_never_a_frame() {
        let mut buf = Vec::new();
        encode_request_into(7, &[9; 64], &mut buf);
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some(_)) => panic!("prefix of {cut} bytes decoded as a full frame"),
            }
            assert!(decode_frame_exact(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn corrupt_magic_opcode_and_status_are_errors() {
        let mut buf = Vec::new();
        encode_response_into(3, true, &mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(decode_frame(&bad), Err(FrameError::BadMagic));
        let mut bad = buf.clone();
        let op_at = buf.len() - 3; // opcode, tag varint (1 B), status
        bad[op_at] = 0x7F;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadOpcode));
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() = 2;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadBody));
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let mut buf = MAGIC.to_vec();
        put_varint(&mut buf, MAX_FRAME_BYTES + 1);
        buf.push(OP_REQUEST);
        assert_eq!(decode_frame(&buf), Err(FrameError::LengthOutOfRange));
        let mut buf = MAGIC.to_vec();
        put_varint(&mut buf, 0);
        assert_eq!(decode_frame(&buf), Err(FrameError::LengthOutOfRange));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&[0x80; 10]);
        assert_eq!(decode_frame(&buf), Err(FrameError::BadLength));
    }

    proptest! {
        #[test]
        fn prop_round_trip_is_byte_identical(
            tag in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            ok in any::<bool>(),
            is_request in any::<bool>(),
        ) {
            let frame = if is_request {
                Frame::Request { tag, payload: &payload }
            } else {
                Frame::Response { tag, ok }
            };
            let bytes = encode(&frame);
            // Decode → re-encode is byte-identical.
            let decoded = decode_frame_exact(&bytes).expect("round trip decodes");
            prop_assert_eq!(encode(&decoded), bytes);
            // The size helpers predict the encoders exactly.
            let predicted = if is_request {
                request_frame_len(tag, payload.len())
            } else {
                response_frame_len(tag)
            };
            prop_assert_eq!(predicted, bytes.len());
        }

        #[test]
        fn prop_truncation_never_yields_a_frame(
            tag in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            cut in any::<u64>(),
        ) {
            let mut bytes = Vec::new();
            encode_request_into(tag, &payload, &mut bytes);
            let cut = (cut % bytes.len() as u64) as usize; // strictly shorter
            prop_assert!(!matches!(decode_frame(&bytes[..cut]), Ok(Some(_))));
            prop_assert!(decode_frame_exact(&bytes[..cut]).is_err());
        }

        #[test]
        fn prop_byte_flips_never_panic_and_header_flips_err(
            tag in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            pos in any::<u64>(),
            bit in 0u8..8,
        ) {
            let mut bytes = Vec::new();
            encode_request_into(tag, &payload, &mut bytes);
            let pos = (pos % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << bit;
            // Whatever the flip, decoding must not panic; a flip inside
            // the 4-byte magic must be detected outright.
            let out = decode_frame_exact(&bytes);
            if pos < 4 {
                prop_assert!(out.is_err());
            }
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(
            junk in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let _ = decode_frame(&junk);
            let _ = decode_frame_exact(&junk);
        }
    }
}
