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
//! bytes **never panics** — a truncated frame is `Ok(None)` from
//! [`decode_frame`] and the streaming decoder; any corrupt
//! magic, opcode, tag, status, or over-limit length is `Err` as soon as
//! its bytes are in. Encoders append into caller-owned buffers so
//! steady-state encoding allocates nothing.
//!
//! One head parser serves [`decode_frame`], which decodes from a buffer
//! holding the whole frame, and the socket-free streaming decoder a
//! [`FramedConn`](crate::FramedConn) feeds as bytes arrive, which holds
//! at most one head ([`MAX_HEAD_BYTES`]) and counts a request's payload
//! off without buffering it.

use std::collections::VecDeque;
use std::fmt;

/// Frame magic, first on the wire.
pub(crate) const MAGIC: [u8; 4] = *b"FFLP";

/// Opcode for a client→server inference request.
const OP_REQUEST: u8 = 0x01;
/// Opcode for a server→client inference response.
const OP_RESPONSE: u8 = 0x02;

/// Upper bound on the declared frame length (opcode + body), mirroring
/// the legacy codec's 16 MiB cap; anything larger is corruption.
pub(crate) const MAX_FRAME_BYTES: u64 = 16 * 1024 * 1024;

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
    /// The declared length exceeds the 16 MiB cap or is too short
    /// to hold the opcode.
    LengthOutOfRange,
    /// Unknown opcode byte.
    BadOpcode,
    /// A body field (tag varint, status byte) is malformed or the body
    /// length does not match the opcode's layout.
    BadBody,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            FrameError::BadMagic => "bad FFLP magic",
            FrameError::BadLength => "malformed length varint",
            FrameError::LengthOutOfRange => "frame length out of range",
            FrameError::BadOpcode => "unknown opcode",
            FrameError::BadBody => "malformed frame body",
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

/// A decoded inbound frame with the request payload reduced to its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InboundFrame {
    /// A client request (its payload bytes were counted off, not kept).
    Request {
        /// Echo token.
        tag: u64,
        /// Size of the (opaque) payload.
        payload_len: usize,
    },
    /// A server response.
    Response {
        /// Echo token.
        tag: u64,
        /// Inference verdict.
        ok: bool,
    },
}

/// Longest frame head: the magic, a 10-byte length varint, the opcode,
/// a 10-byte tag varint and a response's status byte. Everything in a
/// frame but a request's payload is head.
pub const MAX_HEAD_BYTES: usize = 4 + 10 + 1 + 10 + 1;

/// Parse the head of the frame at the front of `buf`, which may hold
/// any prefix of the stream: `Ok(Some((frame, head_len)))` once the
/// head is in (a request's `payload_len` bytes follow it), `Ok(None)`
/// while it is not. A corrupt field is `Err` as soon as its bytes are
/// in, and the verdict on a prefix never changes as more bytes arrive;
/// [`MAX_HEAD_BYTES`] bytes always decide.
fn parse_head(buf: &[u8]) -> Result<Option<(InboundFrame, usize)>, FrameError> {
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
    let body_len = len as usize;
    let body = &buf[header..buf.len().min(header + body_len)];
    let Some((&op, rest)) = body.split_first() else {
        return Ok(None);
    };
    if op != OP_REQUEST && op != OP_RESPONSE {
        return Err(FrameError::BadOpcode);
    }
    // A tag varint that runs past the bytes in waits for more; one that
    // runs past the body's end is corrupt.
    let Some((tag, n)) = get_varint(rest)? else {
        return if body.len() == body_len {
            Err(FrameError::BadBody)
        } else {
            Ok(None)
        };
    };
    if op == OP_REQUEST {
        let head = header + 1 + n;
        let payload_len = header + body_len - head;
        return Ok(Some((InboundFrame::Request { tag, payload_len }, head)));
    }
    // A response body is the opcode, the tag and one status byte.
    if body_len != 1 + n + 1 {
        return Err(FrameError::BadBody);
    }
    match rest.get(n) {
        None => Ok(None),
        Some(&status) if status <= 1 => Ok(Some((
            InboundFrame::Response {
                tag,
                ok: status == 0,
            },
            header + body_len,
        ))),
        Some(_) => Err(FrameError::BadBody),
    }
}

/// Streaming decode: parse one frame from the front of `buf`.
///
/// Returns `Ok(Some((frame, consumed)))` when a full frame is present,
/// `Ok(None)` when more bytes are needed, and `Err` on corruption — as
/// soon as the corrupt field is in, even if the frame is not. Never
/// panics, whatever the input.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame<'_>, usize)>, FrameError> {
    let Some((head, at)) = parse_head(buf)? else {
        return Ok(None);
    };
    Ok(match head {
        InboundFrame::Request { tag, payload_len } => buf
            .get(at..at + payload_len)
            .map(|payload| (Frame::Request { tag, payload }, at + payload_len)),
        InboundFrame::Response { tag, ok } => Some((Frame::Response { tag, ok }, at)),
    })
}

/// The stream side of the codec, with no socket: bytes go in through
/// [`FrameDecoder::feed`] in chunks of any size and come out of
/// [`FrameDecoder::next_frame`] as the frames (then the first error)
/// that [`decode_frame`] finds in their concatenation.
///
/// It keeps no bytes but the unparsed front of one head: a request's
/// payload is counted off as it passes, never buffered, and a caller
/// that can drop payload bytes unread (a socket's `MSG_TRUNC`) counts
/// them off through [`FrameDecoder::skip`] instead of feeding them.
/// Decoded frames wait in a queue whose allocation is given back once
/// drained.
#[derive(Debug, Default)]
pub(crate) struct FrameDecoder {
    /// The front of the next frame's head, `head_len` bytes of it.
    head: [u8; MAX_HEAD_BYTES],
    head_len: usize,
    /// A request whose head is in, and its payload bytes still to come
    /// (never 0: a request is queued once its last byte is counted off).
    payload: Option<(InboundFrame, usize)>,
    frames: VecDeque<InboundFrame>,
    /// The first corruption met; nothing after it is decoded.
    error: Option<FrameError>,
}

impl FrameDecoder {
    /// Decode `bytes`, the next bytes of the stream.
    pub(crate) fn feed(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() && self.error.is_none() {
            let left = self.payload_left();
            if left > 0 {
                let n = left.min(bytes.len());
                self.skip(n);
                bytes = &bytes[n..];
                continue;
            }
            let held = self.head_len;
            let take = bytes.len().min(MAX_HEAD_BYTES - held);
            self.head[held..held + take].copy_from_slice(&bytes[..take]);
            match parse_head(&self.head[..held + take]) {
                Ok(Some((frame, at))) => {
                    // `held` bytes did not make a head, so `at > held`.
                    bytes = &bytes[at - held..];
                    self.head_len = 0;
                    match frame {
                        InboundFrame::Request { payload_len, .. } if payload_len > 0 => {
                            self.payload = Some((frame, payload_len));
                        }
                        _ => self.frames.push_back(frame),
                    }
                }
                // Fewer than `MAX_HEAD_BYTES`, so all of `bytes` is held.
                Ok(None) => {
                    self.head_len = held + take;
                    return;
                }
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// Payload bytes of the current request still to come; 0 at a frame
    /// boundary or inside a head.
    pub(crate) fn payload_left(&self) -> usize {
        self.payload.map_or(0, |(_, left)| left)
    }

    /// Count off the next `n` bytes of the stream, which lie inside the
    /// current request's payload (`n <= payload_left()`), without seeing
    /// them: the caller discarded them unread.
    pub(crate) fn skip(&mut self, n: usize) {
        assert!(n <= self.payload_left(), "skipped past a request payload");
        if let Some((frame, left)) = &mut self.payload {
            *left -= n;
            if *left == 0 {
                self.frames.push_back(*frame);
                self.payload = None;
            }
        }
    }

    /// The next decoded frame; once they are drained, the first error.
    /// `Ok(None)` = no complete frame yet.
    pub(crate) fn next_frame(&mut self) -> Result<Option<InboundFrame>, FrameError> {
        if let Some(frame) = self.frames.pop_front() {
            return Ok(Some(frame));
        }
        if self.frames.capacity() > 0 {
            self.frames = VecDeque::new();
        }
        self.error.map_or(Ok(None), Err)
    }

    /// Whether the stream is corrupt, so further bytes are not decoded.
    pub(crate) fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// Bytes held: the inline head buffer and the undrained frame queue.
    pub(crate) fn capacity(&self) -> usize {
        MAX_HEAD_BYTES + self.frames.capacity() * std::mem::size_of::<InboundFrame>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Strict decode: `buf` must hold exactly one well-formed frame, so
    /// truncation and trailing garbage both read `None`.
    fn decode_frame_exact(buf: &[u8]) -> Option<Frame<'_>> {
        match decode_frame(buf) {
            Ok(Some((frame, consumed))) if consumed == buf.len() => Some(frame),
            _ => None,
        }
    }

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
            assert!(decode_frame_exact(&buf[..cut]).is_none());
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
    fn a_tag_running_past_the_body_is_corrupt() {
        // Body = opcode + one tag byte that promises more.
        for op in [OP_REQUEST, OP_RESPONSE] {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&[2, op, 0x80]);
            assert_eq!(decode_frame(&buf), Err(FrameError::BadBody));
            // One byte short of the body, the tag may still end.
            assert_eq!(decode_frame(&buf[..buf.len() - 1]), Ok(None));
        }
    }

    #[test]
    fn corruption_is_reported_before_the_frame_is_whole() {
        // A 1 MiB request with a bad opcode fails on its sixth byte, not
        // after its megabyte.
        let mut buf = Vec::new();
        encode_request_into(5, &vec![0; 1 << 20], &mut buf);
        let op_at = 4 + varint_len(1 + 1 + (1 << 20)); // magic, length
        buf[op_at] = 0x7F;
        assert_eq!(decode_frame(&buf[..=op_at]), Err(FrameError::BadOpcode));
        assert_eq!(decode_frame(&buf[..op_at]), Ok(None));
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
            prop_assert!(decode_frame_exact(&bytes[..cut]).is_none());
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
                prop_assert!(out.is_none());
            }
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(
            junk in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let _ = decode_frame(&junk);
            let _ = decode_frame_exact(&junk);
        }

        /// Requests of every tag width with payloads up to 70 kB, so they
        /// straddle window edges, and responses; in three cases of four
        /// one corrupt byte near a frame's start; maybe a cut tail. Fed
        /// in chunks of 1 B to 48 KiB, drained after each, where a step
        /// inside a request's payload may instead skip 1 to all of the
        /// payload bytes left, as a socket's discard does, the decoder
        /// yields what `decode_frame` finds in the whole buffer: the same
        /// frames, then the same first error or none.
        #[test]
        fn prop_the_decoder_matches_decode_frame_over_any_chunking(
            frames in proptest::collection::vec(
                ((any::<u64>(), 0u32..64), (0usize..=70_000, 0u32..17), any::<bool>()),
                1..8,
            ),
            (corrupt, (frame, offset), flip) in
                (0u8..4, (any::<usize>(), 0usize..16), 1u8..=255),
            (cut, cut_len) in (any::<bool>(), 0usize..40),
            chunks in proptest::collection::vec(
                (1usize..=48 * 1024, 0u32..16, any::<bool>()),
                1..8,
            ),
        ) {
            let mut wire = Vec::new();
            let mut starts = Vec::new();
            for &((raw, shift), (len, len_shift), is_request) in &frames {
                starts.push(wire.len());
                let tag = raw >> shift;
                if is_request {
                    // Payload bytes that look like frame heads.
                    let payload: Vec<u8> =
                        MAGIC.iter().copied().cycle().take(len >> len_shift).collect();
                    encode_request_into(tag, &payload, &mut wire);
                } else {
                    encode_response_into(tag, raw & 1 == 0, &mut wire);
                }
            }
            if corrupt > 0 {
                let pos = (starts[frame % starts.len()] + offset).min(wire.len() - 1);
                wire[pos] ^= flip;
            }
            if cut {
                wire.truncate(wire.len().saturating_sub(cut_len));
            }

            let mut expected = Vec::new();
            let mut at = 0;
            let expected_end = loop {
                match decode_frame(&wire[at..]) {
                    Ok(Some((frame, used))) => {
                        expected.push(match frame {
                            Frame::Request { tag, payload } => InboundFrame::Request {
                                tag,
                                payload_len: payload.len(),
                            },
                            Frame::Response { tag, ok } => InboundFrame::Response { tag, ok },
                        });
                        at += used;
                    }
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };

            let mut decoder = FrameDecoder::default();
            let mut got = Vec::new();
            let mut end = None;
            let mut rest = &wire[..];
            let mut steps = chunks
                .iter()
                .cycle()
                .map(|&(size, shift, skip)| ((size >> shift).max(1), skip));
            while !rest.is_empty() && end.is_none() {
                let (n, skip) = steps.next().expect("an endless cycle");
                let left = decoder.payload_left();
                if skip && left > 0 {
                    let k = n.min(left).min(rest.len());
                    decoder.skip(k);
                    rest = &rest[k..];
                } else {
                    let (chunk, tail) = rest.split_at(n.min(rest.len()));
                    decoder.feed(chunk);
                    rest = tail;
                }
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => got.push(frame),
                        Ok(None) => break,
                        Err(e) => {
                            end = Some(e);
                            break;
                        }
                    }
                }
                prop_assert_eq!(decoder.capacity(), MAX_HEAD_BYTES);
            }
            prop_assert_eq!(got, expected);
            prop_assert_eq!(end, expected_end);
        }
    }
}
