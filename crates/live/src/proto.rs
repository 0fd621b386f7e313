//! The legacy live wire codec, request direction only.
//!
//! One length-prefixed inference request per frame. Payload bytes are
//! synthetic (the simulated JPEG); only their *size* matters to the
//! system, exactly as in the simulator. The live tier itself speaks
//! `ff_reactor`'s `FFLP` framing; this codec stays because the
//! benchmark's `live.json_*` rows measure it against `FFLP`.
//!
//! ```text
//! request:  [len: u32 BE][tag: u64 BE][payload: len-12 bytes]
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, Read};

/// An inference request as it travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Caller-defined correlation tag (echoed in the response).
    pub tag: u64,
    /// Synthetic frame bytes (only the size matters).
    pub payload: Bytes,
}

/// Frame header size: u32 length prefix counts tag + payload.
const LEN_PREFIX: usize = 4;
const TAG_SIZE: usize = 8;
/// Cap a single frame at 16 MiB — anything bigger is a protocol error.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Encode a request into `buf`, clearing it first but keeping its
/// allocation — the per-message-allocation-free path for senders that
/// reuse one buffer across a connection's lifetime.
pub fn encode_request_into(req: &WireRequest, buf: &mut BytesMut) {
    let body_len = TAG_SIZE + req.payload.len();
    assert!(
        body_len as u64 <= MAX_FRAME as u64,
        "request payload too large"
    );
    buf.clear();
    buf.put_u32(body_len as u32);
    buf.put_u64(req.tag);
    buf.extend_from_slice(&req.payload);
}

/// Read one request from a blocking stream. `Ok(None)` means clean EOF
/// at a frame boundary.
pub fn read_request<R: Read>(r: &mut R) -> io::Result<Option<WireRequest>> {
    let mut len_buf = [0u8; LEN_PREFIX];
    if !read_exact_or_eof(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf);
    if len < TAG_SIZE as u32 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let mut cursor = &body[..];
    let tag = cursor.get_u64();
    Ok(Some(WireRequest {
        tag,
        payload: Bytes::copy_from_slice(cursor),
    }))
}

/// `read_exact`, but a clean EOF before the first byte returns `false`
/// instead of an error.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn encode(req: &WireRequest) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_request_into(req, &mut buf);
        buf.to_vec()
    }

    #[test]
    fn request_round_trip() {
        let req = WireRequest {
            tag: 0xDEAD_BEEF_0000_0042,
            payload: Bytes::from(vec![7u8; 1000]),
        };
        let mut cursor = Cursor::new(encode(&req));
        let decoded = read_request(&mut cursor).unwrap().unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn empty_payload_round_trip() {
        let req = WireRequest {
            tag: 1,
            payload: Bytes::new(),
        };
        let mut cursor = Cursor::new(encode(&req));
        assert_eq!(read_request(&mut cursor).unwrap().unwrap(), req);
    }

    #[test]
    fn clean_eof_yields_none() {
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert!(read_request(&mut empty).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let req = WireRequest {
            tag: 5,
            payload: Bytes::from(vec![1u8; 100]),
        };
        let encoded = encode(&req);
        let truncated = &encoded[..encoded.len() - 10];
        let mut cursor = Cursor::new(truncated.to_vec());
        let err = read_request(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn bad_length_is_an_error() {
        // Length below the tag size.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(&[0u8; 3]);
        let mut cursor = Cursor::new(buf);
        assert!(read_request(&mut cursor).is_err());
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_fresh_encoding() {
        let mut buf = BytesMut::with_capacity(4096);
        for len in [0usize, 1, 100, 3000] {
            let req = WireRequest {
                tag: len as u64,
                payload: Bytes::from(vec![0xAB; len]),
            };
            encode_request_into(&req, &mut buf);
            assert_eq!(&buf[..], &encode(&req)[..]);
        }
    }

    #[test]
    fn back_to_back_frames_parse_sequentially() {
        let a = WireRequest {
            tag: 1,
            payload: Bytes::from_static(b"aaa"),
        };
        let b = WireRequest {
            tag: 2,
            payload: Bytes::from_static(b"bbbbbb"),
        };
        let mut stream = encode(&a);
        stream.extend_from_slice(&encode(&b));
        let mut cursor = Cursor::new(stream);
        assert_eq!(read_request(&mut cursor).unwrap().unwrap(), a);
        assert_eq!(read_request(&mut cursor).unwrap().unwrap(), b);
        assert!(read_request(&mut cursor).unwrap().is_none());
    }

    use proptest::prelude::*;

    proptest! {
        /// Encode → decode → re-encode is byte-identical.
        #[test]
        fn prop_request_round_trip_is_byte_identical(
            tag in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let req = WireRequest {
                tag,
                payload: Bytes::from(payload),
            };
            let bytes = encode(&req);
            let decoded = read_request(&mut Cursor::new(bytes.clone()))
                .expect("decodes")
                .expect("one frame");
            prop_assert_eq!(&encode(&decoded), &bytes);
        }

        /// Any strict truncation of a request frame is a clean error
        /// (or `None` at the empty boundary) — never a panic, never a
        /// phantom frame.
        #[test]
        fn prop_truncated_request_never_yields_a_frame(
            tag in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            cut in any::<u64>(),
        ) {
            let bytes = encode(&WireRequest {
                tag,
                payload: Bytes::from(payload),
            });
            let cut = (cut % bytes.len() as u64) as usize;
            match read_request(&mut Cursor::new(bytes[..cut].to_vec())) {
                Ok(None) => prop_assert_eq!(cut, 0),
                Ok(Some(_)) => prop_assert!(false, "phantom frame at cut {}", cut),
                Err(_) => {}
            }
        }

        /// Flipping any bit anywhere in a frame never panics the
        /// decoder; a flip in the header either errors or changes the
        /// decoded identity, but decoding stays total.
        #[test]
        fn prop_bit_flips_never_panic(
            tag in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            pos in any::<u64>(),
            bit in 0u8..8,
        ) {
            let mut bytes = encode(&WireRequest {
                tag,
                payload: Bytes::from(payload),
            });
            let pos = (pos % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << bit;
            let _ = read_request(&mut Cursor::new(bytes));
        }
    }
}
