//! A nonblocking TCP connection speaking FFLP frames.
//!
//! One `FramedConn` owns one socket plus two buffers:
//!
//! * **read side** — the socket reads straight into `read_buf`'s spare
//!   capacity, the only user-space copy a request makes; callers drain
//!   complete frames with [`FramedConn::next_frame`]. Payload bytes are
//!   opaque to every consumer in this crate, so decoded requests carry
//!   the payload *length*, not a copy. The buffer grows to what arrives
//!   and is reclaimed before the next read: emptied once every byte is
//!   consumed, compacted only when a partial frame sits behind a long
//!   consumed prefix.
//! * **write side** — frames coalesce into a **bounded** buffer
//!   (default 256 KiB). When a frame does not fit, the enqueue is
//!   rejected and the caller surfaces the verdict — the transport maps
//!   it to `FailedInstantly`, the server counts a dropped reply. Nothing
//!   ever blocks and nothing queues without bound: a peer that stops
//!   reading costs its own replies, not the process's memory. The bound
//!   is exact: [`FramedConn::pending_write_bytes`] never exceeds it.
//!
//! Both directions follow the edge-triggered discipline: `fill`/`flush`
//! run until `WouldBlock`, so a single readiness edge is never lost.

use crate::frame::{
    decode_frame, encode_request_into, encode_response_into, request_frame_len, response_frame_len,
    Frame, FrameError,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Default cap on buffered unwritten bytes per connection.
pub const DEFAULT_WRITE_BUF_CAP: usize = 256 * 1024;

/// Move a partial frame to the front of the read buffer only once the
/// consumed bytes ahead of it reach this many.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Whether the peer is still there after a `fill`/`flush`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStatus {
    /// The connection is usable.
    Open,
    /// The peer closed (EOF on read, or a write hit a dead socket).
    Closed,
}

/// Result of offering a frame to the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The frame was buffered (flush to push it out).
    Queued,
    /// The bounded buffer was full: the frame is dropped and the caller
    /// must account for it (backpressure verdict).
    Rejected,
}

/// A decoded inbound frame with the request payload reduced to its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InboundFrame {
    /// A client request (payload bytes were validated and skipped).
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

/// One nonblocking framed connection (see the module docs).
pub struct FramedConn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    read_pos: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    write_cap: usize,
    closed: bool,
    coalesced_writes: u64,
    backpressure_rejects: u64,
}

impl FramedConn {
    /// Wrap `stream` (switched to nonblocking) with a `write_cap`-bounded
    /// write buffer.
    pub fn new(stream: TcpStream, write_cap: usize) -> io::Result<FramedConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(FramedConn {
            stream,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            write_cap,
            closed: false,
            coalesced_writes: 0,
            backpressure_rejects: 0,
        })
    }

    /// The underlying socket (for poller registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Read until `WouldBlock`, appending straight into the frame buffer.
    ///
    /// Frames that arrived together with the peer's EOF stay decodable:
    /// a `Closed` fill still leaves them for [`FramedConn::next_frame`].
    pub fn fill(&mut self) -> io::Result<ConnStatus> {
        if self.read_pos == self.read_buf.len() {
            self.read_buf.clear();
            self.read_pos = 0;
        } else if self.read_pos >= COMPACT_THRESHOLD {
            self.read_buf.drain(..self.read_pos);
            self.read_pos = 0;
        }
        // `read_to_end` appends into spare capacity without zero-filling
        // it, retries `Interrupted`, and keeps what it read before an
        // error; on a nonblocking socket only EOF ends it with `Ok`.
        match self.stream.read_to_end(&mut self.read_buf) {
            Ok(_) => {
                self.closed = true;
                Ok(ConnStatus::Closed)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(ConnStatus::Open),
            Err(e) => {
                self.closed = true;
                Err(e)
            }
        }
    }

    /// Decode the next complete frame out of the accumulated bytes.
    ///
    /// `Ok(None)` = no complete frame yet; `Err` = the stream is corrupt
    /// and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<InboundFrame>, FrameError> {
        let Some((frame, consumed)) = decode_frame(&self.read_buf[self.read_pos..])? else {
            return Ok(None);
        };
        self.read_pos += consumed;
        Ok(Some(match frame {
            Frame::Request { tag, payload } => InboundFrame::Request {
                tag,
                payload_len: payload.len(),
            },
            Frame::Response { tag, ok } => InboundFrame::Response { tag, ok },
        }))
    }

    /// Bytes the read buffer holds allocated. It tracks the largest
    /// burst a `fill` met, not the total the connection ever read.
    pub fn read_capacity(&self) -> usize {
        self.read_buf.capacity()
    }

    /// Unwritten bytes currently buffered.
    pub fn pending_write_bytes(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether a further `size`-byte frame fits under the write cap.
    pub fn can_enqueue(&self, size: usize) -> bool {
        !self.closed && self.pending_write_bytes() + size <= self.write_cap
    }

    fn note_enqueue(&mut self, fits: bool, had_pending: bool) -> EnqueueOutcome {
        if !fits {
            self.backpressure_rejects += 1;
            return EnqueueOutcome::Rejected;
        }
        if had_pending {
            self.coalesced_writes += 1;
        }
        EnqueueOutcome::Queued
    }

    /// Buffer a request frame, coalescing with any pending bytes.
    pub fn enqueue_request(&mut self, tag: u64, payload: &[u8]) -> EnqueueOutcome {
        let fits = self.can_enqueue(request_frame_len(tag, payload.len()));
        let had_pending = self.pending_write_bytes() > 0;
        if fits {
            encode_request_into(tag, payload, &mut self.write_buf);
        }
        self.note_enqueue(fits, had_pending)
    }

    /// Buffer a response frame, coalescing with any pending bytes.
    pub fn enqueue_response(&mut self, tag: u64, ok: bool) -> EnqueueOutcome {
        let fits = self.can_enqueue(response_frame_len(tag));
        let had_pending = self.pending_write_bytes() > 0;
        if fits {
            encode_response_into(tag, ok, &mut self.write_buf);
        }
        self.note_enqueue(fits, had_pending)
    }

    /// Write buffered bytes until drained or `WouldBlock`.
    pub fn flush(&mut self) -> io::Result<ConnStatus> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(ConnStatus::Closed);
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ConnStatus::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.closed = true;
                    return Err(e);
                }
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        Ok(ConnStatus::Open)
    }

    /// Whether buffered bytes are waiting for a writable edge.
    pub fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Times an enqueue found bytes already pending (write coalescing).
    pub fn coalesced_writes(&self) -> u64 {
        self.coalesced_writes
    }

    /// Times the bounded write buffer rejected a frame.
    pub fn backpressure_rejects(&self) -> u64 {
        self.backpressure_rejects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (FramedConn, FramedConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (
            FramedConn::new(client, DEFAULT_WRITE_BUF_CAP).unwrap(),
            FramedConn::new(server, DEFAULT_WRITE_BUF_CAP).unwrap(),
        )
    }

    fn drain_to(from: &mut FramedConn, to: &mut FramedConn) -> Vec<InboundFrame> {
        let mut out = Vec::new();
        for _ in 0..100 {
            from.flush().unwrap();
            let _ = to.fill().unwrap();
            while let Some(f) = to.next_frame().unwrap() {
                out.push(f);
            }
            if !from.wants_write() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        out
    }

    #[test]
    fn frames_cross_the_socket_and_coalesce() {
        let (mut client, mut server) = pair();
        assert_eq!(client.enqueue_request(1, &[7; 100]), EnqueueOutcome::Queued);
        assert_eq!(client.enqueue_request(2, &[8; 50]), EnqueueOutcome::Queued);
        assert_eq!(client.coalesced_writes(), 1);
        let got = drain_to(&mut client, &mut server);
        assert_eq!(
            got,
            vec![
                InboundFrame::Request {
                    tag: 1,
                    payload_len: 100
                },
                InboundFrame::Request {
                    tag: 2,
                    payload_len: 50
                },
            ]
        );
        assert_eq!(server.enqueue_response(1, true), EnqueueOutcome::Queued);
        assert_eq!(server.enqueue_response(2, false), EnqueueOutcome::Queued);
        let got = drain_to(&mut server, &mut client);
        assert_eq!(
            got,
            vec![
                InboundFrame::Response { tag: 1, ok: true },
                InboundFrame::Response { tag: 2, ok: false },
            ]
        );
    }

    #[test]
    fn bounded_write_buffer_rejects_overflow() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        let mut conn = FramedConn::new(client, 1024).unwrap();
        // Nobody reads and we never flush: the 1 KiB cap fills fast.
        let mut rejected = 0;
        for tag in 0..10u64 {
            if conn.enqueue_request(tag, &[0; 400]) == EnqueueOutcome::Rejected {
                rejected += 1;
            }
        }
        assert!(rejected >= 7, "only {rejected} rejects under a 1 KiB cap");
        assert_eq!(conn.backpressure_rejects(), rejected);
        assert!(conn.pending_write_bytes() <= 1024);
    }

    #[test]
    fn peer_close_surfaces_on_fill() {
        let (client, mut server) = pair();
        drop(client);
        for _ in 0..100 {
            if server.fill().unwrap() == ConnStatus::Closed {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("peer close never surfaced");
    }

    #[test]
    fn corrupt_stream_is_an_error_not_a_panic() {
        let (mut client, mut server) = pair();
        use std::io::Write as _;
        client.stream.write_all(b"XXXXGARBAGE").unwrap();
        let _ = server.fill().unwrap();
        assert!(server.next_frame().is_err());
    }
}
