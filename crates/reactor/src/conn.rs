//! A nonblocking TCP connection speaking FFLP frames.
//!
//! One `FramedConn` owns one socket plus two buffers:
//!
//! * **read side** — at a frame boundary `fill` reads the socket through
//!   a [`READ_WINDOW`] on its own stack and feeds each read to a
//!   streaming decoder, which parses frame heads as the bytes arrive.
//!   Payload bytes are opaque to every consumer in this crate, so
//!   decoded requests carry the payload *length*, not a copy: once a
//!   request's head is in, the rest of its payload is discarded in the
//!   kernel (`recv` with `MSG_TRUNC`, which on TCP drops the bytes
//!   instead of copying them) and only counted off by the decoder; a
//!   25 kB request costs one window read and one discard. Callers drain
//!   the decoded frames with
//!   [`FramedConn::next_frame`]. Between fills the read side holds only
//!   the parse state and at most one unparsed head
//!   ([`MAX_HEAD_BYTES`](crate::MAX_HEAD_BYTES)), whatever the frames'
//!   sizes; [`FramedConn::read_capacity`] reports it.
//! * **write side** — frames coalesce into a **bounded** buffer
//!   (default 256 KiB). When a frame does not fit, the enqueue is
//!   rejected and the caller surfaces the verdict — the transport maps
//!   it to `FailedInstantly`, the server counts a dropped reply. Nothing
//!   ever blocks and nothing queues without bound: a peer that stops
//!   reading costs its own replies, not the process's memory. The bound
//!   is exact: [`FramedConn::pending_write_bytes`] never exceeds it. A
//!   flush that drains the buffer frees it when it holds more than a few
//!   KiB and keeps it otherwise, so a batch's small replies reuse one
//!   allocation while a run of large requests does not stay allocated
//!   after it leaves; [`FramedConn::write_capacity`] reports it.
//!
//! Both directions follow the edge-triggered discipline: `fill`/`flush`
//! run until `WouldBlock`, so a single readiness edge is never lost. The
//! connection counts its `read` and `write` calls, `WouldBlock`s
//! included, and the payload bytes it discarded unread.

pub use crate::frame::InboundFrame;
use crate::frame::{
    encode_request_into, encode_response_into, request_frame_len, response_frame_len, FrameDecoder,
    FrameError,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;

/// Default cap on buffered unwritten bytes per connection.
pub const DEFAULT_WRITE_BUF_CAP: usize = 256 * 1024;

/// Bytes one `read` at a frame boundary asks for. It carries frame heads
/// and replies (a batch's 15 replies are 255 B); a request's payload
/// past the window is discarded in the kernel, not read. The window
/// lives on `fill`'s stack, so an idle connection holds none of it.
pub const READ_WINDOW: usize = 1024;

/// Write-buffer capacity a draining flush keeps; a larger buffer is
/// freed. It holds a batch's replies (≤ 15 × 17 B) with room to spare.
const WRITE_KEEP: usize = 4 * 1024;

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

/// One nonblocking framed connection (see the module docs).
pub struct FramedConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    write_buf: Vec<u8>,
    write_pos: usize,
    write_cap: usize,
    closed: bool,
    read_calls: u64,
    discarded_bytes: u64,
    write_calls: u64,
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
            decoder: FrameDecoder::default(),
            write_buf: Vec::new(),
            write_pos: 0,
            write_cap,
            closed: false,
            read_calls: 0,
            discarded_bytes: 0,
            write_calls: 0,
            coalesced_writes: 0,
            backpressure_rejects: 0,
        })
    }

    /// The underlying socket (for poller registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Read until `WouldBlock` or EOF, decoding as the bytes arrive: at a
    /// frame boundary through the window, inside a request's payload by
    /// discarding the rest of it in the kernel.
    ///
    /// Frames that arrived together with the peer's EOF stay decodable:
    /// a `Closed` fill still leaves them for [`FramedConn::next_frame`].
    /// Reading stops early at corrupt bytes, which `next_frame` reports
    /// after the frames before them.
    pub fn fill(&mut self) -> io::Result<ConnStatus> {
        let mut window = [0u8; READ_WINDOW];
        while !self.decoder.failed() {
            self.read_calls += 1;
            let left = self.decoder.payload_left();
            let got = if left > 0 {
                discard(&self.stream, left)
            } else {
                self.stream.read(&mut window)
            };
            match got {
                Ok(0) => {
                    self.closed = true;
                    return Ok(ConnStatus::Closed);
                }
                Ok(n) if left > 0 => {
                    self.discarded_bytes += n as u64;
                    self.decoder.skip(n);
                }
                Ok(n) => self.decoder.feed(&window[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.closed = true;
                    return Err(e);
                }
            }
        }
        Ok(ConnStatus::Open)
    }

    /// The next frame the fills so far decoded.
    ///
    /// `Ok(None)` = no complete frame yet; `Err` = the stream is corrupt
    /// and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<InboundFrame>, FrameError> {
        self.decoder.next_frame()
    }

    /// Bytes the read side holds: [`MAX_HEAD_BYTES`](crate::MAX_HEAD_BYTES)
    /// for the unparsed head, plus the queue of frames `next_frame` has
    /// not yet drained, which is given back once drained. The read
    /// window is not held.
    pub fn read_capacity(&self) -> usize {
        self.decoder.capacity()
    }

    /// Bytes the write buffer holds allocated: at most `WRITE_KEEP` (4 KiB)
    /// once a flush has drained it, however large the run it carried.
    pub fn write_capacity(&self) -> usize {
        self.write_buf.capacity()
    }

    /// Unwritten bytes currently buffered.
    pub fn pending_write_bytes(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether a further `size`-byte frame fits under the write cap.
    pub(crate) fn can_enqueue(&self, size: usize) -> bool {
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
            self.write_calls += 1;
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
        if self.write_buf.capacity() > WRITE_KEEP {
            self.write_buf = Vec::new();
        } else {
            self.write_buf.clear();
        }
        self.write_pos = 0;
        Ok(ConnStatus::Open)
    }

    /// Whether buffered bytes are waiting for a writable edge.
    pub fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// `read` calls made by `fill`, `WouldBlock`s and EOFs included.
    pub fn read_calls(&self) -> u64 {
        self.read_calls
    }

    /// Payload bytes `fill` discarded in the kernel without reading them.
    pub fn discarded_bytes(&self) -> u64 {
        self.discarded_bytes
    }

    /// `write` calls made by `flush`, `WouldBlock`s included.
    pub fn write_calls(&self) -> u64 {
        self.write_calls
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

/// Drop up to `len` bytes from the front of `stream`'s receive queue
/// without copying them: tcp(7) documents that `MSG_TRUNC` on a TCP
/// socket discards the data instead of passing it back. Returns the
/// bytes dropped, `Ok(0)` at EOF, and errors (`WouldBlock` on a
/// nonblocking socket with nothing queued) as `read` does.
fn discard(stream: &TcpStream, len: usize) -> io::Result<usize> {
    use std::ffi::{c_int, c_void};
    const MSG_TRUNC: c_int = 0x20;
    extern "C" {
        fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
    }
    // SAFETY: the descriptor is `stream`'s and stays open for the call.
    // With `MSG_TRUNC` a TCP `recv` writes nothing to `buf`, so the null
    // pointer is never dereferenced; the kernel only counts `len` off.
    let n = unsafe { recv(stream.as_raw_fd(), std::ptr::null_mut(), len, MSG_TRUNC) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
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
