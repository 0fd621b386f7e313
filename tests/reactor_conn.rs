//! Integration: `FramedConn` driven through the facade over loopback.
//!
//! The read path reads frame heads through a bounded window, discards
//! request payloads in the kernel and decodes as bytes arrive, keeping
//! no payload; these cases pin that whatever the arrival pattern, frames
//! decode whole and in order, a burst costs one window read and one
//! discard per request, and the read side never holds more than the
//! window, nor more than one frame head once drained. The write side's
//! bound is exact: a frame is rejected precisely when its encoded bytes
//! would not fit, and a drained write buffer does not stay the size of
//! the largest run it carried.

use framefeedback::reactor::{
    encode_request_into, encode_response_into, ConnStatus, EnqueueOutcome, FramedConn,
    InboundFrame, DEFAULT_WRITE_BUF_CAP, MAX_HEAD_BYTES, READ_WINDOW,
};
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A framed end and the raw blocking socket at its peer.
fn pair(write_cap: usize) -> (FramedConn, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (sock, _) = listener.accept().unwrap();
    (FramedConn::new(sock, write_cap).unwrap(), peer)
}

/// Wait until at least `n` unread bytes sit in `conn`'s socket, so the
/// next `fill` takes all of them at once.
fn await_bytes(conn: &FramedConn, n: usize) {
    if n == 0 {
        return; // a zero-length peek would wait for data
    }
    let mut probe = vec![0u8; n];
    let give_up = Instant::now() + Duration::from_secs(5);
    loop {
        match conn.stream().peek(&mut probe) {
            Ok(got) if got >= n => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("peek failed: {e}"),
        }
        assert!(Instant::now() < give_up, "{n} bytes never arrived");
        std::thread::yield_now();
    }
}

/// Every complete frame the buffer holds.
fn drain(conn: &mut FramedConn) -> Vec<InboundFrame> {
    std::iter::from_fn(|| conn.next_frame().expect("a well-formed stream")).collect()
}

fn request(tag: u64, payload_len: usize) -> InboundFrame {
    InboundFrame::Request { tag, payload_len }
}

/// Two frames (a 9-byte tag varint, a 2-byte length varint, then a bare
/// header) cut at every byte boundary: the bytes before the cut arrive in
/// one fill, the rest in the next.
#[test]
fn a_stream_cut_at_every_byte_boundary_decodes_the_same() {
    let mut wire = Vec::new();
    encode_request_into(1 << 62, &[0xA5; 200], &mut wire);
    let first_end = wire.len();
    encode_request_into(7, &[], &mut wire);
    let frames = [request(1 << 62, 200), request(7, 0)];

    let (mut conn, mut peer) = pair(DEFAULT_WRITE_BUF_CAP);
    for cut in 0..=wire.len() {
        peer.write_all(&wire[..cut]).unwrap();
        await_bytes(&conn, cut);
        assert_eq!(conn.fill().unwrap(), ConnStatus::Open);
        let mut got = drain(&mut conn);
        let whole = [first_end, wire.len()]
            .iter()
            .filter(|&&end| end <= cut)
            .count();
        assert_eq!(got, frames[..whole], "before the rest, cut at {cut}");

        peer.write_all(&wire[cut..]).unwrap();
        await_bytes(&conn, wire.len() - cut);
        assert_eq!(conn.fill().unwrap(), ConnStatus::Open);
        got.extend(drain(&mut conn));
        assert_eq!(got, frames, "cut at {cut}");
    }
}

#[test]
fn a_hundred_frames_in_one_fill_decode_in_order() {
    let mut wire = Vec::new();
    for tag in 0..100u64 {
        encode_request_into(tag, &vec![tag as u8; tag as usize], &mut wire);
    }
    let (mut conn, mut peer) = pair(DEFAULT_WRITE_BUF_CAP);
    peer.write_all(&wire).unwrap();
    await_bytes(&conn, wire.len());
    assert_eq!(conn.fill().unwrap(), ConnStatus::Open);
    let expected: Vec<_> = (0..100).map(|tag| request(tag, tag as usize)).collect();
    assert_eq!(drain(&mut conn), expected);
}

/// Four pipelined 25 kB requests, the benchmark's window, sit in the
/// socket before one fill. Each takes one window read for its head and
/// one discard for the rest of its payload, and one more read meets
/// `WouldBlock`: 9 calls in all. At most one window per request reaches
/// user space; the rest is discarded in the kernel. A fill that fed the
/// payload through the 1 KiB window would make about a hundred reads
/// and discard nothing. Once drained, the read side is back to one head.
#[test]
fn a_burst_takes_one_read_and_one_discard_per_request() {
    const FRAMES: u64 = 4;
    let mut wire = Vec::new();
    for tag in 0..FRAMES {
        encode_request_into(tag, &[0x3C; 25_000], &mut wire);
    }
    let (mut conn, mut peer) = pair(DEFAULT_WRITE_BUF_CAP);
    peer.write_all(&wire).unwrap();
    await_bytes(&conn, wire.len());
    assert_eq!(conn.fill().unwrap(), ConnStatus::Open);
    let reads = conn.read_calls();
    let bound = 2 * FRAMES + 1;
    assert!(
        reads <= bound,
        "{reads} reads for {FRAMES} requests, at most {bound}"
    );
    let discarded = conn.discarded_bytes();
    let floor = (wire.len() - FRAMES as usize * READ_WINDOW) as u64;
    assert!(
        discarded >= floor,
        "{discarded} of {} B discarded, at least {floor}",
        wire.len()
    );
    assert!(conn.read_capacity() <= READ_WINDOW);
    let expected: Vec<_> = (0..FRAMES).map(|tag| request(tag, 25_000)).collect();
    assert_eq!(drain(&mut conn), expected);
    assert!(conn.read_capacity() <= MAX_HEAD_BYTES);
}

/// A client's run of four 25 kB requests grows its write buffer past
/// 100 kB; once the peer has taken them and a flush drained the buffer,
/// it is given back down to the 4 KiB a connection keeps, so 64 idle
/// clients do not each hold their largest run. A batch's replies fit in
/// what is kept and reuse it.
#[test]
fn a_drained_write_buffer_gives_back_a_large_run() {
    const KEEP: usize = 4 * 1024;
    let (mut conn, mut peer) = pair(DEFAULT_WRITE_BUF_CAP);
    for tag in 0..4 {
        assert_eq!(
            conn.enqueue_request(tag, &[0x3C; 25_000]),
            EnqueueOutcome::Queued
        );
    }
    let queued = conn.pending_write_bytes();
    assert!(conn.write_capacity() > KEEP);
    let reader = std::thread::spawn(move || {
        let mut sink = vec![0u8; queued];
        peer.read_exact(&mut sink).unwrap();
        peer
    });
    let give_up = Instant::now() + Duration::from_secs(5);
    while conn.wants_write() {
        assert!(Instant::now() < give_up, "the peer never drained the run");
        assert_eq!(conn.flush().unwrap(), ConnStatus::Open);
        std::thread::yield_now();
    }
    let _peer = reader.join().unwrap();
    assert!(
        conn.write_capacity() <= KEEP,
        "a drained write buffer still holds {} B",
        conn.write_capacity()
    );

    for tag in 0..15 {
        assert_eq!(conn.enqueue_response(tag, true), EnqueueOutcome::Queued);
    }
    let kept = conn.write_capacity();
    assert_eq!(conn.flush().unwrap(), ConnStatus::Open);
    assert!(!conn.wants_write());
    assert_eq!(conn.write_capacity(), kept, "a batch's replies were freed");
}

/// A 1 MiB request behind small ones arrives over many fills, and a
/// frame split behind it still decodes once its tail arrives. The read
/// side never holds more than the window: the request is counted off,
/// not buffered.
#[test]
fn a_mebibyte_request_after_small_ones() {
    const BIG: usize = 1 << 20;
    let (mut conn, mut peer) = pair(DEFAULT_WRITE_BUF_CAP);
    let mut tail = Vec::new();
    encode_request_into(9, &[3; 40], &mut tail);
    let half = tail.len() / 2;
    let writer = {
        let head = tail[..half].to_vec();
        std::thread::spawn(move || {
            let mut wire = Vec::new();
            for tag in 0..3 {
                encode_request_into(tag, &[1; 10], &mut wire);
            }
            encode_request_into(u64::MAX, &vec![2; BIG], &mut wire);
            wire.extend_from_slice(&head);
            peer.write_all(&wire).unwrap();
            peer
        })
    };

    let mut got = Vec::new();
    let give_up = Instant::now() + Duration::from_secs(10);
    while got.len() < 4 {
        assert!(
            Instant::now() < give_up,
            "only {} frames arrived",
            got.len()
        );
        assert_eq!(conn.fill().unwrap(), ConnStatus::Open);
        assert!(conn.read_capacity() <= READ_WINDOW);
        got.extend(drain(&mut conn));
    }
    let mut peer = writer.join().unwrap();
    peer.write_all(&tail[half..]).unwrap();
    while got.len() < 5 {
        assert!(Instant::now() < give_up, "the split frame never completed");
        assert_eq!(conn.fill().unwrap(), ConnStatus::Open);
        assert!(conn.read_capacity() <= READ_WINDOW);
        got.extend(drain(&mut conn));
    }
    assert_eq!(
        got,
        [
            request(0, 10),
            request(1, 10),
            request(2, 10),
            request(u64::MAX, BIG),
            request(9, 40)
        ]
    );
}

/// Frames that arrive right before the peer's FIN still decode, and the
/// fill that meets the FIN reports `Closed`.
#[test]
fn frames_before_a_close_still_decode() {
    let (mut conn, mut peer) = pair(DEFAULT_WRITE_BUF_CAP);
    let mut wire = Vec::new();
    for tag in 0..3 {
        encode_request_into(tag, &[5; 100], &mut wire);
    }
    peer.write_all(&wire).unwrap();
    drop(peer);

    let mut got = Vec::new();
    let give_up = Instant::now() + Duration::from_secs(5);
    loop {
        let status = conn.fill().unwrap();
        got.extend(drain(&mut conn));
        if status == ConnStatus::Closed {
            break;
        }
        assert!(Instant::now() < give_up, "the close never surfaced");
        std::thread::yield_now();
    }
    assert_eq!(got, (0..3).map(|tag| request(tag, 100)).collect::<Vec<_>>());
    assert_eq!(conn.fill().unwrap(), ConnStatus::Closed);
}

/// 10 000 round trips of 25 kB with four requests pipelined, so fills
/// often end inside a frame. Whatever is in flight, the read side holds
/// no more than the window while the stream carries 250 MB.
#[test]
fn the_read_buffer_stays_bounded_over_ten_thousand_round_trips() {
    const TRIPS: u64 = 10_000;
    const WINDOW: u64 = 4;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let mut client = FramedConn::new(dialed, DEFAULT_WRITE_BUF_CAP).unwrap();
    let mut server = FramedConn::new(listener.accept().unwrap().0, DEFAULT_WRITE_BUF_CAP).unwrap();
    let payload = vec![0x3C; 25_000];

    let (mut sent, mut answered) = (0u64, 0u64);
    let give_up = Instant::now() + Duration::from_secs(60);
    while answered < TRIPS {
        assert!(
            Instant::now() < give_up,
            "stalled at {answered} round trips"
        );
        while sent < TRIPS && sent - answered < WINDOW {
            assert_eq!(
                client.enqueue_request(sent, &payload),
                EnqueueOutcome::Queued
            );
            sent += 1;
        }
        assert_eq!(client.flush().unwrap(), ConnStatus::Open);

        assert_eq!(server.fill().unwrap(), ConnStatus::Open);
        for frame in drain(&mut server) {
            let InboundFrame::Request { tag, payload_len } = frame else {
                panic!("the client sent a response");
            };
            assert_eq!(payload_len, payload.len());
            assert_eq!(server.enqueue_response(tag, true), EnqueueOutcome::Queued);
        }
        assert_eq!(server.flush().unwrap(), ConnStatus::Open);
        assert!(
            server.read_capacity() <= READ_WINDOW,
            "read side grew to {} B after {answered} round trips",
            server.read_capacity()
        );

        assert_eq!(client.fill().unwrap(), ConnStatus::Open);
        for frame in drain(&mut client) {
            assert_eq!(
                frame,
                InboundFrame::Response {
                    tag: answered,
                    ok: true
                }
            );
            answered += 1;
        }
    }
}

/// A peer whose writes never end on a frame boundary leaves a partial
/// frame behind every fill. Its payload is counted off as it passes, so
/// the read side still holds no more than the window.
#[test]
fn a_stream_that_never_pauses_at_a_frame_boundary_stays_bounded() {
    const FRAMES: u64 = 2_000;
    let mut wire = Vec::new();
    for tag in 0..FRAMES {
        encode_request_into(tag, &[0x3C; 25_000], &mut wire);
    }
    let (mut conn, mut peer) = pair(DEFAULT_WRITE_BUF_CAP);
    let mut got = 0;
    for chunk in wire.chunks(30_000) {
        peer.write_all(chunk).unwrap();
        await_bytes(&conn, chunk.len());
        assert_eq!(conn.fill().unwrap(), ConnStatus::Open);
        for frame in drain(&mut conn) {
            assert_eq!(frame, request(got, 25_000));
            got += 1;
        }
        assert!(
            conn.read_capacity() <= READ_WINDOW,
            "read side grew to {} B after {got} frames",
            conn.read_capacity()
        );
    }
    assert_eq!(got, FRAMES);
}

/// Encoded size of a request (`Some(payload)`) or a response, measured
/// by encoding it.
fn encoded_len(tag: u64, payload: Option<&[u8]>) -> usize {
    let mut buf = Vec::new();
    match payload {
        Some(p) => encode_request_into(tag, p, &mut buf),
        None => encode_response_into(tag, true, &mut buf),
    }
    buf.len()
}

proptest! {
    /// Never flushed, a connection queues frames of every tag width and
    /// payload size until the cap. The cap sits within two bytes of a
    /// prefix of the frames' total, where an estimated size and the exact
    /// one disagree.
    #[test]
    fn prop_the_write_bound_is_exact(
        frames in proptest::collection::vec(
            (any::<u64>(), 0u32..64, 0usize..=65_536, any::<bool>()),
            1..12,
        ),
        prefix in 0usize..12,
        slack in 0usize..5,
    ) {
        let zeros = vec![0u8; 65_536];
        let frames: Vec<(u64, Option<&[u8]>)> = frames
            .iter()
            .map(|&(raw, shift, len, is_request)| {
                (raw >> shift, is_request.then(|| &zeros[..len]))
            })
            .collect();
        let sizes: Vec<usize> = frames.iter().map(|&(t, p)| encoded_len(t, p)).collect();
        let cap = (sizes[..prefix.min(sizes.len())].iter().sum::<usize>() + slack)
            .saturating_sub(2);

        let (mut conn, _peer) = pair(cap);
        let mut pending = 0;
        for (&(tag, payload), &size) in frames.iter().zip(&sizes) {
            let fits = pending + size <= cap;
            let outcome = match payload {
                Some(p) => conn.enqueue_request(tag, p),
                None => conn.enqueue_response(tag, true),
            };
            prop_assert_eq!(
                outcome == EnqueueOutcome::Queued,
                fits,
                "tag {}, {} B, cap {}",
                tag,
                size,
                cap
            );
            if fits {
                pending += size;
            }
            prop_assert!(conn.pending_write_bytes() <= cap);
            prop_assert_eq!(conn.pending_write_bytes(), pending);
        }
    }
}
