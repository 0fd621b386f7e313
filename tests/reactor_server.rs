//! Integration: `ReactorServer` driven directly, without the fleet
//! client — raw `FFLP` frames over a blocking `TcpStream`.
//!
//! Each case pins one piece of the §IV-A batching contract or of the
//! server's lifecycle: a request is answered; requests that arrive
//! together run as one batch; what queues beyond the batch limit while a
//! batch runs is rejected at once; a batch's replies to one connection
//! leave in one write; connections share one batcher; chaos
//! drops swallow requests; a restart on a cloned listener keeps the
//! address; shutdown joins. Every case finishes well under a second.

use framefeedback::reactor::{
    decode_frame, encode_request_into, Frame, ReactorServer, ReactorServerConfig,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn config(batch_limit: usize, batch_base_ms: u64, per_frame_ms: u64) -> ReactorServerConfig {
    ReactorServerConfig {
        batch_limit,
        batch_base: Duration::from_millis(batch_base_ms),
        per_frame: Duration::from_millis(per_frame_ms),
        ..ReactorServerConfig::default()
    }
}

/// A blocking client speaking raw `FFLP`.
struct Client {
    stream: TcpStream,
    inbox: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        Client {
            stream,
            inbox: Vec::new(),
        }
    }

    /// Send one request per tag, all in a single write.
    fn send(&mut self, tags: &[u64]) {
        let mut out = Vec::new();
        for &tag in tags {
            encode_request_into(tag, &[0u8; 64], &mut out);
        }
        self.stream.write_all(&out).unwrap();
    }

    /// The next reply as `(tag, ok)`; a read timeout surfaces as `Err`.
    fn recv(&mut self) -> io::Result<(u64, bool)> {
        loop {
            if let Some((frame, used)) = decode_frame(&self.inbox).expect("well-formed reply") {
                let Frame::Response { tag, ok } = frame else {
                    panic!("the server sent a request frame");
                };
                self.inbox.drain(..used);
                return Ok((tag, ok));
            }
            let mut chunk = [0u8; 256];
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.inbox.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

/// Spin until the server has read `n` requests, so what is sent next
/// arrives while the batch holding them runs.
fn await_requests(server: &ReactorServer, n: u64) {
    let give_up = Instant::now() + Duration::from_secs(2);
    while server.stats().requests.load(Ordering::Relaxed) < n {
        assert!(Instant::now() < give_up, "server never read request {n}");
        std::thread::yield_now();
    }
}

#[test]
fn serves_a_single_request() {
    let server = ReactorServer::start("127.0.0.1:0", config(4, 5, 1)).unwrap();
    let mut client = Client::connect(server.addr());
    client.send(&[7]);
    assert_eq!(client.recv().unwrap(), (7, true));
    assert_eq!(server.stats().completions.load(Ordering::Relaxed), 1);
    server.shutdown();
}

/// k requests sent together ride one batch of `base + k·per_frame`
/// (70 ms here), not k batches of `base + per_frame` (220 ms).
#[test]
fn requests_sent_together_complete_as_one_batch() {
    let server = ReactorServer::start("127.0.0.1:0", config(15, 50, 5)).unwrap();
    let mut client = Client::connect(server.addr());
    let start = Instant::now();
    client.send(&[0, 1, 2, 3]);
    for tag in 0..4 {
        assert_eq!(client.recv().unwrap(), (tag, true));
    }
    let elapsed = start.elapsed();
    assert_eq!(server.stats().batches.load(Ordering::Relaxed), 1);
    assert!(
        elapsed >= Duration::from_millis(70) && elapsed < Duration::from_millis(200),
        "4 requests took {elapsed:?}; one batch is 70 ms, four are 220 ms"
    );
    server.shutdown();
}

/// Five requests queue behind a running batch with a limit of two: the
/// next batch takes two and the other three are rejected as it forms,
/// before it executes.
#[test]
fn overflow_beyond_the_batch_limit_is_rejected_at_once() {
    let server = ReactorServer::start("127.0.0.1:0", config(2, 60, 1)).unwrap();
    let mut client = Client::connect(server.addr());
    client.send(&[0]);
    await_requests(&server, 1);
    client.send(&[1, 2, 3, 4, 5]);

    let replies: Vec<_> = (0..6).map(|_| client.recv().unwrap()).collect();
    assert_eq!(
        replies,
        [
            (0, true),
            (3, false),
            (4, false),
            (5, false),
            (1, true),
            (2, true)
        ]
    );
    let stats = server.stats();
    assert_eq!(stats.rejections.load(Ordering::Relaxed), 3);
    assert_eq!(stats.completions.load(Ordering::Relaxed), 3);
    assert_eq!(stats.batches.load(Ordering::Relaxed), 2);
    server.shutdown();
}

/// Requests from two connections that queue during one batch run
/// together in the next.
#[test]
fn two_connections_share_one_batcher() {
    let server = ReactorServer::start("127.0.0.1:0", config(15, 60, 1)).unwrap();
    let mut a = Client::connect(server.addr());
    let mut b = Client::connect(server.addr());
    a.send(&[1]);
    await_requests(&server, 1);
    a.send(&[2]);
    b.send(&[3]);

    assert_eq!(a.recv().unwrap(), (1, true));
    assert_eq!(a.recv().unwrap(), (2, true));
    assert_eq!(b.recv().unwrap(), (3, true));
    let stats = server.stats();
    assert_eq!(stats.completions.load(Ordering::Relaxed), 3);
    assert_eq!(stats.batches.load(Ordering::Relaxed), 2);
    server.shutdown();
}

/// The replies one batch produces for a connection leave in one write:
/// the first read after the batch returns all k, in request order, and
/// the server counts k − 1 of them as coalesced behind the first.
#[test]
fn a_batch_answers_a_connection_in_one_write() {
    const K: u64 = 4;
    let server = ReactorServer::start("127.0.0.1:0", config(15, 0, 0)).unwrap();
    let mut client = Client::connect(server.addr());
    let tags: Vec<u64> = (0..K).collect();
    client.send(&tags);

    let mut chunk = [0u8; 1024];
    let n = client.stream.read(&mut chunk).unwrap();
    let mut replies = Vec::new();
    let mut at = 0;
    while let Some((frame, used)) = decode_frame(&chunk[at..n]).expect("well-formed replies") {
        let Frame::Response { tag, ok } = frame else {
            panic!("the server sent a request frame");
        };
        replies.push((tag, ok));
        at += used;
    }
    let expected: Vec<_> = tags.iter().map(|&tag| (tag, true)).collect();
    assert_eq!(replies, expected, "one read returned {n} bytes");
    assert_eq!(at, n, "a partial reply followed the batch");
    assert_eq!(server.stats().batches.load(Ordering::Relaxed), 1);

    // The server publishes a connection's coalesced writes when it closes.
    drop(client);
    let give_up = Instant::now() + Duration::from_secs(2);
    while server.stats().open_connections.load(Ordering::Relaxed) > 0 {
        assert!(Instant::now() < give_up, "the server never saw the close");
        std::thread::yield_now();
    }
    assert!(server.stats().coalesced_writes.load(Ordering::Relaxed) >= K - 1);
    server.shutdown();
}

#[test]
fn drop_probability_one_swallows_requests() {
    let server = ReactorServer::start("127.0.0.1:0", config(4, 5, 1)).unwrap();
    let chaos = server.chaos();
    let mut client = Client::connect(server.addr());
    client
        .stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();

    chaos.set_drop_probability(1.0);
    client.send(&[1]);
    let err = client.recv().unwrap_err();
    assert!(
        matches!(
            err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
        "expected no reply while dropping, got {err:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.chaos_drops.load(Ordering::Relaxed), 1);
    assert_eq!(stats.completions.load(Ordering::Relaxed), 0);

    chaos.set_drop_probability(0.0);
    client.send(&[2]);
    assert_eq!(client.recv().unwrap(), (2, true));
    server.shutdown();
}

#[test]
fn restart_on_a_cloned_listener_keeps_the_address() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let spare = listener.try_clone().unwrap();
    let server = ReactorServer::start_with(listener, config(4, 5, 1)).unwrap();
    let addr = server.addr();
    server.shutdown();

    // The cloned handle kept the port: the restarted server reappears at
    // the same address with no rebind race.
    let server = ReactorServer::start_with(spare, config(4, 5, 1)).unwrap();
    assert_eq!(server.addr(), addr);
    let mut client = Client::connect(addr);
    client.send(&[42]);
    assert_eq!(client.recv().unwrap(), (42, true));
    server.shutdown();
}

/// `shutdown` returns only once the event loop has exited, and the loop
/// owns the listener, so the port refuses connections right after.
#[test]
fn shutdown_joins_the_event_loop() {
    let server = ReactorServer::start("127.0.0.1:0", config(4, 5, 1)).unwrap();
    let addr = server.addr();
    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener outlived shutdown"
    );
}
