//! A connection queued while the server is out of file descriptors is
//! served once descriptors free up. The listener is edge-triggered, so
//! a connection already in the backlog when `accept` failed with
//! `EMFILE` raises no new edge: the server must retry on its own. The
//! test lowers `RLIMIT_NOFILE` for the whole process, so it is the only
//! test in this binary.

use framefeedback::reactor::{encode_request_into, encode_response_into, ReactorServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::Duration;

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut [u64; 2]) -> i32;
    fn setrlimit(resource: i32, rlim: *const [u64; 2]) -> i32;
}

/// One request on `client` and its successful reply, within 2 s.
fn round_trip(client: &mut TcpStream, tag: u64) {
    let (mut request, mut reply) = (Vec::new(), Vec::new());
    encode_request_into(tag, &[0u8; 64], &mut request);
    encode_response_into(tag, true, &mut reply);
    let timeout = Some(Duration::from_secs(2));
    client.set_read_timeout(timeout).unwrap();
    client.write_all(&request).unwrap();
    let mut got = vec![0u8; reply.len()];
    client
        .read_exact(&mut got)
        .expect("a reply within 2 s: the connection was stranded");
    assert_eq!(got, reply);
}

#[test]
fn a_connection_queued_during_fd_exhaustion_is_served() {
    let server = ReactorServer::start("127.0.0.1:0", Default::default()).unwrap();
    // A first round trip proves the event loop holds its descriptors.
    let mut first = TcpStream::connect(server.addr()).unwrap();
    round_trip(&mut first, 1);

    let mut saved = [0u64; 2];
    // SAFETY: both calls get a valid `struct rlimit` (two `rlim_t`s).
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut saved) }, 0);
    // Descriptors are allocated lowest-first, so this leaves room for
    // exactly one more: the client's socket. The server's `accept` for
    // it then fails with EMFILE.
    let lowest = std::fs::File::open("/dev/null").unwrap().as_raw_fd() as u64;
    assert_eq!(
        unsafe { setrlimit(RLIMIT_NOFILE, &[lowest + 1, saved[1]]) },
        0
    );
    let connected = TcpStream::connect(server.addr());
    std::thread::sleep(Duration::from_millis(200));
    let accepted = server.stats().connections.load(Ordering::Relaxed);
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &saved) }, 0);
    assert_eq!(accepted, 1, "the server accepted while out of descriptors");

    let mut client = connected.expect("the client's socket fits under the limit");
    round_trip(&mut client, 7);
    server.shutdown();
}
