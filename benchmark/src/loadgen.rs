//! Load generator for the reactor tier: one thread, one epoll instance,
//! many [`FramedConn`]s, speaking FFLP over the host's **loopback**
//! interface. No real link is ever crossed.
//!
//! Two arrival disciplines:
//!
//! * **closed loop** — every connection keeps `window` requests
//!   outstanding and sends the next only when a reply arrives, so a slow
//!   server receives less load. Round trips are timed from the send.
//! * **open loop** — requests fall due on a fixed schedule whatever the
//!   server does; each is timed from its *due* instant, so a stall is
//!   charged to every request it delays, and the generator's own
//!   lateness is reported.
//!
//! A drive is ramp → measure → drain: completions are attributed to the
//! phase in which they *complete*; after the measure phase nothing new
//! is sent and the generator waits for every outstanding reply.

use ff_reactor::{ConnStatus, EnqueueOutcome, FramedConn, InboundFrame, DEFAULT_WRITE_BUF_CAP};
use mio::{Events, Interest, Poll, Token};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::host;

/// The paper's end-to-end deadline, on the wall clock.
pub const DEADLINE: Duration = Duration::from_millis(250);

/// How long a drain (or the dial's warm-up round trip) may take before
/// the outstanding requests count as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(3);

/// Phase of a drive, by time since it began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Discarded warm-up.
    Ramp,
    /// The measured window.
    Measure,
    /// Sending has stopped; outstanding replies are collected.
    Drain,
}

/// Phase boundaries of one drive, in nanoseconds since it began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// Length of the ramp.
    pub ramp_ns: u64,
    /// Length of the measured window that follows it.
    pub measure_ns: u64,
}

impl Windows {
    /// Boundaries from durations.
    pub fn new(ramp: Duration, measure: Duration) -> Windows {
        Windows {
            ramp_ns: ramp.as_nanos() as u64,
            measure_ns: measure.as_nanos() as u64,
        }
    }

    /// The phase instant `t_ns` falls in: the measured window is
    /// half-open, `[ramp, ramp + measure)`.
    pub fn phase(&self, t_ns: u64) -> Phase {
        if t_ns < self.ramp_ns {
            Phase::Ramp
        } else if t_ns < self.ramp_ns + self.measure_ns {
            Phase::Measure
        } else {
            Phase::Drain
        }
    }
}

/// Request/response accounting of one drive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests handed to a connection (all phases).
    pub sent: u64,
    /// Replies carrying an inference verdict.
    pub ok: u64,
    /// Replies carrying a rejection.
    pub refused: u64,
    /// `ok` replies that arrived within [`DEADLINE`].
    pub hits: u64,
    /// Open loop only: requests the bounded write buffer turned away
    /// when they fell due (they count as sent and failed).
    pub dropped: u64,
    /// Enqueue attempts the bounded write buffer turned away (closed
    /// loop retries them; open loop drops them).
    pub enqueue_rejects: u64,
    /// Replies that completed inside the measured window.
    pub measured: u64,
    /// Round-trip time of every reply counted in `measured`, ns.
    pub rtt_ns: Vec<u64>,
}

impl Tally {
    /// Account one reply that completed in `phase` after `rtt_ns`.
    pub fn reply(&mut self, phase: Phase, ok: bool, rtt_ns: u64) {
        if ok {
            self.ok += 1;
            if rtt_ns <= DEADLINE.as_nanos() as u64 {
                self.hits += 1;
            }
        } else {
            self.refused += 1;
        }
        if phase == Phase::Measure {
            self.measured += 1;
            self.rtt_ns.push(rtt_ns);
        }
    }

    /// Requests sent and not yet answered or dropped.
    pub fn in_flight(&self) -> u64 {
        self.sent - self.ok - self.refused - self.dropped
    }
}

/// Arrival discipline of a drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Keep `window` requests outstanding per connection.
    Closed {
        /// Outstanding requests per connection.
        window: usize,
    },
    /// Send on a fixed schedule, round-robin over the connections.
    Open {
        /// Requests per second across all connections.
        rate_per_s: f64,
    },
}

/// What one drive measured.
#[derive(Debug, Clone)]
pub struct Drive {
    /// Request/response accounting.
    pub tally: Tally,
    /// Actual length of the measured window, seconds.
    pub window_s: f64,
    /// Process CPU (client + server threads) inside the window, seconds.
    pub process_cpu_s: f64,
    /// Generator-thread CPU inside the window, seconds.
    pub client_cpu_s: f64,
    /// Open loop: how late each measured request left, ns after due.
    pub gen_lateness_ns: Vec<u64>,
    /// When the drive began, the window opened, the window closed and
    /// the drain ended.
    pub edges: [Instant; 4],
}

struct Conn {
    framed: FramedConn,
    /// `(tag, t0_ns)` of every unanswered request; `t0` is the send
    /// instant (closed loop) or the due instant (open loop).
    outstanding: Vec<(u64, u64)>,
    next_seq: u64,
}

/// A set of dialed connections plus their poller.
pub struct Client {
    poll: Poll,
    conns: Vec<Conn>,
    payload: Vec<u8>,
}

impl Client {
    /// Dial `conns` connections to `addr` and complete one round trip on
    /// each, so accept, registration and buffer growth are out of the
    /// way before anything is measured.
    pub fn dial(addr: SocketAddr, conns: usize, payload: Vec<u8>) -> io::Result<Client> {
        let poll = Poll::new()?;
        let mut client = Client {
            poll,
            conns: Vec::with_capacity(conns),
            payload,
        };
        for i in 0..conns {
            let framed = FramedConn::new(TcpStream::connect(addr)?, DEFAULT_WRITE_BUF_CAP)?;
            client.poll.registry().register(
                framed.stream(),
                Token(i),
                Interest::READABLE | Interest::WRITABLE,
            )?;
            client.conns.push(Conn {
                framed,
                outstanding: Vec::new(),
                next_seq: 0,
            });
        }
        let warm = client.drive(
            Arrivals::Closed { window: 1 },
            Windows::new(Duration::ZERO, Duration::ZERO),
        )?;
        if warm.tally.ok != conns as u64 || warm.tally.in_flight() != 0 {
            return Err(io::Error::other(format!(
                "warm-up round trip failed: {:?}",
                warm.tally
            )));
        }
        Ok(client)
    }

    /// Number of connections.
    pub fn conns(&self) -> usize {
        self.conns.len()
    }

    fn send(&mut self, i: usize, t0_ns: u64, tally: &mut Tally) -> bool {
        let conn = &mut self.conns[i];
        let tag = ((i as u64) << 32) | conn.next_seq;
        match conn.framed.enqueue_request(tag, &self.payload) {
            EnqueueOutcome::Queued => {
                conn.next_seq += 1;
                conn.outstanding.push((tag, t0_ns));
                tally.sent += 1;
                true
            }
            EnqueueOutcome::Rejected => {
                tally.enqueue_rejects += 1;
                false
            }
        }
    }

    fn flush(&mut self, i: usize) -> io::Result<()> {
        match self.conns[i].framed.flush()? {
            ConnStatus::Open => Ok(()),
            ConnStatus::Closed => Err(io::Error::other("server closed a connection")),
        }
    }

    /// Closed loop: bring connection `i` back up to `window` outstanding.
    fn top_up(&mut self, i: usize, window: usize, now_ns: u64, tally: &mut Tally) {
        while self.conns[i].outstanding.len() < window {
            if !self.send(i, now_ns, tally) {
                break;
            }
        }
    }

    /// Run one ramp → measure → drain cycle.
    ///
    /// With a zero-length ramp and window the cycle degenerates to "one
    /// burst, then drain", which is what the dial's warm-up uses.
    pub fn drive(&mut self, arrivals: Arrivals, windows: Windows) -> io::Result<Drive> {
        let start = Instant::now();
        let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
        let send_until_ns = windows.ramp_ns + windows.measure_ns;
        let mut events = Events::with_capacity(256);
        let mut tally = Tally::default();
        let mut gen_lateness_ns = Vec::new();
        // (instant, process cpu ns, thread cpu ns) at each window edge.
        let mut opened: Option<(Instant, u64, u64)> = None;
        let mut closed: Option<(Instant, u64, u64)> = None;
        let mut next_due = 0u64; // open loop: index of the next request
        let due_ns = |k: u64, rate: f64| (k as f64 * 1e9 / rate) as u64;

        if let Arrivals::Closed { window } = arrivals {
            for i in 0..self.conns.len() {
                self.top_up(i, window.max(1), 0, &mut tally);
                self.flush(i)?;
            }
        }

        loop {
            let instant = Instant::now();
            let now = ns(instant);
            if opened.is_none() && now >= windows.ramp_ns {
                opened = Some((instant, host::process_cpu_ns(), host::thread_cpu_ns()));
            }
            if closed.is_none() && now >= send_until_ns {
                closed = Some((instant, host::process_cpu_ns(), host::thread_cpu_ns()));
            }
            let sending = closed.is_none();
            if let Some((since, ..)) = closed {
                // On a timed-out drain the caller sees in_flight() > 0.
                if tally.in_flight() == 0 || instant.duration_since(since) > DRAIN_LIMIT {
                    break;
                }
            }

            let mut timeout = Duration::from_millis(10);
            if sending {
                timeout = timeout.min(Duration::from_nanos(send_until_ns - now));
                if let Arrivals::Open { rate_per_s } = arrivals {
                    // Everything that fell due since the last pass goes out
                    // now, with one flush per connection touched.
                    let first_due = next_due;
                    while due_ns(next_due, rate_per_s) <= now
                        && due_ns(next_due, rate_per_s) < send_until_ns
                    {
                        let due = due_ns(next_due, rate_per_s);
                        let i = (next_due % self.conns.len() as u64) as usize;
                        if !self.send(i, due, &mut tally) {
                            tally.sent += 1;
                            tally.dropped += 1;
                        }
                        if windows.phase(due) == Phase::Measure {
                            gen_lateness_ns.push(ns(Instant::now()) - due);
                        }
                        next_due += 1;
                    }
                    let touched = (next_due - first_due).min(self.conns.len() as u64);
                    for k in first_due..first_due + touched {
                        self.flush((k % self.conns.len() as u64) as usize)?;
                    }
                    let wait = due_ns(next_due, rate_per_s).saturating_sub(now);
                    // epoll sleeps in whole milliseconds: spin through
                    // shorter gaps so the schedule is kept.
                    timeout = if wait < 1_000_000 {
                        Duration::ZERO
                    } else {
                        timeout.min(Duration::from_nanos(wait))
                    };
                }
            }

            self.poll.poll(&mut events, Some(timeout))?;
            for event in events.iter() {
                let i = event.token().0;
                let readable = event.is_readable() || event.is_read_closed() || event.is_error();
                let writable = event.is_writable();
                if readable {
                    if self.conns[i].framed.fill()? == ConnStatus::Closed {
                        return Err(io::Error::other("server closed a connection"));
                    }
                    let done = ns(Instant::now());
                    loop {
                        let frame = self.conns[i]
                            .framed
                            .next_frame()
                            .map_err(|e| io::Error::other(format!("corrupt reply: {e:?}")))?;
                        let Some(InboundFrame::Response { tag, ok }) = frame else {
                            if frame.is_some() {
                                return Err(io::Error::other("server sent a request frame"));
                            }
                            break;
                        };
                        let out = &mut self.conns[i].outstanding;
                        let at = out
                            .iter()
                            .position(|&(t, _)| t == tag)
                            .ok_or_else(|| io::Error::other("reply to an unknown tag"))?;
                        let (_, t0) = out.swap_remove(at);
                        tally.reply(windows.phase(done), ok, done.saturating_sub(t0));
                    }
                }
                if readable || writable {
                    if let (true, Arrivals::Closed { window }) = (sending, arrivals) {
                        let now = ns(Instant::now());
                        if now < send_until_ns {
                            self.top_up(i, window, now, &mut tally);
                        }
                    }
                    self.flush(i)?;
                }
            }
        }

        let (o, c) = (
            opened.expect("the loop passes the ramp edge before it ends"),
            closed.expect("the loop passes the window edge before it ends"),
        );
        Ok(Drive {
            tally,
            window_s: c.0.duration_since(o.0).as_secs_f64(),
            process_cpu_s: (c.1 - o.1) as f64 / 1e9,
            client_cpu_s: (c.2 - o.2) as f64 / 1e9,
            gen_lateness_ns,
            edges: [start, o.0, c.0, Instant::now()],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn the_measured_window_is_half_open() {
        let w = Windows::new(Duration::from_millis(500), Duration::from_millis(2_500));
        assert_eq!(w.phase(0), Phase::Ramp);
        assert_eq!(w.phase(500 * MS - 1), Phase::Ramp);
        assert_eq!(w.phase(500 * MS), Phase::Measure);
        assert_eq!(w.phase(3_000 * MS - 1), Phase::Measure);
        assert_eq!(w.phase(3_000 * MS), Phase::Drain);
    }

    #[test]
    fn replies_count_where_they_complete_not_where_they_were_sent() {
        let w = Windows::new(Duration::from_millis(10), Duration::from_millis(100));
        let mut t = Tally {
            sent: 4,
            ..Tally::default()
        };
        // Sent during the ramp, completes during the ramp: not measured.
        t.reply(w.phase(5 * MS), true, 2 * MS);
        // Sent during the ramp, completes inside the window: measured.
        t.reply(w.phase(12 * MS), true, 9 * MS);
        // Completes inside the window but refused: measured, not ok.
        t.reply(w.phase(50 * MS), false, MS);
        assert_eq!(t.in_flight(), 1);
        // Sent inside the window, completes in the drain: not measured.
        t.reply(w.phase(111 * MS), true, 3 * MS);
        assert_eq!((t.ok, t.refused, t.measured), (3, 1, 2));
        assert_eq!(t.rtt_ns, vec![9 * MS, MS]);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn a_late_reply_is_ok_but_not_a_deadline_hit() {
        let mut t = Tally {
            sent: 3,
            ..Tally::default()
        };
        t.reply(Phase::Measure, true, 250 * MS);
        t.reply(Phase::Measure, true, 250 * MS + 1);
        t.reply(Phase::Measure, false, MS);
        assert_eq!((t.ok, t.hits, t.refused), (2, 1, 1));
    }

    #[test]
    fn a_dropped_open_loop_request_is_sent_and_resolved() {
        let mut t = Tally::default();
        t.sent += 2;
        t.dropped += 1;
        assert_eq!(t.in_flight(), 1);
        t.reply(Phase::Drain, true, MS);
        assert_eq!(t.in_flight(), 0);
    }
}
