//! The live inference server.
//!
//! §IV-A adaptive batching over real TCP: requests collect while a batch
//! "executes", the next batch takes at most `batch_limit` of them, and
//! the overflow is rejected at once. **One** thread runs an epoll loop
//! over every connection, and the GPU's execution time is a timer-wheel
//! event (`BatchDone`) rather than a sleep, so a thousand connections
//! cost a thousand sockets and nothing else. Fault injection (hang-ups,
//! swallowed requests, stalled replies) is retunable while the server
//! runs, through [`ReactorChaos`].
//!
//! Writes never block and never queue without bound: replies coalesce
//! into each connection's bounded write buffer, and a reply that does not
//! fit is **dropped and counted** (`writer_drops`) — the PR-6
//! `TcpExportSink` discipline applied to the inference path. A client
//! that stops reading loses replies, not the server's memory. Producing a
//! reply only enqueues it: every connection a loop turn touched is
//! flushed once, just before the next `poll`, so a batch's replies to one
//! client leave in one `write`.

use crate::conn::{ConnStatus, EnqueueOutcome, FramedConn, InboundFrame, DEFAULT_WRITE_BUF_CAP};
use crate::timer::DeadlineWheel;
use ff_device::WallClock;
use ff_telemetry::{Level, LogCode, Metric, Recorder, Scope, Telemetry};
use mio::{Events, Interest, Poll, Token};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Token of the accept socket; connections use `Token(slot + 1)`.
const LISTENER: Token = Token(0);

/// Poll timeout cap: bounds both shutdown latency and timer slack when
/// the wheel is empty.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// Server batching parameters: the wall-clock analogue of `GpuProfile`.
/// The defaults are the paper's batch limit of 15 and the MobileNetV3Small
/// GPU profile of `ff-models` (`40 ms + 4.3 ms` per frame in the batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactorServerConfig {
    /// Maximum frames per batch (paper: 15).
    pub batch_limit: usize,
    /// Fixed per-batch execution time.
    pub batch_base: Duration,
    /// Marginal execution time per frame in the batch.
    pub per_frame: Duration,
    /// Bound on buffered unwritten reply bytes per connection.
    pub write_buf_cap: usize,
    /// Seed for the per-connection chaos RNG streams.
    pub chaos_seed: u64,
}

impl Default for ReactorServerConfig {
    fn default() -> Self {
        ReactorServerConfig {
            batch_limit: 15,
            batch_base: Duration::from_millis(40),
            per_frame: Duration::from_micros(4_300),
            write_buf_cap: DEFAULT_WRITE_BUF_CAP,
            chaos_seed: 0,
        }
    }
}

/// Counters exported by a running reactor server.
#[derive(Debug, Default)]
pub struct ReactorServerStats {
    /// Requests read off connections.
    pub requests: AtomicU64,
    /// Requests that ran in a batch.
    pub completions: AtomicU64,
    /// Requests rejected as batch overflow.
    pub rejections: AtomicU64,
    /// Batches executed.
    pub batches: AtomicU64,
    /// Requests swallowed by chaos (no reply ever sent).
    pub chaos_drops: AtomicU64,
    /// Connections killed by chaos.
    pub chaos_disconnects: AtomicU64,
    /// Replies delayed by chaos.
    pub chaos_stalls: AtomicU64,
    /// Replies dropped because a connection's bounded write buffer was
    /// full (the peer stopped reading).
    pub writer_drops: AtomicU64,
    /// Total connections accepted.
    pub connections: AtomicU64,
    /// Connections currently open.
    pub open_connections: AtomicU64,
    /// Readiness events delivered by the poller.
    pub ready_events: AtomicU64,
    /// Writes that coalesced behind already-buffered bytes.
    pub coalesced_writes: AtomicU64,
}

/// Chaos probabilities in millionths, retunable while the loop runs.
/// Each request is judged in the order disconnect → drop → stall, and
/// `fail_all` overrides everything.
#[derive(Debug, Default)]
struct ChaosKnobs {
    disconnect_ppm: AtomicU32,
    drop_ppm: AtomicU32,
    stall_ppm: AtomicU32,
    stall_micros: AtomicU64,
    fail_all: AtomicBool,
}

fn to_ppm(p: f64) -> u32 {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    (p * 1_000_000.0).round() as u32
}

fn ppm_hit(ppm: u32, rng: &mut SmallRng) -> bool {
    ppm > 0 && rng.gen_range(0u32..1_000_000) < ppm
}

enum ChaosVerdict {
    Pass,
    Drop,
    Disconnect,
    Stall(Duration),
}

impl ChaosKnobs {
    fn verdict(&self, rng: &mut SmallRng) -> ChaosVerdict {
        if self.fail_all.load(Ordering::Relaxed) {
            return ChaosVerdict::Drop;
        }
        if ppm_hit(self.disconnect_ppm.load(Ordering::Relaxed), rng) {
            return ChaosVerdict::Disconnect;
        }
        if ppm_hit(self.drop_ppm.load(Ordering::Relaxed), rng) {
            return ChaosVerdict::Drop;
        }
        if ppm_hit(self.stall_ppm.load(Ordering::Relaxed), rng) {
            let d = Duration::from_micros(self.stall_micros.load(Ordering::Relaxed));
            return ChaosVerdict::Stall(d);
        }
        ChaosVerdict::Pass
    }
}

/// Runtime handle to a reactor server's chaos knobs (cloneable,
/// thread-safe). Every knob starts at zero: a fresh server injects no
/// faults.
#[derive(Debug, Clone)]
pub struct ReactorChaos {
    knobs: Arc<ChaosKnobs>,
}

impl ReactorChaos {
    /// Swallow every request with no reply (`true`), or restore the
    /// configured probabilities (`false`).
    pub fn fail_all(&self, on: bool) {
        self.knobs.fail_all.store(on, Ordering::Relaxed);
    }

    /// Retune the per-request disconnect probability.
    pub fn set_disconnect_probability(&self, p: f64) {
        self.knobs
            .disconnect_ppm
            .store(to_ppm(p), Ordering::Relaxed);
    }

    /// Retune the per-request drop probability.
    pub fn set_drop_probability(&self, p: f64) {
        self.knobs.drop_ppm.store(to_ppm(p), Ordering::Relaxed);
    }

    /// Retune the reply-stall probability and duration.
    pub fn set_stall(&self, p: f64, stall: Duration) {
        self.knobs.stall_ppm.store(to_ppm(p), Ordering::Relaxed);
        self.knobs
            .stall_micros
            .store(stall.as_micros() as u64, Ordering::Relaxed);
    }
}

/// A running reactor server. Dropping it (or calling
/// [`ReactorServer::shutdown`]) stops the event loop.
pub struct ReactorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ReactorServerStats>,
    chaos: Arc<ChaosKnobs>,
    handle: Option<JoinHandle<()>>,
}

impl ReactorServer {
    /// Bind `bind` (use `127.0.0.1:0` to avoid port clashes) and serve.
    pub fn start(bind: &str, config: ReactorServerConfig) -> io::Result<ReactorServer> {
        Self::start_with(TcpListener::bind(bind)?, config)
    }

    /// Serve on an already-bound listener (restart tests keep a
    /// `try_clone` of it so the port stays held across stop/start).
    pub fn start_with(
        listener: TcpListener,
        config: ReactorServerConfig,
    ) -> io::Result<ReactorServer> {
        Self::start_instrumented(listener, config, &Telemetry::disabled())
    }

    /// Serve with a telemetry pipeline: the loop records request/batch
    /// counters, chaos verdicts, reactor gauges (ready events, write-
    /// buffer occupancy, coalesced writes) under scope `reactor/server`,
    /// timestamped in wall-clock microseconds since this call.
    pub fn start_instrumented(
        listener: TcpListener,
        config: ReactorServerConfig,
        telemetry: &Telemetry,
    ) -> io::Result<ReactorServer> {
        assert!(config.batch_limit > 0, "batch limit must be positive");
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ReactorServerStats::default());
        let chaos = Arc::new(ChaosKnobs::default());
        let recorder = telemetry.recorder();
        let scope = telemetry.scope("reactor/server");

        let handle = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let chaos = Arc::clone(&chaos);
            thread::Builder::new()
                .name("ff-reactor-server".into())
                .spawn(move || {
                    let mut lp = match ServerLoop::new(
                        listener, config, stop, stats, chaos, recorder, scope,
                    ) {
                        Ok(lp) => lp,
                        Err(_) => return,
                    };
                    lp.run();
                })?
        };

        Ok(ReactorServer {
            addr,
            stop,
            stats,
            chaos,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters (atomics; read with `Ordering::Relaxed`).
    pub fn stats(&self) -> &ReactorServerStats {
        &self.stats
    }

    /// Runtime handle to the fault-injection knobs.
    pub fn chaos(&self) -> ReactorChaos {
        ReactorChaos {
            knobs: Arc::clone(&self.chaos),
        }
    }

    /// Stop the server and join the event loop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Timer-wheel payloads of the server loop.
enum ServerTimer {
    /// The executing batch's GPU time elapsed.
    BatchDone,
    /// A chaos-stalled reply becomes writable.
    Reply {
        conn: usize,
        gen: u64,
        tag: u64,
        ok: bool,
    },
}

/// One queued (or batched) request.
struct QItem {
    conn: usize,
    gen: u64,
    tag: u64,
    stall: Option<Duration>,
}

struct SConn {
    conn: FramedConn,
    rng: SmallRng,
    /// Uniquely identifies this acceptance of the slot, so stale timers
    /// and batch items from a previous tenant cannot reach a new peer.
    gen: u64,
    /// Replies were queued this loop turn; the slot is in `ServerLoop::dirty`.
    dirty: bool,
}

struct ServerLoop {
    listener: TcpListener,
    config: ReactorServerConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<ReactorServerStats>,
    chaos: Arc<ChaosKnobs>,
    poll: Poll,
    clock: WallClock,
    wheel: DeadlineWheel<ServerTimer>,
    conns: Vec<Option<SConn>>,
    free: Vec<usize>,
    /// Slots with replies queued since the last flush, each listed once.
    dirty: Vec<usize>,
    next_gen: u64,
    queue: VecDeque<QItem>,
    batch: Vec<QItem>,
    batch_busy: bool,
    recorder: Recorder,
    scope: Scope,
}

impl ServerLoop {
    #[allow(clippy::too_many_arguments)] // one construction site, in start_instrumented
    fn new(
        listener: TcpListener,
        config: ReactorServerConfig,
        stop: Arc<AtomicBool>,
        stats: Arc<ReactorServerStats>,
        chaos: Arc<ChaosKnobs>,
        recorder: Recorder,
        scope: Scope,
    ) -> io::Result<ServerLoop> {
        let poll = Poll::new()?;
        poll.registry()
            .register(&listener, LISTENER, Interest::READABLE)?;
        Ok(ServerLoop {
            listener,
            config,
            stop,
            stats,
            chaos,
            poll,
            clock: WallClock::start(),
            wheel: DeadlineWheel::new(),
            conns: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            next_gen: 0,
            queue: VecDeque::new(),
            batch: Vec::new(),
            batch_busy: false,
            recorder,
            scope,
        })
    }

    fn run(&mut self) {
        self.recorder
            .log(self.scope, Level::Info, LogCode::ServerStarted, 0);
        let mut events = Events::with_capacity(1024);
        while !self.stop.load(Ordering::SeqCst) {
            let now = self.clock.now();
            while let Some((_, timer)) = self.wheel.pop_due(now) {
                self.handle_timer(timer);
            }
            self.maybe_form_batch();
            self.flush_dirty();

            let timeout = match self.wheel.next_deadline() {
                Some(at) => {
                    Duration::from_micros(at.saturating_since(self.clock.now()).as_micros())
                        .min(IDLE_POLL)
                }
                None => IDLE_POLL,
            };
            if self.poll.poll(&mut events, Some(timeout)).is_err() {
                break;
            }
            if !events.is_empty() {
                let n = events.len() as u64;
                self.stats.ready_events.fetch_add(n, Ordering::Relaxed);
                self.recorder.counter(
                    self.scope,
                    Metric::ReadyEvents,
                    n,
                    self.clock.now().as_micros(),
                );
            }
            for ev in events.iter() {
                match ev.token() {
                    LISTENER => self.accept_all(),
                    Token(t) => {
                        let i = t - 1;
                        if ev.is_readable() || ev.is_read_closed() || ev.is_error() {
                            self.read_conn(i);
                        }
                        if ev.is_writable() {
                            self.flush_conn(i);
                        }
                    }
                }
            }
        }
        self.recorder.log(
            self.scope,
            Level::Info,
            LogCode::ServerStopped,
            self.clock.now().as_micros(),
        );
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let conn = match FramedConn::new(stream, self.config.write_buf_cap) {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    let gen = self.next_gen;
                    self.next_gen += 1;
                    let rng = SmallRng::seed_from_u64(
                        self.config.chaos_seed ^ gen.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    if self
                        .poll
                        .registry()
                        .register(
                            conn.stream(),
                            Token(slot + 1),
                            Interest::READABLE | Interest::WRITABLE,
                        )
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(SConn {
                        conn,
                        rng,
                        gen,
                        dirty: false,
                    });
                    self.stats.connections.fetch_add(1, Ordering::Relaxed);
                    self.stats.open_connections.fetch_add(1, Ordering::Relaxed);
                    self.recorder.log(
                        self.scope,
                        Level::Info,
                        LogCode::ClientConnected,
                        self.clock.now().as_micros(),
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn read_conn(&mut self, i: usize) {
        let Some(sconn) = self.conns.get_mut(i).and_then(Option::as_mut) else {
            return;
        };
        let gen = sconn.gen;
        let fill = sconn.conn.fill();
        let now = self.clock.now();
        let t = now.as_micros();
        let mut close = !matches!(fill, Ok(ConnStatus::Open));
        loop {
            let Some(sconn) = self.conns.get_mut(i).and_then(Option::as_mut) else {
                return;
            };
            match sconn.conn.next_frame() {
                Ok(Some(InboundFrame::Request { tag, .. })) => {
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    self.recorder
                        .counter(self.scope, Metric::ServerRequests, 1, t);
                    match self.chaos.verdict(&mut sconn.rng) {
                        ChaosVerdict::Pass => self.queue.push_back(QItem {
                            conn: i,
                            gen,
                            tag,
                            stall: None,
                        }),
                        ChaosVerdict::Stall(d) => {
                            self.stats.chaos_stalls.fetch_add(1, Ordering::Relaxed);
                            self.recorder.counter(self.scope, Metric::ChaosStalls, 1, t);
                            self.recorder
                                .log(self.scope, Level::Warn, LogCode::ChaosStall, t);
                            self.queue.push_back(QItem {
                                conn: i,
                                gen,
                                tag,
                                stall: Some(d),
                            });
                        }
                        ChaosVerdict::Drop => {
                            self.stats.chaos_drops.fetch_add(1, Ordering::Relaxed);
                            self.recorder.counter(self.scope, Metric::ChaosDrops, 1, t);
                            self.recorder
                                .log(self.scope, Level::Warn, LogCode::ChaosDrop, t);
                        }
                        ChaosVerdict::Disconnect => {
                            self.stats.chaos_disconnects.fetch_add(1, Ordering::Relaxed);
                            self.recorder
                                .counter(self.scope, Metric::ChaosDisconnects, 1, t);
                            self.recorder
                                .log(self.scope, Level::Warn, LogCode::ChaosDisconnect, t);
                            self.close_conn(i);
                            return;
                        }
                    }
                }
                Ok(Some(InboundFrame::Response { .. })) => {
                    // A client speaking the server direction is corrupt.
                    close = true;
                    break;
                }
                Ok(None) => break,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if close {
            self.close_conn(i);
        }
    }

    fn flush_conn(&mut self, i: usize) {
        let Some(sconn) = self.conns.get_mut(i).and_then(Option::as_mut) else {
            return;
        };
        if !matches!(sconn.conn.flush(), Ok(ConnStatus::Open)) {
            self.close_conn(i);
        }
    }

    /// One flush per connection that queued replies this turn.
    fn flush_dirty(&mut self) {
        while let Some(i) = self.dirty.pop() {
            if let Some(sconn) = self.conns.get_mut(i).and_then(Option::as_mut) {
                sconn.dirty = false;
            }
            self.flush_conn(i);
        }
    }

    fn close_conn(&mut self, i: usize) {
        if let Some(sconn) = self.conns.get_mut(i).and_then(Option::take) {
            let _ = self.poll.registry().deregister(sconn.conn.stream());
            self.stats
                .coalesced_writes
                .fetch_add(sconn.conn.coalesced_writes(), Ordering::Relaxed);
            self.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            self.free.push(i);
            self.recorder.log(
                self.scope,
                Level::Info,
                LogCode::ClientDisconnected,
                self.clock.now().as_micros(),
            );
        }
    }

    /// Paper scheme: batch = up to `limit` of the queue; reject the rest
    /// immediately (they would miss the deadline anyway — §IV-A).
    fn maybe_form_batch(&mut self) {
        if self.batch_busy || self.queue.is_empty() {
            return;
        }
        let t = self.clock.now().as_micros();
        self.recorder.gauge(
            self.scope,
            Metric::ServerQueueDepth,
            self.queue.len() as f64,
            t,
        );
        let take = self.queue.len().min(self.config.batch_limit);
        self.batch.extend(self.queue.drain(..take));
        let rejected_now = self.queue.len() as u64;
        if rejected_now > 0 {
            self.recorder
                .counter(self.scope, Metric::ServerRejections, rejected_now, t);
            self.recorder
                .log(self.scope, Level::Warn, LogCode::BatchOverflow, t);
        }
        while let Some(item) = self.queue.pop_front() {
            self.stats.rejections.fetch_add(1, Ordering::Relaxed);
            self.send_reply(item, false);
        }
        self.batch_busy = true;
        let exec = self.config.batch_base + self.config.per_frame * self.batch.len() as u32;
        let exec = ff_sim::SimDuration::from_micros(exec.as_micros() as u64);
        self.wheel
            .schedule(self.clock.now() + exec, ServerTimer::BatchDone);
    }

    fn handle_timer(&mut self, timer: ServerTimer) {
        match timer {
            ServerTimer::BatchDone => {
                // Taken and handed back so the vector's capacity is reused.
                let mut batch = std::mem::take(&mut self.batch);
                self.batch_busy = false;
                self.stats.batches.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .completions
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                let t = self.clock.now().as_micros();
                self.recorder
                    .gauge(self.scope, Metric::BatchOccupancy, batch.len() as f64, t);
                self.recorder
                    .counter(self.scope, Metric::ServerBatches, 1, t);
                self.recorder
                    .counter(self.scope, Metric::ServerCompletions, batch.len() as u64, t);
                if self.recorder.is_enabled() {
                    // A scan over every connection: only paid when watched.
                    let pending: usize = self
                        .conns
                        .iter()
                        .flatten()
                        .map(|c| c.conn.pending_write_bytes())
                        .sum();
                    self.recorder
                        .gauge(self.scope, Metric::WriteBufferBytes, pending as f64, t);
                }
                for item in batch.drain(..) {
                    self.send_reply(item, true);
                }
                self.batch = batch;
            }
            ServerTimer::Reply { conn, gen, tag, ok } => self.write_reply(conn, gen, tag, ok),
        }
    }

    fn send_reply(&mut self, item: QItem, ok: bool) {
        match item.stall {
            Some(d) => {
                let at = self.clock.now() + ff_sim::SimDuration::from_micros(d.as_micros() as u64);
                self.wheel.schedule(
                    at,
                    ServerTimer::Reply {
                        conn: item.conn,
                        gen: item.gen,
                        tag: item.tag,
                        ok,
                    },
                );
            }
            None => self.write_reply(item.conn, item.gen, item.tag, ok),
        }
    }

    fn write_reply(&mut self, conn: usize, gen: u64, tag: u64, ok: bool) {
        let Some(sconn) = self.conns.get_mut(conn).and_then(Option::as_mut) else {
            return; // connection closed since the request was queued
        };
        if sconn.gen != gen {
            return; // the slot was reused by a newer connection
        }
        match sconn.conn.enqueue_response(tag, ok) {
            EnqueueOutcome::Rejected => {
                self.stats.writer_drops.fetch_add(1, Ordering::Relaxed);
                self.recorder.counter(
                    self.scope,
                    Metric::WriterDrops,
                    1,
                    self.clock.now().as_micros(),
                );
            }
            // Sent by `flush_dirty` before the next poll.
            EnqueueOutcome::Queued if !sconn.dirty => {
                sconn.dirty = true;
                self.dirty.push(conn);
            }
            EnqueueOutcome::Queued => {}
        }
    }
}
