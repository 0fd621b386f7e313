//! The live inference server.
//!
//! §IV-A adaptive batching over real TCP: requests collect while a batch
//! "executes", the next batch takes at most `batch_limit` of them, and
//! the overflow is rejected at once. The rule is `ff-server`'s
//! [`Batcher`], the one the simulation's `EdgeServer` drives: the loop
//! enqueues what it reads and forms at most one batch per loop turn, so
//! requests read together ride one batch. **One** thread runs an epoll
//! loop over every connection, and the GPU's execution time is a
//! timer-wheel event (`BatchDone`) rather than a sleep, so a connection
//! costs no thread: between reads it holds its socket and a
//! [`FramedConn`] whose read side keeps at most one unparsed frame head
//! and no read buffer (request payloads are discarded in the kernel,
//! unread), and whose write buffer a draining flush keeps only while it
//! is a few KiB, as a batch's replies are (bounded by
//! `DEFAULT_WRITE_BUF_CAP` while it fills). Fault injection
//! (hang-ups, swallowed requests, stalled replies) is retunable while the
//! server runs, through [`ReactorChaos`].
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
use ff_device::deps::ff_models::ModelKind;
use ff_device::deps::ff_server::{Batcher, OverflowPolicy, Request, TenantId};
use ff_device::WallClock;
use ff_sim::{SimDuration, SimTime};
use ff_telemetry::{Level, LogCode, Metric, Recorder, Scope, Telemetry};
use mio::{Events, Interest, Poll, Token};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Token of the accept socket; connections use `Token(slot + 1)`.
const LISTENER: Token = Token(0);

/// Poll timeout cap: bounds shutdown latency, timer slack when the wheel
/// is empty, and the rate of accept retries after descriptor exhaustion.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// Server batching parameters. A batch of `n` requests executes for
/// `batch_base + per_frame·n` of wall-clock time. The defaults are the
/// paper's batch limit of 15 and the MobileNetV3Small GPU profile of
/// `ff-models` (`40 ms + 4.3 ms` per frame in the batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactorServerConfig {
    /// Maximum frames per batch (paper: 15).
    pub batch_limit: usize,
    /// Fixed per-batch execution time.
    pub batch_base: Duration,
    /// Marginal execution time per frame in the batch.
    pub per_frame: Duration,
    /// Seed for the per-connection chaos RNG streams.
    pub chaos_seed: u64,
}

impl Default for ReactorServerConfig {
    fn default() -> Self {
        ReactorServerConfig {
            batch_limit: 15,
            batch_base: Duration::from_millis(40),
            per_frame: Duration::from_micros(4_300),
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
    pub(crate) fn start_instrumented(
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
    Reply { route: ReplyRoute, ok: bool },
}

/// Where the reply to a request the batcher holds goes.
#[derive(Clone, Copy)]
struct ReplyRoute {
    conn: usize,
    gen: u64,
    /// The client's tag, echoed in the reply.
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
    /// Accept failed for lack of descriptors: retry each loop turn, as
    /// the edge-triggered listener raises no new edge for the backlog.
    accept_stalled: bool,
    /// §IV-A batching. A request's tenant is its connection slot, its
    /// model the default profile's, and its tag an index into `routes`.
    batcher: Batcher,
    /// Reply routes of the requests the batcher holds, indexed by
    /// `Request.tag`; freed slots are reused.
    routes: Vec<ReplyRoute>,
    free_routes: Vec<usize>,
    /// Requests the batcher just completed or rejected.
    released: Vec<Request>,
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
            accept_stalled: false,
            batcher: Batcher::new(config.batch_limit, OverflowPolicy::RejectNewest),
            routes: Vec::new(),
            free_routes: Vec::new(),
            released: Vec::new(),
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
            if self.accept_stalled {
                self.accept_all();
            }
            self.form_batch();
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
        self.accept_stalled = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let conn = match FramedConn::new(stream, DEFAULT_WRITE_BUF_CAP) {
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
                Err(e) => match e.kind() {
                    io::ErrorKind::WouldBlock => break,
                    // A peer reset before accept, or a signal: the rest
                    // of the backlog is still queued.
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted => {}
                    // Out of descriptors or buffers (EMFILE, ENFILE):
                    // retry next loop turn.
                    _ => {
                        self.accept_stalled = true;
                        break;
                    }
                },
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
                    let stall = match self.chaos.verdict(&mut sconn.rng) {
                        ChaosVerdict::Pass => None,
                        ChaosVerdict::Stall(d) => {
                            self.stats.chaos_stalls.fetch_add(1, Ordering::Relaxed);
                            self.recorder.counter(self.scope, Metric::ChaosStalls, 1, t);
                            self.recorder
                                .log(self.scope, Level::Warn, LogCode::ChaosStall, t);
                            Some(d)
                        }
                        ChaosVerdict::Drop => {
                            self.stats.chaos_drops.fetch_add(1, Ordering::Relaxed);
                            self.recorder.counter(self.scope, Metric::ChaosDrops, 1, t);
                            self.recorder
                                .log(self.scope, Level::Warn, LogCode::ChaosDrop, t);
                            continue;
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
                    };
                    self.enqueue(
                        ReplyRoute {
                            conn: i,
                            gen,
                            tag,
                            stall,
                        },
                        now,
                    );
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

    /// Hand a request to the batcher, keeping its reply route. The
    /// tenant is the connection slot, not the generation: slots are
    /// dense and reused, so the batcher's per-tenant table stays as
    /// small as the peak connection count.
    fn enqueue(&mut self, route: ReplyRoute, now: SimTime) {
        let id = self.free_routes.pop().unwrap_or(self.routes.len());
        if id == self.routes.len() {
            self.routes.push(route);
        } else {
            self.routes[id] = route;
        }
        self.batcher.enqueue(Request {
            tenant: TenantId(route.conn as u32),
            model: ModelKind::MobileNetV3Small,
            submitted_at: now,
            tag: id as u64,
        });
    }

    /// Form the next batch if the GPU is idle: the overflow is answered
    /// at once, and the batch's execution time is a wheel event.
    fn form_batch(&mut self) {
        let depth = self.batcher.queue_len() as f64;
        let Some((_, size)) = self.batcher.form(|r| self.released.push(r)) else {
            return;
        };
        let now = self.clock.now();
        let t = now.as_micros();
        self.recorder
            .gauge(self.scope, Metric::ServerQueueDepth, depth, t);
        let n = self.released.len() as u64;
        if n > 0 {
            self.stats.rejections.fetch_add(n, Ordering::Relaxed);
            self.recorder
                .counter(self.scope, Metric::ServerRejections, n, t);
            self.recorder
                .log(self.scope, Level::Warn, LogCode::BatchOverflow, t);
        }
        self.reply_released(false);
        let exec = self.config.batch_base + self.config.per_frame * size as u32;
        let exec = SimDuration::from_micros(exec.as_micros() as u64);
        self.wheel.schedule(now + exec, ServerTimer::BatchDone);
    }

    fn handle_timer(&mut self, timer: ServerTimer) {
        match timer {
            ServerTimer::BatchDone => {
                self.batcher.finish(&mut self.released);
                let n = self.released.len() as u64;
                self.stats.batches.fetch_add(1, Ordering::Relaxed);
                self.stats.completions.fetch_add(n, Ordering::Relaxed);
                let t = self.clock.now().as_micros();
                self.recorder
                    .gauge(self.scope, Metric::BatchOccupancy, n as f64, t);
                self.recorder
                    .counter(self.scope, Metric::ServerBatches, 1, t);
                self.recorder
                    .counter(self.scope, Metric::ServerCompletions, n, t);
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
                self.reply_released(true);
            }
            ServerTimer::Reply { route, ok } => self.write_reply(route, ok),
        }
    }

    /// Answer every request in `released`, now or after its chaos stall,
    /// and free their routes.
    fn reply_released(&mut self, ok: bool) {
        for i in 0..self.released.len() {
            let id = self.released[i].tag as usize;
            let route = self.routes[id];
            self.free_routes.push(id);
            match route.stall {
                Some(d) => {
                    let at = self.clock.now() + SimDuration::from_micros(d.as_micros() as u64);
                    self.wheel.schedule(at, ServerTimer::Reply { route, ok });
                }
                None => self.write_reply(route, ok),
            }
        }
        self.released.clear();
    }

    fn write_reply(&mut self, route: ReplyRoute, ok: bool) {
        let conn = route.conn;
        let Some(sconn) = self.conns.get_mut(conn).and_then(Option::as_mut) else {
            return; // connection closed since the request was queued
        };
        if sconn.gen != route.gen {
            return; // the slot was reused by a newer connection
        }
        match sconn.conn.enqueue_response(route.tag, ok) {
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
