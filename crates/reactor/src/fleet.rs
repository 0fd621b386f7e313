//! N live devices, one thread: the reactor fleet client.
//!
//! Every device is the same `DeviceRuntime` + `Controller` pair the
//! simulator drives — §III's control loop is not reimplemented here.
//! What changes is the host: all devices share one epoll loop, one
//! deadline wheel (capture pacing, controller ticks, offload deadlines,
//! paced sends, reconnect backoff — the same event kinds the DES
//! schedules), and one nonblocking socket each. Local inference is the
//! simulator's [`LocalEngine`] too, its completions applied as
//! `FleetCore` applies them: before a local route, before a tick, and
//! at the end of the run, never as timer events.
//!
//! The offload transport's backpressure contract: a dead connection or
//! a full bounded write buffer yields `FailedInstantly` (the runtime
//! records the timeout on the spot and the controller parks at the
//! §III-A.1 probe floor), and the per-device [`Pacer`] turns an
//! impaired link's loss or backlog overflow into `DroppedInNetwork`,
//! as `ff-net`'s link does in the DES.

use crate::conn::{ConnStatus, EnqueueOutcome, FramedConn, InboundFrame, DEFAULT_WRITE_BUF_CAP};
use crate::pacer::{Pacer, PacerConditions, PacerVerdict};
use crate::timer::DeadlineWheel;
use ff_core::Controller;
use ff_device::{
    DeviceRuntime, FrameOutcome, LocalEngine, ModelSelection, Route, RuntimeConfig, SubmitOutcome,
    Transport, WallClock,
};
use ff_metrics::{LogHistogram, QosLog};
use ff_sim::{SimDuration, SimTime};
use ff_telemetry::{Level, LogCode, Metric, Recorder, Scope, Telemetry};
use mio::{Events, Interest, Poll, Token};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Poll timeout cap (also the idle heartbeat of the loop).
const IDLE_POLL: Duration = Duration::from_millis(10);

/// Dial timeout: loopback connects or refuses instantly, so this only
/// guards against a pathological stack.
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);

/// Settle margin after the last capture before the loop exits: one
/// deadline so stragglers resolve, plus slack for the final responses.
const DRAIN_MARGIN: Duration = Duration::from_millis(500);

/// Reconnect backoff: exponential with multiplicative jitter, so a fleet
/// that loses its server does not redial in lock-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconnectPolicy {
    /// Wait after the first failure.
    pub initial_backoff: Duration,
    /// Upper bound on the (pre-jitter) wait.
    pub max_backoff: Duration,
    /// Growth factor per consecutive failure.
    pub multiplier: f64,
    /// Uniform jitter fraction in `[0, 1]`.
    pub jitter: f64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.5,
        }
    }
}

impl ReconnectPolicy {
    /// The jittered wait for the given consecutive-failure count.
    fn backoff(&self, failures: u32, rng: &mut SmallRng) -> Duration {
        let base = self
            .initial_backoff
            .mul_f64(self.multiplier.powi(failures.min(16) as i32))
            .min(self.max_backoff);
        let scale = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        base.mul_f64(scale.max(0.0))
    }
}

/// Per-device parameters. The defaults are the paper's device: 30 fps
/// capture of 25 kB frames, a 250 ms deadline, 13 fps local inference
/// (MobileNetV3Small on a Pi 4) and a 1 s control interval.
#[derive(Debug, Clone, Copy)]
pub struct ReactorDeviceConfig {
    /// Camera capture rate in frames/s.
    pub fs: f64,
    /// How long the device captures frames.
    pub duration: Duration,
    /// End-to-end offload deadline `T_d`.
    pub deadline: Duration,
    /// Compressed frame payload size in bytes.
    pub frame_bytes: u64,
    /// Mean local inference rate `P_l` in frames/s; each service time
    /// jitters a few percent around it, as in the simulator's
    /// [`LocalEngine`].
    pub local_rate_fps: f64,
    /// Controller measurement period.
    pub tick: Duration,
    /// Sliding window for the timeout-rate estimate.
    pub timeout_window: Duration,
    /// Reconnect backoff policy.
    pub reconnect: ReconnectPolicy,
    /// Emulated uplink conditions applied by the per-device pacer.
    pub pacer: PacerConditions,
}

impl Default for ReactorDeviceConfig {
    fn default() -> Self {
        ReactorDeviceConfig {
            fs: 30.0,
            duration: Duration::from_secs(30),
            deadline: Duration::from_millis(250),
            frame_bytes: 25_000,
            local_rate_fps: 13.0,
            tick: Duration::from_secs(1),
            timeout_window: Duration::from_secs(3),
            reconnect: ReconnectPolicy::default(),
            pacer: PacerConditions::ideal(),
        }
    }
}

/// Fleet-level knobs around a shared device config.
#[derive(Clone)]
pub struct FleetClientConfig {
    /// Parameters applied to every device.
    pub device: ReactorDeviceConfig,
    /// Seed for pacer/backoff RNG streams (per-device derived).
    pub seed: u64,
    /// Bound on buffered unwritten bytes per connection.
    pub write_buf_cap: usize,
    /// Gap between consecutive initial dials, so a large fleet does not
    /// storm the accept queue in one instant.
    pub connect_stagger: Duration,
    /// Telemetry pipeline (disabled by default).
    pub telemetry: Telemetry,
}

impl Default for FleetClientConfig {
    fn default() -> Self {
        FleetClientConfig {
            device: ReactorDeviceConfig::default(),
            seed: 1,
            write_buf_cap: DEFAULT_WRITE_BUF_CAP,
            connect_stagger: Duration::from_micros(200),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Everything one device did during the run.
#[derive(Debug)]
pub struct ReactorDeviceSummary {
    /// Per-tick QoS records from the control loop.
    pub qos: QosLog,
    /// Frames captured.
    pub frames: u64,
    /// Offload attempts (including instant failures).
    pub offloaded: u64,
    /// Offloads that returned within the deadline.
    pub successes: u64,
    /// Offloads that timed out (network + load + instant failures).
    pub timeouts: u64,
    /// Offloads rejected by the transport before leaving the device.
    pub instant_failures: u64,
    /// Local inferences completed.
    pub local_completed: u64,
    /// Local-routed frames skipped because the engine was saturated.
    pub local_skipped: u64,
    /// Frames the pacer dropped (emulated loss / backlog overflow).
    pub paced_drops: u64,
    /// Sends rejected by the bounded write buffer after acceptance.
    pub late_backpressure: u64,
    /// Successful re-dials after a lost connection.
    pub reconnects: u64,
    /// Failed dial attempts.
    pub dial_failures: u64,
    /// Offload round-trip latencies (milliseconds).
    pub latency_ms: LogHistogram,
    /// Offloads still unresolved when the loop exited (0 when frames
    /// are conserved).
    pub in_flight_at_end: usize,
}

impl ReactorDeviceSummary {
    /// `sent == completed + timed-out`, with nothing still in flight —
    /// the per-device conservation law.
    pub fn frames_conserved(&self) -> bool {
        self.in_flight_at_end == 0 && self.offloaded == self.successes + self.timeouts
    }
}

/// The whole fleet's run.
#[derive(Debug)]
pub struct FleetSummary {
    /// One summary per device, in device order.
    pub devices: Vec<ReactorDeviceSummary>,
    /// Readiness events the client poller delivered.
    pub ready_events: u64,
    /// Wall-clock run length.
    pub elapsed: Duration,
}

impl FleetSummary {
    /// Whether every device satisfies its conservation law.
    pub fn frames_conserved(&self) -> bool {
        self.devices
            .iter()
            .all(ReactorDeviceSummary::frames_conserved)
    }
}

fn sim_dur(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// Run one device against a server speaking `FFLP` (a [`ReactorServer`]).
/// Equivalent to a single-device [`run_reactor_fleet`].
///
/// [`ReactorServer`]: crate::ReactorServer
pub fn run_reactor_device(
    addr: SocketAddr,
    config: &FleetClientConfig,
    controller: Box<dyn Controller>,
) -> io::Result<ReactorDeviceSummary> {
    let mut fleet = run_reactor_fleet(addr, config, vec![controller])?;
    Ok(fleet.devices.remove(0))
}

/// Drive `controllers.len()` devices against the server at `addr` on a
/// single event-loop thread (the caller's), returning when every device
/// has captured for its configured duration and all in-flight offloads
/// have resolved.
pub fn run_reactor_fleet(
    addr: SocketAddr,
    config: &FleetClientConfig,
    controllers: Vec<Box<dyn Controller>>,
) -> io::Result<FleetSummary> {
    assert!(!controllers.is_empty(), "fleet needs at least one device");
    let d = config.device;
    assert!(d.fs > 0.0 && d.local_rate_fps > 0.0);
    assert!(
        d.reconnect.multiplier >= 1.0 && (0.0..=1.0).contains(&d.reconnect.jitter),
        "invalid reconnect policy"
    );
    let mut lp = FleetLoop::new(addr, config, controllers)?;
    lp.run();
    Ok(lp.finish())
}

/// Timer-wheel payloads of the client loop.
enum ClientTimer {
    /// The device's camera produced a frame.
    Capture { dev: usize },
    /// A controller interval ended.
    Tick { dev: usize },
    /// An offload (or probe) deadline fired.
    Deadline { dev: usize, tag: u64 },
    /// The pacer released a frame for writing.
    Send { dev: usize, tag: u64, bytes: u64 },
    /// Try dialing the server (again).
    Reconnect { dev: usize },
}

struct Dev {
    runtime: DeviceRuntime,
    controller: Box<dyn Controller>,
    conn: Option<FramedConn>,
    pacer: Pacer,
    rng: SmallRng,
    engine: LocalEngine<ChaCha8Rng>,
    /// Capture/tick grids are anchored here (staggered per device).
    origin: SimTime,
    end_at: SimTime,
    frame_idx: u64,
    tick_idx: u64,
    ever_connected: bool,
    dial_failures: u32,
    dial_failures_total: u64,
    reconnects: u64,
    paced_drops: u64,
    late_backpressure: u64,
    latency_ms: LogHistogram,
}

/// The per-call transport view the runtime writes through: disjoint
/// borrows of one device's connection/pacer plus the shared wheel.
struct FleetTransport<'a> {
    dev: usize,
    conn: &'a mut Option<FramedConn>,
    pacer: &'a mut Pacer,
    wheel: &'a mut DeadlineWheel<ClientTimer>,
    paced_drops: &'a mut u64,
}

impl Transport for FleetTransport<'_> {
    fn send(&mut self, tag: u64, bytes: u64, now: SimTime) -> SubmitOutcome {
        let Some(conn) = self.conn.as_mut() else {
            return SubmitOutcome::FailedInstantly;
        };
        // Backpressure is a verdict, not a stall: a frame the bounded
        // write buffer cannot absorb fails instantly and the controller
        // parks at the probe floor.
        if !conn.can_enqueue(16 + bytes as usize) {
            return SubmitOutcome::FailedInstantly;
        }
        match self.pacer.offer(bytes, now) {
            PacerVerdict::Drop => {
                *self.paced_drops += 1;
                SubmitOutcome::DroppedInNetwork
            }
            PacerVerdict::SendAt(at) => {
                self.wheel.schedule(
                    at,
                    ClientTimer::Send {
                        dev: self.dev,
                        tag,
                        bytes,
                    },
                );
                SubmitOutcome::Accepted
            }
        }
    }
}

struct FleetLoop {
    addr: SocketAddr,
    write_buf_cap: usize,
    capture_step: SimDuration,
    tick_step: SimDuration,
    deadline: SimDuration,
    reconnect: ReconnectPolicy,
    frame_bytes: u64,
    scratch: Vec<u8>,
    poll: Poll,
    clock: WallClock,
    wheel: DeadlineWheel<ClientTimer>,
    devs: Vec<Dev>,
    fleet_end: SimTime,
    ready_events: u64,
    recorder: Recorder,
    scope: Scope,
}

impl FleetLoop {
    fn new(
        addr: SocketAddr,
        config: &FleetClientConfig,
        controllers: Vec<Box<dyn Controller>>,
    ) -> io::Result<FleetLoop> {
        let d = config.device;
        let poll = Poll::new()?;
        let clock = WallClock::start();
        let mut wheel = DeadlineWheel::new();
        let mut devs = Vec::with_capacity(controllers.len());
        let stagger = sim_dur(config.connect_stagger);
        let capture_step = SimDuration::from_secs_f64(1.0 / d.fs);
        let mut fleet_end = SimTime::ZERO;
        for (i, mut controller) in controllers.into_iter().enumerate() {
            let rc = RuntimeConfig {
                fs: d.fs,
                deadline: sim_dur(d.deadline),
                controller_period: sim_dur(d.tick),
                timeout_window: sim_dur(d.timeout_window),
                probe_bytes: d.frame_bytes,
                selection: ModelSelection::AlwaysPaper,
                local_accuracy: 1.0,
                remote_accuracy: 1.0,
            };
            let runtime = DeviceRuntime::new(rc, controller.as_mut());
            let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let origin = SimTime::ZERO + stagger.mul_f64(i as f64);
            let end_at = origin + sim_dur(d.duration);
            fleet_end = fleet_end.max(end_at);
            // Dial first, then the first capture one frame later, so a
            // reachable server is connected before frame 0 routes.
            wheel.schedule(origin, ClientTimer::Reconnect { dev: i });
            wheel.schedule(origin + capture_step, ClientTimer::Capture { dev: i });
            wheel.schedule(origin + sim_dur(d.tick), ClientTimer::Tick { dev: i });
            devs.push(Dev {
                runtime,
                controller,
                conn: None,
                pacer: Pacer::new(d.pacer, ChaCha8Rng::seed_from_u64(seed)),
                rng: SmallRng::seed_from_u64(seed.rotate_left(17)),
                engine: LocalEngine::with_rate(
                    d.local_rate_fps,
                    ChaCha8Rng::seed_from_u64(seed.rotate_left(41)),
                ),
                origin,
                end_at,
                frame_idx: 0,
                tick_idx: 1,
                ever_connected: false,
                dial_failures: 0,
                dial_failures_total: 0,
                reconnects: 0,
                paced_drops: 0,
                late_backpressure: 0,
                latency_ms: LogHistogram::for_latency_ms(),
            });
        }
        let fleet_end = fleet_end + sim_dur(d.deadline) + sim_dur(DRAIN_MARGIN);
        Ok(FleetLoop {
            addr,
            write_buf_cap: config.write_buf_cap,
            capture_step,
            tick_step: sim_dur(d.tick),
            deadline: sim_dur(d.deadline),
            reconnect: d.reconnect,
            frame_bytes: d.frame_bytes,
            scratch: vec![0u8; d.frame_bytes as usize],
            poll,
            clock,
            wheel,
            devs,
            fleet_end,
            ready_events: 0,
            recorder: config.telemetry.recorder(),
            scope: config.telemetry.scope("reactor/fleet"),
        })
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let now = self.clock.now();
            if now >= self.fleet_end {
                break;
            }
            while let Some((_, timer)) = self.wheel.pop_due(now) {
                self.handle_timer(timer);
            }
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
                self.ready_events += n;
                self.recorder.counter(
                    self.scope,
                    Metric::ReadyEvents,
                    n,
                    self.clock.now().as_micros(),
                );
            }
            for ev in events.iter() {
                let Token(dev) = ev.token();
                if ev.is_readable() || ev.is_read_closed() || ev.is_error() {
                    self.dev_read(dev);
                }
                if ev.is_writable() {
                    self.dev_flush(dev);
                }
            }
        }
        // Final sweep: bill the local completions due by now, and
        // resolve every straggler so `in_flight` hits zero and the
        // conservation law is checkable.
        let now = self.clock.now();
        for dev in &mut self.devs {
            apply_local(dev, now, false);
            let _ = dev.runtime.expire_due(now + self.deadline);
        }
    }

    fn finish(self) -> FleetSummary {
        let elapsed = Duration::from_micros(self.clock.now().as_micros());
        let devices = self
            .devs
            .into_iter()
            .map(|dev| ReactorDeviceSummary {
                frames: dev.frame_idx,
                offloaded: dev.runtime.frames_offloaded(),
                successes: dev.runtime.successes(),
                timeouts: dev.runtime.timeouts(),
                instant_failures: dev.runtime.instant_failures(),
                local_completed: dev.engine.completed(),
                local_skipped: dev.engine.skipped(),
                paced_drops: dev.paced_drops,
                late_backpressure: dev.late_backpressure,
                reconnects: dev.reconnects,
                dial_failures: dev.dial_failures_total,
                latency_ms: dev.latency_ms,
                in_flight_at_end: dev.runtime.in_flight(),
                qos: dev.runtime.into_qos(),
            })
            .collect();
        FleetSummary {
            devices,
            ready_events: self.ready_events,
            elapsed,
        }
    }

    fn handle_timer(&mut self, timer: ClientTimer) {
        match timer {
            ClientTimer::Capture { dev } => self.on_capture(dev),
            ClientTimer::Tick { dev } => self.on_tick(dev),
            ClientTimer::Deadline { dev, tag } => {
                let now = self.clock.now();
                let _ = self.devs[dev].runtime.on_deadline(tag, now);
            }
            ClientTimer::Send { dev, tag, bytes } => self.on_send(dev, tag, bytes),
            ClientTimer::Reconnect { dev } => self.on_reconnect(dev),
        }
    }

    fn on_capture(&mut self, i: usize) {
        let now = self.clock.now();
        let dev = &mut self.devs[i];
        if now >= dev.end_at {
            return; // capture window over; no reschedule
        }
        let frame_id = dev.frame_idx;
        dev.frame_idx += 1;
        let next = dev.origin + self.capture_step.mul_f64((dev.frame_idx + 1) as f64);
        self.wheel.schedule(next, ClientTimer::Capture { dev: i });
        match dev.runtime.route_frame(frame_id, self.frame_bytes, now) {
            Route::Offload => {
                let mut tp = FleetTransport {
                    dev: i,
                    conn: &mut dev.conn,
                    pacer: &mut dev.pacer,
                    wheel: &mut self.wheel,
                    paced_drops: &mut dev.paced_drops,
                };
                let sub = dev
                    .runtime
                    .offload(&mut tp, frame_id, self.frame_bytes, now);
                if sub.outcome != SubmitOutcome::FailedInstantly {
                    self.wheel.schedule(
                        sub.deadline_at,
                        ClientTimer::Deadline {
                            dev: i,
                            tag: frame_id,
                        },
                    );
                }
            }
            Route::Local => {
                apply_local(dev, now, false);
                dev.engine.offer(now);
            }
        }
    }

    fn on_tick(&mut self, i: usize) {
        let now = self.clock.now();
        let dev = &mut self.devs[i];
        apply_local(dev, now, true);
        let mut tp = FleetTransport {
            dev: i,
            conn: &mut dev.conn,
            pacer: &mut dev.pacer,
            wheel: &mut self.wheel,
            paced_drops: &mut dev.paced_drops,
        };
        let out = dev.runtime.tick(now, dev.controller.as_mut(), &mut tp);
        dev.engine.tick_passed();
        self.wheel.schedule(
            out.probe_deadline_at,
            ClientTimer::Deadline {
                dev: i,
                tag: out.probe_tag,
            },
        );
        dev.tick_idx += 1;
        let next = dev.origin + self.tick_step.mul_f64(dev.tick_idx as f64);
        if next <= dev.end_at {
            self.wheel.schedule(next, ClientTimer::Tick { dev: i });
        }
        self.dev_flush(i);
    }

    fn on_send(&mut self, i: usize, tag: u64, bytes: u64) {
        let dev = &mut self.devs[i];
        let Some(conn) = dev.conn.as_mut() else {
            return; // connection died after acceptance: deadlines out as Network
        };
        let payload = &self.scratch[..bytes as usize];
        if conn.enqueue_request(tag, payload) == EnqueueOutcome::Rejected {
            // The buffer filled between acceptance and the paced write.
            dev.late_backpressure += 1;
            return;
        }
        self.dev_flush(i);
    }

    fn on_reconnect(&mut self, i: usize) {
        let dial = TcpStream::connect_timeout(&self.addr, DIAL_TIMEOUT)
            .and_then(|s| FramedConn::new(s, self.write_buf_cap));
        let now = self.clock.now();
        let dev = &mut self.devs[i];
        match dial {
            Ok(conn) => {
                if self
                    .poll
                    .registry()
                    .register(
                        conn.stream(),
                        Token(i),
                        Interest::READABLE | Interest::WRITABLE,
                    )
                    .is_err()
                {
                    self.wheel.schedule(
                        now + sim_dur(self.reconnect.backoff(dev.dial_failures, &mut dev.rng)),
                        ClientTimer::Reconnect { dev: i },
                    );
                    return;
                }
                dev.conn = Some(conn);
                dev.dial_failures = 0;
                if dev.ever_connected {
                    dev.reconnects += 1;
                    self.recorder
                        .counter(self.scope, Metric::Reconnects, 1, now.as_micros());
                    self.recorder.log(
                        self.scope,
                        Level::Info,
                        LogCode::Reconnected,
                        now.as_micros(),
                    );
                } else {
                    dev.ever_connected = true;
                    self.recorder.log(
                        self.scope,
                        Level::Info,
                        LogCode::ClientConnected,
                        now.as_micros(),
                    );
                }
            }
            Err(_) => {
                dev.dial_failures += 1;
                dev.dial_failures_total += 1;
                self.recorder.log(
                    self.scope,
                    Level::Warn,
                    LogCode::DialFailed,
                    now.as_micros(),
                );
                if now < self.fleet_end {
                    let wait = self.reconnect.backoff(dev.dial_failures, &mut dev.rng);
                    self.wheel
                        .schedule(now + sim_dur(wait), ClientTimer::Reconnect { dev: i });
                }
            }
        }
    }

    fn dev_read(&mut self, i: usize) {
        let Some(conn) = self.devs[i].conn.as_mut() else {
            return;
        };
        let fill = conn.fill();
        let now = self.clock.now();
        let mut lost = !matches!(fill, Ok(ConnStatus::Open));
        loop {
            let Some(conn) = self.devs[i].conn.as_mut() else {
                return;
            };
            match conn.next_frame() {
                Ok(Some(InboundFrame::Response { tag, ok })) => {
                    let dev = &mut self.devs[i];
                    if let FrameOutcome::Success { latency, .. } =
                        dev.runtime.on_response(tag, now, ok)
                    {
                        let ms = latency.as_secs_f64() * 1e3;
                        dev.latency_ms.record(ms);
                        self.recorder.latency(
                            self.scope,
                            Metric::OffloadLatencyMs,
                            ms,
                            now.as_micros(),
                        );
                    }
                }
                Ok(Some(InboundFrame::Request { .. })) => {
                    lost = true; // a server speaking the client direction is corrupt
                    break;
                }
                Ok(None) => break,
                Err(_) => {
                    lost = true;
                    break;
                }
            }
        }
        if lost {
            self.drop_conn(i);
        }
    }

    fn dev_flush(&mut self, i: usize) {
        let Some(conn) = self.devs[i].conn.as_mut() else {
            return;
        };
        if !matches!(conn.flush(), Ok(ConnStatus::Open)) {
            self.drop_conn(i);
        }
    }

    fn drop_conn(&mut self, i: usize) {
        let now = self.clock.now();
        let dev = &mut self.devs[i];
        if let Some(conn) = dev.conn.take() {
            let _ = self.poll.registry().deregister(conn.stream());
            self.recorder.log(
                self.scope,
                Level::Warn,
                LogCode::ConnectionLost,
                now.as_micros(),
            );
            if now < self.fleet_end {
                let wait = self.reconnect.backoff(dev.dial_failures, &mut dev.rng);
                self.wheel
                    .schedule(now + sim_dur(wait), ClientTimer::Reconnect { dev: i });
            }
        }
    }
}

/// Bill the device's local completions due at `now`
/// ([`LocalEngine::apply_due`]) to its runtime, each at its own instant.
fn apply_local(dev: &mut Dev, now: SimTime, before_tick: bool) {
    let runtime = &mut dev.runtime;
    dev.engine.apply_due(now, before_tick, |done_at| {
        runtime.note_local_done(1, done_at)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ReactorServer, ReactorServerConfig};
    use ff_core::FrameFeedback;

    /// Two devices against a reactor server for a few seconds: offloads
    /// succeed, frames are conserved, nothing reconnects.
    #[test]
    fn smoke_two_devices_offload_and_conserve() {
        let server = ReactorServer::start("127.0.0.1:0", ReactorServerConfig::default())
            .expect("server starts");
        let config = FleetClientConfig {
            device: ReactorDeviceConfig {
                fs: 30.0,
                duration: Duration::from_secs(3),
                deadline: Duration::from_millis(250),
                frame_bytes: 8_000,
                local_rate_fps: 13.0,
                tick: Duration::from_millis(500),
                ..ReactorDeviceConfig::default()
            },
            ..FleetClientConfig::default()
        };
        let controllers: Vec<Box<dyn Controller>> = (0..2)
            .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
            .collect();
        let summary = run_reactor_fleet(server.addr(), &config, controllers).expect("fleet runs");
        assert_eq!(summary.devices.len(), 2);
        for (i, dev) in summary.devices.iter().enumerate() {
            assert!(
                dev.frames > 60,
                "device {i} captured only {} frames",
                dev.frames
            );
            assert!(dev.offloaded > 0, "device {i} never offloaded");
            assert!(dev.successes > 0, "device {i} had no successes");
            assert!(
                dev.frames_conserved(),
                "device {i} leaked frames: offloaded {} != {} successes + {} timeouts \
                 (in flight {})",
                dev.offloaded,
                dev.successes,
                dev.timeouts,
                dev.in_flight_at_end
            );
            assert_eq!(
                dev.reconnects, 0,
                "device {i} reconnected on a healthy link"
            );
        }
        let stats = server.stats();
        assert!(stats.requests.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert!(stats.completions.load(std::sync::atomic::Ordering::Relaxed) > 0);
        server.shutdown();
    }
}
