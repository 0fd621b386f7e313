//! The four workloads. Each is `construct` (timed as set-up) followed
//! by `execute` (timed as the work), repeated a fixed number of times.

use crate::host::{timed, Timed};
use crate::loadgen::{Arrivals, Client, Drive, Windows};
use crate::span::{SpanId, Spans};
use crate::stats::Fnv;
use ff_core::{Controller, FrameFeedback};
use ff_device::{
    run_fleet, EngineOptions, ExperimentConfig, FleetConfig, FleetDeviceConfig, FleetResult,
};
use ff_metrics::QosLog;
use ff_models::{DeviceKind, ModelKind};
use ff_reactor::{ReactorServer, ReactorServerConfig, ReactorServerStats};
use ff_server::{RoutingPolicy, ServerSpec, ServerStats, TierConfig};
use ff_sim::QueueBackend;
use ff_sweep::{run_sweep, ControllerSpec, SweepOptions, SweepReport, SweepSpec};
use ff_workload::{table_v, table_vi};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "fleet-served-1k",
    "fleet-cold-100k-x2",
    "sweep-paper-grid",
    "live-capacity-frame",
];

/// What one repetition produced, apart from its timings. Simulated
/// quantities are exact and must repeat bit for bit; the live workload's
/// are counts taken from the wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations the timed section completed (frames; live: round
    /// trips inside the measured window). The rate's numerator.
    pub ops: u64,
    /// Operations started (frames captured; live: requests sent in any
    /// phase).
    pub attempted: u64,
    /// Operations accounted for by the conservation laws (live: `ok`
    /// replies after the drain).
    pub resolved: u64,
    /// Offloads attempted.
    pub offloads: u64,
    /// Offloads answered within the 250 ms deadline.
    pub hits: u64,
    /// Mean per-device goodput `P = P_o + P_l − T`, frames/s.
    pub goodput_fps: f64,
    /// Simulation events dispatched (0 where the count is not exposed).
    pub events: u64,
    /// FNV-1a over every simulated output; `None` for the live workload.
    pub hash: Option<u64>,
    /// Whether every conservation law of the workload held.
    pub conserved: bool,
}

/// One device's (or one sweep cell's) frame counters, as both result
/// structs expose them.
struct Frames {
    captured: u64,
    offloaded: u64,
    local: u64,
    successes: u64,
    timeouts: u64,
    goodput_fps: f64,
}

impl Outcome {
    /// An outcome nothing has been folded into yet.
    fn empty(events: u64) -> Outcome {
        Outcome {
            ops: 0,
            attempted: 0,
            resolved: 0,
            offloads: 0,
            hits: 0,
            goodput_fps: 0.0,
            events,
            hash: None,
            conserved: true,
        }
    }

    /// Fold one unit's counters in, hashing them and checking frame
    /// conservation: every captured frame went one way, every offload
    /// ended one way. `goodput_fps` accumulates a sum until `finish`.
    fn fold(&mut self, h: &mut Fnv, f: Frames) {
        for v in [f.offloaded, f.local, f.successes, f.timeouts] {
            h.u64(v);
        }
        self.attempted += f.captured;
        self.resolved += f.local + f.successes + f.timeouts;
        self.offloads += f.offloaded;
        self.hits += f.successes;
        self.goodput_fps += f.goodput_fps;
        self.conserved &=
            f.offloaded + f.local == f.captured && f.successes + f.timeouts == f.offloaded;
    }

    /// Turn the goodput sum over `units` into their mean and seal the
    /// hash.
    fn finish(mut self, h: Fnv, units: usize) -> Outcome {
        self.goodput_fps /= units as f64;
        self.ops = self.attempted;
        self.hash = Some(h.finish());
        self
    }
}

/// A workload: fixed work behind a construct/execute split.
pub trait Workload {
    /// What `construct` hands to `execute`.
    type Prepared;

    /// Span name of the construct phase.
    const CONSTRUCT: &'static str = "construct";

    /// Whether `execute` is the same deterministic work every time, so
    /// that interference can only add to its time and the fastest
    /// repetitions are the truest. A workload whose throughput moves
    /// both ways from one repetition to the next says `false` and is
    /// summarised by its median repetition instead.
    const FIXED_WORK: bool = true;

    /// Build repetition `rep`'s inputs. Timed as set-up.
    fn construct(&self, rep: usize) -> Self::Prepared;

    /// Do the work. Returns the timing of the measured section (the
    /// whole call for the simulations, the measured window for live) and
    /// the outcome. Sub-phases are recorded as children of `parent`.
    fn execute(
        &self,
        prepared: Self::Prepared,
        spans: &mut Spans,
        parent: SpanId,
    ) -> (Timed, Outcome);
}

/// One FrameFeedback controller per device, as every fleet in this
/// repository is driven.
pub fn controllers(n: usize) -> Vec<Box<dyn Controller>> {
    (0..n)
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect()
}

/// The server tier of `fleet-served-1k`: enough servers that most
/// offloads are answered in time, routed by power-of-two-choices.
pub fn served_tier() -> TierConfig {
    let mut tier = TierConfig::uniform(192, ServerSpec::default());
    tier.routing = RoutingPolicy::PowerOfTwoChoices;
    tier
}

/// The fleet shape both fleet workloads share: `devices` identical Pis
/// on the Table V network schedule, timing-wheel engine.
pub fn fleet_config(
    seed: u64,
    devices: usize,
    frames: u64,
    tier: Option<TierConfig>,
    shards: usize,
) -> FleetConfig {
    let mut c = FleetConfig {
        seed,
        devices: vec![
            FleetDeviceConfig {
                device: DeviceKind::Pi4BRev12,
                model: ModelKind::MobileNetV3Small,
            };
            devices
        ],
        network: table_v(),
        tier,
        engine: EngineOptions {
            backend: QueueBackend::Wheel,
            reuse_batch_buffers: true,
            shards,
        },
        ..FleetConfig::default()
    };
    c.stream.total_frames = frames;
    c
}

fn hash_qos(h: &mut Fnv, qos: &QosLog) {
    for r in qos.records() {
        for v in [
            r.t_secs,
            r.pl,
            r.po,
            r.timeouts,
            r.timeouts_network,
            r.timeouts_load,
            r.po_target,
            r.accuracy_weighted_throughput,
        ] {
            h.f64(v);
        }
    }
}

fn hash_server_stats(h: &mut Fnv, s: &ServerStats) {
    for v in [
        s.requests_received,
        s.completions,
        s.rejections,
        s.batches_executed,
        s.batched_frames,
        s.full_batches,
    ] {
        h.u64(v);
    }
}

/// Reduce a fleet result to its [`Outcome`]: exact counters, the
/// conservation laws, and the hash of everything simulated.
pub fn fleet_outcome(result: &FleetResult, frames_per_device: u64) -> Outcome {
    let mut h = Fnv::default();
    let mut out = Outcome::empty(result.events_handled);
    for d in &result.devices {
        hash_qos(&mut h, &d.qos);
        out.fold(
            &mut h,
            Frames {
                captured: frames_per_device,
                offloaded: d.frames_offloaded,
                local: d.frames_local,
                successes: d.offload_successes,
                timeouts: d.offload_timeouts,
                goodput_fps: d.mean_throughput,
            },
        );
    }
    for &r in &result.rejections_by_device {
        h.u64(r);
    }
    hash_server_stats(&mut h, &result.server_stats);
    h.u64(result.admission_rejections);
    h.u64(result.events_handled);
    out.finish(h, result.devices.len())
}

/// `ff_device::run_fleet` at a fixed shape.
pub struct FleetWorkload {
    /// Master seed of the run.
    pub seed: u64,
    /// Fleet size.
    pub devices: usize,
    /// Frames each device captures.
    pub frames: u64,
    /// Server tier; `None` is the single default server.
    pub tier: Option<TierConfig>,
    /// Shards of every measured repetition. The warm-up always runs on
    /// one: it is discarded from the timing but its hash must equal the
    /// others', which checks that sharding changes nothing.
    pub shards: usize,
}

impl Workload for FleetWorkload {
    type Prepared = (FleetConfig, Vec<Box<dyn Controller>>);

    fn construct(&self, rep: usize) -> Self::Prepared {
        let shards = if rep == 0 { 1 } else { self.shards };
        (
            fleet_config(
                self.seed,
                self.devices,
                self.frames,
                self.tier.clone(),
                shards,
            ),
            controllers(self.devices),
        )
    }

    fn execute(
        &self,
        (config, controllers): Self::Prepared,
        spans: &mut Spans,
        parent: SpanId,
    ) -> (Timed, Outcome) {
        let (result, t) = spans.within(Some(parent), "execute", |_, _| {
            let (result, t) = timed(|| run_fleet(config, controllers));
            let events = result.events_handled;
            ((result, t), events)
        });
        let out = spans.within(Some(parent), "digest", |_, _| {
            (fleet_outcome(&result, self.frames), 1)
        });
        (t, out)
    }
}

/// The grid of `sweep-paper-grid`: three paper scenarios × `seeds`
/// consecutive seeds × the four controllers of §IV-B.
pub fn sweep_spec(seed: u64, seeds: u64, frames: u64) -> SweepSpec {
    let base = || {
        let mut c = ExperimentConfig::default();
        c.stream.total_frames = frames;
        c
    };
    let mut network = base();
    network.network = table_v();
    let mut background = base();
    background.background = table_vi();
    SweepSpec {
        name: "paper-grid".into(),
        scenarios: vec![
            ("ideal".into(), base()),
            ("table-v".into(), network),
            ("table-vi".into(), background),
        ],
        seeds: (seed..seed + seeds).collect(),
        routings: Vec::new(),
        admissions: Vec::new(),
        controllers: ControllerSpec::lineup(),
    }
}

/// Reduce a sweep report to its [`Outcome`].
pub fn sweep_outcome(report: &SweepReport) -> Outcome {
    let mut h = Fnv::default();
    let mut out = Outcome::empty(0);
    for cell in &report.cells {
        let r = &cell.result;
        hash_qos(&mut h, &r.qos);
        hash_server_stats(&mut h, &r.server_stats);
        let l = &r.link_stats;
        for v in [
            l.frames_offered,
            l.frames_delivered,
            l.frames_dropped_overflow,
            l.frames_dropped_loss,
            l.packets_sent,
            l.packets_lost,
        ] {
            h.u64(v);
        }
        out.fold(
            &mut h,
            Frames {
                captured: r.frames_generated,
                offloaded: r.frames_offloaded,
                local: r.frames_local,
                successes: r.offload_successes,
                timeouts: r.offload_timeouts,
                goodput_fps: r.mean_throughput,
            },
        );
    }
    out.finish(h, report.cells.len())
}

/// `ff_sweep::run_sweep` over the paper grid on two workers, no cache.
pub struct SweepWorkload {
    /// First seed of the grid.
    pub seed: u64,
    /// Consecutive seeds in the grid.
    pub seeds: u64,
    /// Frames per cell.
    pub frames: u64,
    /// The warm-up pass, kept until the first measured pass has been
    /// compared against it with the sweep's own `results_identical`.
    /// That comparison serialises both reports (about half a pass of
    /// time), so later passes are held to the hash alone.
    first: RefCell<Option<SweepReport>>,
}

impl SweepWorkload {
    /// A sweep workload over `seeds` seeds starting at `seed`.
    pub fn new(seed: u64, seeds: u64, frames: u64) -> Self {
        SweepWorkload {
            seed,
            seeds,
            frames,
            first: RefCell::new(None),
        }
    }
}

impl Workload for SweepWorkload {
    type Prepared = (usize, SweepSpec);

    fn construct(&self, rep: usize) -> Self::Prepared {
        (rep, sweep_spec(self.seed, self.seeds, self.frames))
    }

    fn execute(
        &self,
        (rep, spec): Self::Prepared,
        spans: &mut Spans,
        parent: SpanId,
    ) -> (Timed, Outcome) {
        let (report, t) = spans.within(Some(parent), "execute", |_, _| {
            let timed = timed(|| run_sweep(&spec, &SweepOptions::parallel(2)));
            (timed, spec.cell_count() as u64)
        });
        let out = spans.within(Some(parent), "digest", |_, _| {
            let mut out = sweep_outcome(&report);
            out.conserved &= report.executed == spec.cell_count();
            if rep == 0 {
                *self.first.borrow_mut() = Some(report);
            } else if let Some(first) = self.first.borrow_mut().take() {
                out.conserved &= first.results_identical(&report);
            }
            (out, 1)
        });
        (t, out)
    }
}

/// Shape of one live repetition.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    /// Connections the single client thread holds.
    pub conns: usize,
    /// Outstanding requests per connection (closed loop).
    pub window: usize,
    /// Request payload bytes.
    pub payload: usize,
    /// Discarded ramp.
    pub ramp: Duration,
    /// Measured window.
    pub measure: Duration,
}

/// Server configuration with the simulated GPU made free, so the run
/// measures sockets, codec and buffers rather than a timer.
fn free_gpu_server(seed: u64) -> ReactorServerConfig {
    ReactorServerConfig {
        // Above any outstanding count, a closed loop's or an open
        // loop's: the batcher never rejects.
        batch_limit: 1 << 20,
        batch_base: Duration::ZERO,
        per_frame: Duration::ZERO,
        chaos_seed: seed,
        ..ReactorServerConfig::default()
    }
}

/// A fresh free-GPU server on an ephemeral loopback port and `shape`'s
/// connections dialed to it, each with one round trip behind it.
pub fn live_pair(seed: u64, shape: LiveShape) -> (ReactorServer, Client) {
    let server =
        ReactorServer::start("127.0.0.1:0", free_gpu_server(seed)).expect("bind a loopback port");
    let client = Client::dial(server.addr(), shape.conns, payload(seed, shape.payload))
        .expect("dial the local server");
    (server, client)
}

/// A request payload drawn from the run's seed (the server treats the
/// bytes as opaque; only their number matters to it).
pub fn payload(seed: u64, bytes: usize) -> Vec<u8> {
    let mut buf = vec![0u8; bytes];
    ChaCha8Rng::seed_from_u64(seed).fill_bytes(&mut buf);
    buf
}

/// Server-side counters of one live repetition, read after the client
/// hung up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounts {
    /// Requests read off connections.
    pub requests: u64,
    /// Requests that ran in a batch.
    pub completions: u64,
    /// Requests rejected as batch overflow.
    pub rejections: u64,
    /// Replies dropped by a full write buffer.
    pub writer_drops: u64,
    /// Readiness events the server's poller delivered.
    pub ready_events: u64,
    /// Replies that coalesced behind buffered bytes.
    pub coalesced_writes: u64,
    /// Connections still open (0 after a clean hang-up).
    pub open_connections: u64,
}

impl ServerCounts {
    fn read(stats: &ReactorServerStats) -> ServerCounts {
        let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        ServerCounts {
            requests: get(&stats.requests),
            completions: get(&stats.completions),
            rejections: get(&stats.rejections),
            writer_drops: get(&stats.writer_drops),
            ready_events: get(&stats.ready_events),
            coalesced_writes: get(&stats.coalesced_writes),
            open_connections: get(&stats.open_connections),
        }
    }

    /// `requests = completions + rejections`, nothing left open.
    pub fn conserved(&self) -> bool {
        self.requests == self.completions + self.rejections && self.open_connections == 0
    }
}

/// Drive a fresh server with `arrivals`, then hang up every connection,
/// wait for the server to notice, read its counters and stop it. The
/// building block of the live workload and of the reactor layer.
pub fn live_drive(
    server: ReactorServer,
    mut client: Client,
    arrivals: Arrivals,
    windows: Windows,
) -> (Drive, ServerCounts) {
    let drive = client
        .drive(arrivals, windows)
        .expect("loopback drive against a local server");
    drop(client);
    let waited = Instant::now();
    while server.stats().open_connections.load(Ordering::Relaxed) > 0
        && waited.elapsed() < Duration::from_secs(2)
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let counts = ServerCounts::read(server.stats());
    server.shutdown();
    (drive, counts)
}

/// Camera rate of the paper's devices, frames/s.
pub const LIVE_FS: f64 = 30.0;

/// Closed-loop capacity of `ReactorServer` over loopback.
pub struct LiveWorkload {
    /// Seed of the payload bytes and the server's chaos stream.
    pub seed: u64,
    /// Connections, window, payload and phase lengths.
    pub shape: LiveShape,
}

impl Workload for LiveWorkload {
    type Prepared = (ReactorServer, Client);

    const CONSTRUCT: &'static str = "dial";

    /// Round trips per window depend on how two threads and the kernel
    /// happen to interleave: windows of one run differ by ±25 % in both
    /// directions, so no repetition is "the undisturbed one".
    const FIXED_WORK: bool = false;

    fn construct(&self, _rep: usize) -> Self::Prepared {
        live_pair(self.seed, self.shape)
    }

    fn execute(
        &self,
        (server, client): Self::Prepared,
        spans: &mut Spans,
        parent: SpanId,
    ) -> (Timed, Outcome) {
        let s = self.shape;
        let conns = client.conns();
        let (drive, counts) = live_drive(
            server,
            client,
            Arrivals::Closed { window: s.window },
            Windows::new(s.ramp, s.measure),
        );
        let t = &drive.tally;
        let [began, opened, closed, ended] = drive.edges;
        spans.record(Some(parent), "ramp", began, opened, 0);
        spans.record(Some(parent), "measure", opened, closed, t.measured);
        spans.record(Some(parent), "drain", closed, ended, 0);
        let out = Outcome {
            ops: t.measured,
            attempted: t.sent,
            resolved: t.ok,
            offloads: t.sent,
            hits: t.hits,
            // No paced device exists here and an unpaced rate cannot
            // repeat to 1 %, so this is the goodput an always-offloading
            // camera would see from this server: P = P_o − T at P_l = 0.
            goodput_fps: LIVE_FS * t.hits as f64 / t.sent as f64,
            events: 0,
            hash: None,
            // One request per connection was sent by the dial.
            conserved: t.in_flight() == 0
                && t.sent == t.ok + t.refused
                && counts.conserved()
                && counts.requests == t.sent + conns as u64,
        };
        (
            Timed {
                wall_s: drive.window_s,
                cpu_s: drive.process_cpu_s,
            },
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_rep<W: Workload>(w: &W, rep: usize) -> Outcome {
        let mut spans = Spans::new(false);
        let parent = spans.open(None, "test");
        w.execute(w.construct(rep), &mut spans, parent).1
    }

    fn small_fleet(seed: u64) -> FleetWorkload {
        FleetWorkload {
            seed,
            devices: 64,
            frames: 90,
            tier: None,
            shards: 2,
        }
    }

    #[test]
    fn a_fleet_repetition_conserves_frames_whatever_the_shard_count() {
        let w = small_fleet(5);
        let (warm_up, measured) = (one_rep(&w, 0), one_rep(&w, 1));
        assert!(warm_up.conserved && measured.conserved);
        assert_eq!(warm_up, measured, "shards 1 and 2 must agree to the bit");
        assert_eq!(measured.attempted, 64 * 90);
        assert_eq!(measured.resolved, measured.attempted);
        assert!(measured.hits <= measured.offloads);
        assert!(measured.events > 0 && measured.goodput_fps > 0.0);
    }

    #[test]
    fn the_seed_reaches_the_simulation() {
        let (a, b) = (one_rep(&small_fleet(5), 1), one_rep(&small_fleet(6), 1));
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn sweep_passes_agree_and_the_grid_is_the_papers() {
        let w = SweepWorkload::new(3, 1, 300);
        assert_eq!(w.construct(0).1.cell_count(), 3 * 4);
        let (first, second, third) = (one_rep(&w, 0), one_rep(&w, 1), one_rep(&w, 2));
        assert!(first.conserved && second.conserved && third.conserved);
        assert_eq!(first.hash, second.hash);
        assert_eq!(first.attempted, 12 * 300);
        assert_eq!(first.resolved, first.attempted);
    }

    #[test]
    fn a_live_repetition_answers_every_request_and_leaves_nothing_open() {
        let w = LiveWorkload {
            seed: 9,
            shape: LiveShape {
                conns: 4,
                window: 2,
                payload: 2_000,
                ramp: Duration::from_millis(20),
                measure: Duration::from_millis(60),
            },
        };
        let out = one_rep(&w, 1);
        assert!(out.conserved, "{out:?}");
        assert!(out.ops > 0 && out.ops <= out.attempted);
        assert_eq!(out.resolved, out.attempted);
        assert_eq!(out.hits, out.offloads);
        assert_eq!(out.goodput_fps, LIVE_FS);
    }

    #[test]
    fn the_payload_follows_the_seed() {
        assert_eq!(payload(1, 64), payload(1, 64));
        assert_ne!(payload(1, 64), payload(2, 64));
        assert_eq!(payload(1, 25_000).len(), 25_000);
    }
}
