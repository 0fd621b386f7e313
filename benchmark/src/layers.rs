//! Per-layer measurements of the traced run. A layer is a crate; every
//! number is taken from outside, by timing calls into the crate's public
//! functions, one span per measurement.
//!
//! Micro measurements report the fastest of a few bursts, for the same
//! reason the end-to-end metrics use the fastest repetitions:
//! interference only adds time. None of these numbers is gated.

use crate::catalog::per_layer_unit;
use crate::host::{self, timed};
use crate::loadgen::{Arrivals, Drive, Windows};
use crate::span::{SpanId, Spans};
use crate::stats::{median, percentile};
use crate::workloads::{
    controllers, fleet_config, fleet_outcome, live_drive, live_pair, payload, served_tier,
    sweep_spec, LiveShape, ServerCounts,
};
use crate::Shapes;
use ff_core::{Controller, Decision, FrameFeedback, Measurement};
use ff_device::{
    replay_verify, run_experiment, run_experiment_traced, run_fleet, DeviceRuntime,
    ExperimentConfig, FleetConfig, FleetDeviceConfig, ModelSelection, Route, RuntimeConfig,
    SubmitOutcome, Transport,
};
use ff_metrics::{LogHistogram, QosLog, QosRecord};
use ff_models::{DeviceKind, GpuProfile, ModelKind};
use ff_net::{Link, LinkConfig, NetworkConditions};
use ff_reactor::{
    decode_frame, encode_request_into, encode_response_into, run_reactor_fleet, FleetClientConfig,
    ReactorDeviceConfig, ReactorServer, ReactorServerConfig,
};
use ff_server::{
    BatchOutput, EdgeServer, Request, RoutingPolicy, ServerSpec, ServerTier, Submit, TenantId,
    TierConfig, TierSubmit,
};
use ff_sim::{run_phased, EventQueue, QueueBackend, RngFactory, SimDuration, SimTime};
use ff_sweep::{run_sweep, SweepOptions};
use ff_telemetry::{Metric as TelemetryMetric, Telemetry};
use ff_trace::{Trace, TraceWriter};
use ff_workload::{FrameSource, StreamConfig};
use rand::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One per-layer number.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// `layer.metric[.variant]`, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Collector of the suite: where spans go and what was measured so far.
pub struct Suite<'a> {
    spans: &'a mut Spans,
    parent: SpanId,
    /// Everything measured, in measurement order.
    pub metrics: Vec<LayerMetric>,
    /// Remarks for the human-readable output (flags, sample counts).
    pub notes: Vec<String>,
}

impl<'a> Suite<'a> {
    /// A collector recording its spans under `parent`.
    pub fn new(spans: &'a mut Spans, parent: SpanId) -> Self {
        Suite {
            spans,
            parent,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record one number under a name the catalog lists.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let unit = per_layer_unit(name);
        self.metrics.push(LayerMetric { name, value, unit });
    }

    /// Run `f` inside a span named `name`; `f` returns the work count.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> (T, u64)) -> T {
        let id = self.spans.open(Some(self.parent), name);
        let (out, count) = f(self);
        self.spans.close(id, count);
        out
    }

    /// Time bursts of `op` on `state` and record the fastest burst's
    /// nanoseconds per call (times `scale`); `between` runs untimed after
    /// each burst. `op` receives a counter that runs on across bursts.
    fn micro<S>(
        &mut self,
        name: &'static str,
        burst: Burst,
        state: &mut S,
        mut op: impl FnMut(&mut S, u64),
        mut between: impl FnMut(&mut S),
    ) {
        let ns = self.span(name, |_| {
            let mut best = f64::INFINITY;
            let mut i = 0u64;
            // One extra, discarded burst warms caches and allocations.
            for n in 0..=burst.bursts {
                let start = Instant::now();
                for _ in 0..burst.calls {
                    op(state, i);
                    i += 1;
                }
                let ns = start.elapsed().as_nanos() as f64 / burst.calls as f64;
                if n > 0 {
                    best = best.min(ns);
                }
                between(state);
            }
            (best * burst.scale, u64::from(burst.bursts) * burst.calls)
        });
        self.put(name, ns);
    }
}

/// Shape of a micro measurement.
#[derive(Debug, Clone, Copy)]
struct Burst {
    /// Timed bursts (one more runs first and is discarded).
    bursts: u32,
    /// Calls per burst.
    calls: u64,
    /// Factor from "per call" to the reported unit of work.
    scale: f64,
}

const fn burst(bursts: u32, calls: u64) -> Burst {
    Burst {
        bursts,
        calls,
        scale: 1.0,
    }
}

fn nothing<S>(_: &mut S) {}

/// A controller that always asks for the full camera rate, so the
/// device-runtime measurement offloads every frame.
struct FullOffload;

impl Controller for FullOffload {
    fn name(&self) -> &'static str {
        "full-offload"
    }
    fn update(&mut self, m: &Measurement) -> Decision {
        Decision { po_target: m.fs }
    }
    fn po_target(&self) -> f64 {
        30.0
    }
    fn reset(&mut self) {}
}

/// A transport that accepts everything.
struct Accepting;

impl Transport for Accepting {
    fn send(&mut self, _tag: u64, _bytes: u64, _now: SimTime) -> SubmitOutcome {
        SubmitOutcome::Accepted
    }
}

const FRAME_BYTES: u64 = 25_000;

fn request(tenant: u32, tag: u64, now: SimTime) -> Request {
    Request {
        tenant: TenantId(tenant),
        model: ModelKind::MobileNetV3Small,
        submitted_at: now,
        tag,
    }
}

fn sim_layer(s: &mut Suite<'_>) {
    for (name, backend) in [
        ("sim.wheel_push_pop_ns", QueueBackend::Wheel),
        ("sim.heap_push_pop_ns", QueueBackend::Heap),
    ] {
        // One million pending events over one simulated second; each pop
        // reschedules at one of the horizons the device loop uses.
        let mut rng = RngFactory::new(7).stream("benchmark-queue");
        let mut q = EventQueue::with_backend(backend);
        for i in 0..1_000_000u64 {
            q.push(SimTime::from_micros(rng.gen_range(0..1_000_000u64)), i);
        }
        let horizons = [33_333u64, 250_000, 1_000_000];
        s.micro(
            name,
            burst(2, 400_000),
            &mut (q, rng),
            |(q, rng), i| {
                let (at, ev) = q.pop().expect("the queue stays full");
                let ahead = match i % 4 {
                    3 => rng.gen_range(1..=250_000u64),
                    k => horizons[k as usize],
                };
                q.push(at + SimDuration::from_micros(ahead), black_box(ev));
            },
            nothing,
        );
    }

    let rounds = 10_000u64;
    let ns = s.span("sim.phased_round_ns", |_| {
        let start = Instant::now();
        run_phased(vec![(), ()], rounds, |_| {}, |_, _, _: &mut ()| {});
        (start.elapsed().as_nanos() as f64 / rounds as f64, rounds)
    });
    s.put("sim.phased_round_ns", ns);
}

fn net_layer(s: &mut Suite<'_>) {
    for (name, conditions) in [
        ("net.link_send_ns.ideal", NetworkConditions::ideal()),
        ("net.link_send_ns.lossy7", NetworkConditions::new(10.0, 7.0)),
    ] {
        let rng = RngFactory::new(7).stream("benchmark-link");
        let mut link = Link::new(LinkConfig::default(), conditions, rng);
        s.micro(
            name,
            burst(3, 100_000),
            &mut link,
            |link, i| {
                let now = SimTime::from_micros(i * 33_333);
                black_box(link.send(now, FRAME_BYTES));
            },
            nothing,
        );
    }
}

fn core_layer(s: &mut Suite<'_>) {
    s.micro(
        "core.controller_update_ns",
        burst(3, 500_000),
        &mut (FrameFeedback::new(), 0.0),
        |(ctl, po), i| {
            let m = Measurement {
                fs: 30.0,
                po_achieved: *po,
                pl_achieved: 13.0,
                timeout_rate: (i % 3) as f64,
                heartbeat_ok: true,
                dt_secs: 1.0,
            };
            *po = ctl.update(black_box(&m)).po_target;
        },
        nothing,
    );
}

fn device_runtime(s: &mut Suite<'_>) {
    let config = RuntimeConfig {
        fs: 30.0,
        deadline: SimDuration::from_millis(250),
        controller_period: SimDuration::from_secs(1),
        timeout_window: SimDuration::from_secs(3),
        probe_bytes: FRAME_BYTES,
        selection: ModelSelection::AlwaysPaper,
        local_accuracy: 0.68,
        remote_accuracy: 0.77,
    };
    let mut ctl = FullOffload;
    let mut rt = DeviceRuntime::new(config, &mut ctl);
    s.micro(
        "device.runtime_frame_ns",
        burst(3, 300_000),
        &mut rt,
        |rt, i| {
            let now = SimTime::from_micros(i * 33_333);
            if rt.route_frame(i, FRAME_BYTES, now) == Route::Offload {
                rt.offload(&mut Accepting, i, FRAME_BYTES, now);
                black_box(rt.on_response(i, now + SimDuration::from_millis(100), true));
            }
        },
        nothing,
    );
}

fn server_layer(s: &mut Suite<'_>) {
    // One cycle is 15 submits (the first starts a batch of one, the
    // other 14 queue behind it) and the two batch-done transitions that
    // drain them; the figure is per request.
    let server = EdgeServer::new(GpuProfile::default());
    s.micro(
        "server.submit_batch_ns",
        Burst {
            scale: 1.0 / 15.0,
            ..burst(3, 20_000)
        },
        &mut (server, BatchOutput::default(), SimTime::ZERO),
        |(server, out, now), i| {
            let mut done_at = None;
            for k in 0..15u64 {
                if let Submit::BatchStarted { done_at: at } =
                    server.submit(*now, request(k as u32, i * 15 + k, *now))
                {
                    done_at = Some(at);
                }
            }
            while let Some(at) = done_at {
                server.batch_done_into(at, out);
                black_box(out.completions.len());
                *now = at;
                done_at = out.next_done;
            }
        },
        nothing,
    );

    for (name, routing) in [
        (
            "server.tier_submit_ns.po2",
            RoutingPolicy::PowerOfTwoChoices,
        ),
        (
            "server.tier_submit_ns.jsq",
            RoutingPolicy::JoinShortestQueue {
                gossip_interval: SimDuration::from_millis(10),
            },
        ),
    ] {
        let mut config = TierConfig::uniform(192, ServerSpec::default());
        config.routing = routing;
        struct State {
            tier: ServerTier,
            rng: rand_chacha::ChaCha8Rng,
            started: Vec<(usize, SimTime)>,
            now: SimTime,
            out: BatchOutput,
        }
        let mut state = State {
            tier: ServerTier::new(&config),
            rng: RngFactory::new(7).stream("benchmark-routing"),
            started: Vec::new(),
            now: SimTime::ZERO,
            out: BatchOutput::default(),
        };
        // A burst offers four requests per server at one instant; the
        // batches it starts are drained, untimed, before the next burst.
        s.micro(
            name,
            burst(8, 768),
            &mut state,
            |st, i| {
                let req = request((i % 1024) as u32, i, st.now);
                let verdict = st.tier.submit(st.now, req, true, &mut st.rng);
                if let TierSubmit::BatchStarted { server, done_at } = verdict {
                    st.started.push((server, done_at));
                }
            },
            |st| {
                for (server, first_done) in std::mem::take(&mut st.started) {
                    let mut done_at = Some(first_done);
                    while let Some(at) = done_at {
                        st.tier.batch_done_into(server, at, &mut st.out);
                        st.now = st.now.max(at);
                        done_at = st.out.next_done;
                    }
                }
                st.now += SimDuration::from_millis(10);
            },
        );
    }
}

fn workload_layer(s: &mut Suite<'_>) {
    let config = StreamConfig {
        total_frames: u64::MAX,
        ..StreamConfig::default()
    };
    let mut source = FrameSource::new(config, RngFactory::new(7).stream("benchmark-frames"));
    s.micro(
        "workload.frame_gen_ns",
        burst(3, 500_000),
        &mut source,
        |source, _| {
            black_box(source.next_frame());
        },
        nothing,
    );
}

fn metrics_layer(s: &mut Suite<'_>) {
    let mut hist = LogHistogram::for_latency_ms();
    s.micro(
        "metrics.histogram_record_ns",
        burst(3, 500_000),
        &mut hist,
        |hist, i| hist.record(1.0 + (i % 4_000) as f64 * 0.1),
        nothing,
    );
    black_box(hist.count());

    s.micro(
        "metrics.qos_push_ns",
        burst(3, 200_000),
        &mut QosLog::new(),
        |log, i| {
            log.push(QosRecord {
                t_secs: i as f64,
                pl: 13.0,
                po: 17.0,
                ..QosRecord::default()
            })
        },
        |log| *log = QosLog::new(),
    );
}

fn telemetry_record(s: &mut Suite<'_>) {
    let telemetry = Telemetry::enabled();
    let scope = telemetry.scope("benchmark");
    // A burst is half the default ring; collection runs, untimed,
    // between bursts, so the producer never laps the consumer.
    s.micro(
        "telemetry.record_ns",
        burst(16, 8_192),
        &mut telemetry.recorder(),
        |recorder, i| recorder.counter(scope, TelemetryMetric::EventsHandled, 1, i),
        |_| telemetry.poll(),
    );
}

/// Everything the fleet layers want from one `run_fleet` call.
struct FleetRun {
    wall_s: f64,
    events: u64,
    requests: u64,
    rejections: u64,
    mean_batch: f64,
    hash: Option<u64>,
}

/// One `run_fleet` call inside a span named `name`.
fn fleet_run(s: &mut Suite<'_>, name: &str, config: FleetConfig) -> FleetRun {
    s.span(name, |_| {
        let frames = config.stream.total_frames;
        let controllers = controllers(config.devices.len());
        let (result, t) = timed(|| run_fleet(config, controllers));
        let run = FleetRun {
            wall_s: t.wall_s,
            events: result.events_handled,
            requests: result.server_stats.requests_received,
            rejections: result.server_stats.rejections,
            mean_batch: result.server_stats.mean_batch_size(),
            hash: fleet_outcome(&result, frames).hash,
        };
        let events = run.events;
        (run, events)
    })
}

fn fleet_layers(s: &mut Suite<'_>, seed: u64, shapes: &Shapes) {
    let (devices, frames) = shapes.served;
    let served = |shards: usize, telemetry: Telemetry| FleetConfig {
        telemetry,
        ..fleet_config(seed, devices, frames, Some(served_tier()), shards)
    };
    // The first run warms the allocator and is compared with nothing.
    fleet_run(s, "fleet.served.warm-up", served(1, Telemetry::disabled()));
    // Telemetry's cost is a difference of two runs: alternate them and
    // keep the faster of each, or one slow spell decides the sign.
    let faster = |a: FleetRun, b: FleetRun| if a.wall_s <= b.wall_s { a } else { b };
    let mut plain = fleet_run(s, "fleet.served.shards1", served(1, Telemetry::disabled()));
    let mut observed = fleet_run(s, "fleet.served.telemetry", served(1, Telemetry::enabled()));
    plain = faster(
        plain,
        fleet_run(s, "fleet.served.shards1", served(1, Telemetry::disabled())),
    );
    observed = faster(
        observed,
        fleet_run(s, "fleet.served.telemetry", served(1, Telemetry::enabled())),
    );
    let sharded = fleet_run(s, "fleet.served.shards2", served(2, Telemetry::disabled()));
    assert_eq!(plain.hash, observed.hash, "telemetry changed the results");
    assert_eq!(plain.hash, sharded.hash, "sharding changed the results");
    s.put(
        "sim.events_per_s.served",
        plain.events as f64 / plain.wall_s,
    );
    s.put(
        "device.ns_per_event.served",
        plain.wall_s * 1e9 / plain.events as f64,
    );
    s.put(
        "device.shard2_over_shard1.served",
        sharded.wall_s / plain.wall_s,
    );
    s.put("server.mean_batch.served", plain.mean_batch);
    s.put(
        "server.reject_share.served",
        plain.rejections as f64 / plain.requests as f64,
    );
    s.put(
        "telemetry.overhead_share.served",
        observed.wall_s / plain.wall_s - 1.0,
    );

    let (devices, frames) = shapes.cold;
    let before = host::proc_stat();
    let cold = fleet_run(
        s,
        "fleet.cold.shards2",
        fleet_config(seed, devices, frames, None, 2),
    );
    let after = host::proc_stat();
    let sys = (after.sys_ticks - before.sys_ticks) as f64;
    let user = (after.user_ticks - before.user_ticks) as f64;
    s.put("sim.events_per_s.cold", cold.events as f64 / cold.wall_s);
    s.put(
        "device.ns_per_event.cold",
        cold.wall_s * 1e9 / cold.events as f64,
    );
    s.put(
        "device.minor_faults_per_rep.cold",
        (after.minor_faults - before.minor_faults) as f64,
    );
    s.put("device.sys_cpu_share.cold", sys / (sys + user).max(1.0));
    s.put(
        "server.reject_share.cold",
        cold.rejections as f64 / cold.requests as f64,
    );
}

fn trace_layer(s: &mut Suite<'_>, seed: u64) {
    let config = || ExperimentConfig {
        seed,
        ..ExperimentConfig::default()
    };
    let controller = || Box::new(FrameFeedback::new()) as Box<dyn Controller>;
    // Alternate the two variants and keep each one's fastest run.
    let (plain, traced, bytes) = s.span("trace.overhead_share.experiment", |_| {
        let (mut plain, mut traced, mut bytes) = (f64::INFINITY, f64::INFINITY, Vec::new());
        for _ in 0..8 {
            let (_, t) = timed(|| run_experiment(config(), controller()));
            plain = plain.min(t.wall_s);
            let ((_, b), t) = timed(|| run_experiment_traced(config(), controller()));
            traced = traced.min(t.wall_s);
            bytes = b;
        }
        ((plain, traced, bytes), 16)
    });
    s.put("trace.overhead_share.experiment", traced / plain - 1.0);

    let trace = Trace::decode(&bytes).expect("a freshly recorded trace decodes");
    let events = trace.events.len() as u64;
    let ns = s.span("trace.encode_ns_per_event", |_| {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            let mut writer = TraceWriter::new(&trace.header);
            for event in &trace.events {
                writer.record(event);
            }
            black_box(writer.finish());
            best = best.min(start.elapsed().as_nanos() as f64 / events as f64);
        }
        (best, events * 5)
    });
    s.put("trace.encode_ns_per_event", ns);

    let ms = s.span("trace.replay_verify_ms", |_| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let decoded = Trace::decode(&bytes).expect("decodes");
            replay_verify(&decoded).expect("a recorded run replays exactly");
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        (best, events * 3)
    });
    s.put("trace.replay_verify_ms", ms);
}

fn sweep_layer(s: &mut Suite<'_>, seed: u64, shapes: &Shapes) {
    // A quarter of the workload's seeds keeps the four passes short.
    let spec = sweep_spec(seed, (shapes.sweep.0 / 4).max(1), shapes.sweep.1);
    let cells = spec.cell_count() as u64;
    // Every kind of pass runs twice and the faster one counts: the cache
    // costs are differences of passes, which noise would swamp.
    let pass = |s: &mut Suite<'_>, name: &str, opts: &dyn Fn() -> SweepOptions| {
        s.span(name, |_| {
            let mut best: Option<(ff_sweep::SweepReport, f64)> = None;
            for _ in 0..2 {
                let opts = opts();
                let (report, t) = timed(|| run_sweep(&spec, &opts));
                if best.as_ref().is_none_or(|(_, s)| t.wall_s < *s) {
                    best = Some((report, t.wall_s));
                }
            }
            (best.expect("two passes ran"), 2 * cells)
        })
    };
    let (serial, serial_s) = pass(s, "sweep.serial-pass", &SweepOptions::serial);
    let (parallel, parallel_s) = pass(s, "sweep.parallel-pass", &|| SweepOptions::parallel(2));
    assert!(
        serial.results_identical(&parallel),
        "worker count changed the sweep's results"
    );
    s.put("sweep.parallel_speedup", serial_s / parallel_s);
    s.put("sweep.cells_per_s", cells as f64 / parallel_s);

    let dir = crate::out_dir().join(format!("sweep-cache-{}", std::process::id()));
    let cached = || SweepOptions::serial().with_cache(&dir);
    let (cold, cold_s) = pass(s, "sweep.cache-cold-pass", &|| {
        let _ = std::fs::remove_dir_all(&dir);
        cached()
    });
    let (warm, warm_s) = pass(s, "sweep.cache-warm-pass", &cached);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (cold.executed as u64, warm.cached as u64),
        (cells, cells),
        "the cache neither filled nor hit"
    );
    assert!(
        serial.results_identical(&warm),
        "the cache changed the sweep's results"
    );
    // Writing is what the cold pass does beyond the plain serial pass.
    s.put(
        "sweep.cache_write_us_per_cell",
        (cold_s - serial_s).max(0.0) * 1e6 / cells as f64,
    );
    s.put("sweep.cache_read_us_per_cell", warm_s * 1e6 / cells as f64);
}

fn codec_layers(s: &mut Suite<'_>, seed: u64) {
    let body = payload(seed, FRAME_BYTES as usize);
    let mut buf = Vec::with_capacity(body.len() + 16);
    s.micro(
        "reactor.encode_request_ns",
        burst(3, 50_000),
        &mut buf,
        |buf, i| {
            buf.clear();
            encode_request_into(i, black_box(&body), buf);
        },
        nothing,
    );
    s.micro(
        "reactor.decode_request_ns",
        burst(3, 500_000),
        &mut buf,
        |buf, _| {
            black_box(decode_frame(black_box(buf)).expect("well-formed"));
        },
        nothing,
    );
    let mut reply = Vec::with_capacity(16);
    s.micro(
        "reactor.encode_response_ns",
        burst(3, 500_000),
        &mut reply,
        |reply, i| {
            reply.clear();
            encode_response_into(i, true, reply);
        },
        nothing,
    );
    s.micro(
        "reactor.decode_response_ns",
        burst(3, 500_000),
        &mut reply,
        |reply, _| {
            black_box(decode_frame(black_box(reply)).expect("well-formed"));
        },
        nothing,
    );

    // The blocking tier's length-prefixed codec (`ff_live::proto`), the
    // second wire format ROADMAP item 2 removes.
    let wire = ff_live::WireRequest {
        tag: 7,
        payload: body.clone().into(),
    };
    let mut legacy = bytes::BytesMut::with_capacity(body.len() + 16);
    s.micro(
        "live.json_encode_ns",
        burst(3, 50_000),
        &mut legacy,
        |legacy, _| ff_live::encode_request_into(black_box(&wire), legacy),
        nothing,
    );
    s.micro(
        "live.json_decode_ns",
        burst(3, 50_000),
        &mut legacy,
        |legacy, _| {
            let mut cursor: &[u8] = legacy;
            black_box(ff_live::read_request(&mut cursor).expect("well-formed"));
        },
        nothing,
    );
}

/// One ramp → measure → drain cycle against a fresh server, inside a
/// span named `name` that counts the requests sent.
fn drive(
    s: &mut Suite<'_>,
    name: &str,
    seed: u64,
    shape: LiveShape,
    arrivals: Arrivals,
) -> (Drive, ServerCounts) {
    s.span(name, |_| {
        let (server, client) = live_pair(seed, shape);
        let windows = Windows::new(shape.ramp, shape.measure);
        let done = live_drive(server, client, arrivals, windows);
        let sent = done.0.tally.sent;
        (done, sent)
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// p50 and p99 of round-trip samples, in ms; the p99 falls back to the
/// largest sample when fewer than ten lie beyond it.
fn rtt_ms(s: &mut Suite<'_>, what: &str, rtt_ns: &[u64]) -> (f64, f64) {
    s.notes
        .push(format!("{what}: {} round trips sampled", rtt_ns.len()));
    if rtt_ns.is_empty() {
        return (0.0, 0.0);
    }
    let v: Vec<f64> = rtt_ns.iter().map(|&n| ms(n)).collect();
    let p99 = percentile(&v, 0.99).unwrap_or_else(|| {
        s.notes
            .push(format!("{what}: too few samples for a p99, maximum shown"));
        v.iter().copied().fold(0.0, f64::max)
    });
    (median(&v), p99)
}

fn reactor_layer(s: &mut Suite<'_>, seed: u64, shapes: &Shapes) {
    let shape = shapes.probe;
    let closed = Arrivals::Closed {
        window: shape.window,
    };

    let (cap, counts) = drive(s, "reactor.capacity", seed, shape, closed);
    let frames = cap.tally.measured as f64;
    let capacity = frames / cap.window_s;
    let client_us = cap.client_cpu_s * 1e6 / frames;
    let server_us = (cap.process_cpu_s - cap.client_cpu_s) * 1e6 / frames;
    s.put("reactor.server_cpu_us_per_frame", server_us);
    s.put("reactor.client_cpu_us_per_frame", client_us);
    if client_us > server_us {
        s.notes.push(
            "reactor.capacity: the load generator used more CPU than the server, \
             so the figure is a lower bound on the server's capacity"
                .into(),
        );
    }
    let requests = counts.requests as f64;
    s.put(
        "reactor.ready_events_per_frame",
        counts.ready_events as f64 / requests,
    );
    s.put(
        "reactor.coalesced_writes_per_frame",
        counts.coalesced_writes as f64 / requests,
    );
    s.put("reactor.writer_drops", counts.writer_drops as f64);
    let (p50, p99) = rtt_ms(s, "reactor.rtt (closed loop)", &cap.tally.rtt_ns);
    s.put("reactor.rtt_p50_ms", p50);
    s.put("reactor.rtt_p99_ms", p99);

    let tiny = LiveShape {
        payload: 64,
        ..shape
    };
    let (small, _) = drive(s, "reactor.small_msg", seed, tiny, closed);
    s.put(
        "reactor.small_msg_frames_per_s",
        small.tally.measured as f64 / small.window_s,
    );

    // 16 × 25 kB per connection cannot fit under the 256 KiB write cap.
    let wide = LiveShape {
        window: 16,
        measure: shape.measure / 2,
        ..shape
    };
    let (pressed, _) = drive(
        s,
        "reactor.backpressure",
        seed,
        wide,
        Arrivals::Closed { window: 16 },
    );
    let t = &pressed.tally;
    s.put(
        "reactor.backpressure_reject_share",
        t.enqueue_rejects as f64 / (t.enqueue_rejects + t.sent) as f64,
    );

    let brief = LiveShape {
        measure: shape.measure / 2,
        ..shape
    };
    let mut lateness = Vec::new();
    for (share, p50_name, p99_name) in [
        (0.25, "reactor.rtt_p50_ms.at25", "reactor.rtt_p99_ms.at25"),
        (0.50, "reactor.rtt_p50_ms.at50", "reactor.rtt_p99_ms.at50"),
        (0.75, "reactor.rtt_p50_ms.at75", "reactor.rtt_p99_ms.at75"),
    ] {
        let name = format!("reactor.open-loop.at{:.0}", share * 100.0);
        let arrivals = Arrivals::Open {
            rate_per_s: capacity * share,
        };
        let (open, _) = drive(s, &name, seed, brief, arrivals);
        let what = format!("reactor.rtt (open loop, {:.0}% of capacity)", share * 100.0);
        let (p50, p99) = rtt_ms(s, &what, &open.tally.rtt_ns);
        s.put(p50_name, p50);
        s.put(p99_name, p99);
        let failed = open.tally.dropped + open.tally.refused;
        if failed > 0 {
            s.notes
                .push(format!("{what}: {failed} requests dropped or refused"));
        }
        lateness.extend(open.gen_lateness_ns.iter().map(|&n| ms(n)));
    }
    let late =
        percentile(&lateness, 0.99).unwrap_or_else(|| lateness.iter().copied().fold(0.0, f64::max));
    s.put("reactor.gen_lateness_p99_ms", late);

    paced(s, seed, shapes.paced_secs);
}

/// The product path: 64 paced devices with their controllers against
/// the default (simulated-GPU) server, beside the DES on the same
/// scenario.
fn paced(s: &mut Suite<'_>, seed: u64, secs: u64) {
    const DEVICES: usize = 64;
    let device = DeviceKind::Pi4BRev12;
    let model = ModelKind::MobileNetV3Small;
    let frame_bytes = StreamConfig::default().compression.mean_frame_bytes();
    let (fleet, cpu_s) = s.span("reactor.paced64", |_| {
        let server = ReactorServer::start("127.0.0.1:0", ReactorServerConfig::default())
            .expect("bind a loopback port");
        let config = FleetClientConfig {
            device: ReactorDeviceConfig {
                duration: Duration::from_secs(secs),
                frame_bytes,
                local_rate_fps: device.local_rate_fps(model),
                ..ReactorDeviceConfig::default()
            },
            seed,
            ..FleetClientConfig::default()
        };
        let cpu0 = host::process_cpu_ns();
        let fleet = run_reactor_fleet(server.addr(), &config, controllers(DEVICES))
            .expect("paced fleet over loopback");
        let cpu_s = (host::process_cpu_ns() - cpu0) as f64 / 1e9;
        server.shutdown();
        let frames: u64 = fleet.devices.iter().map(|d| d.frames).sum();
        ((fleet, cpu_s), frames)
    });
    assert!(fleet.frames_conserved(), "the paced fleet lost frames");
    let frames: u64 = fleet.devices.iter().map(|d| d.frames).sum();
    let live_fps = fleet
        .devices
        .iter()
        .map(|d| d.qos.mean_throughput())
        .sum::<f64>()
        / DEVICES as f64;

    let sim_fps = s.span("reactor.paced64.sim-twin", |_| {
        let mut c = FleetConfig {
            seed,
            devices: vec![FleetDeviceConfig { device, model }; DEVICES],
            ..FleetConfig::default()
        };
        c.stream.total_frames = secs * 30;
        // The live tier sends every frame at the mean compressed size.
        c.stream.size_jitter = 0.0;
        let result = run_fleet(c, controllers(DEVICES));
        let fps = result
            .devices
            .iter()
            .map(|d| d.mean_throughput)
            .sum::<f64>()
            / DEVICES as f64;
        (fps, result.events_handled)
    });
    s.put(
        "reactor.paced64_cpu_us_per_frame",
        cpu_s * 1e6 / frames as f64,
    );
    s.put("reactor.paced64_goodput_fps", live_fps);
    s.put("reactor.paced64_vs_sim_fps", live_fps - sim_fps);
}

/// Run every layer measurement. `seed` and `shapes` are the run's own,
/// so the fleet, sweep and reactor layers see the workloads' inputs.
pub fn run_all(s: &mut Suite<'_>, seed: u64, shapes: &Shapes) {
    sim_layer(s);
    net_layer(s);
    core_layer(s);
    device_runtime(s);
    server_layer(s);
    workload_layer(s);
    metrics_layer(s);
    telemetry_record(s);
    fleet_layers(s, seed, shapes);
    trace_layer(s, seed);
    sweep_layer(s, seed, shapes);
    codec_layers(s, seed);
    reactor_layer(s, seed, shapes);
}
