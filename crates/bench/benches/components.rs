//! Criterion bench for the remaining component hot paths: the frame
//! splitter, the in-flight table, the windowed rate estimator, the
//! accuracy model (Table III), and the simulation engine's event loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ff_device::{FlightTable, FrameSplitter};
use ff_metrics::WindowedRate;
use ff_models::{predicted_top1, Compression, ModelKind};
use ff_sim::{Ctx, SimDuration, SimModel, SimTime, Simulation};

fn bench_splitter(c: &mut Criterion) {
    c.bench_function("frame_splitter_route", |b| {
        let mut s = FrameSplitter::new();
        b.iter(|| black_box(s.route(17.3, 30.0)));
    });
}

fn bench_tracker(c: &mut Criterion) {
    c.bench_function("flight_table_cycle", |b| {
        let mut t = FlightTable::new(SimDuration::from_millis(250), 8);
        let mut tag = 0u64;
        b.iter(|| {
            let sent = SimTime::from_micros(tag * 33_000);
            t.sent(tag, sent);
            t.arrived_at_server(tag, sent + SimDuration::from_millis(30));
            black_box(t.response_arrived(tag, sent + SimDuration::from_millis(100)));
            tag += 1;
        });
    });
}

fn bench_windowed_rate(c: &mut Criterion) {
    c.bench_function("windowed_rate_record_and_query", |b| {
        let mut r = WindowedRate::new(SimDuration::from_secs(3));
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += SimDuration::from_millis(33);
            r.record(now);
            black_box(r.rate_at(now))
        });
    });
}

fn bench_accuracy_model(c: &mut Criterion) {
    c.bench_function("table3_accuracy_prediction", |b| {
        let compression = Compression::new(75, 224);
        b.iter(|| black_box(predicted_top1(ModelKind::EfficientNetB0, compression)));
    });
}

/// A self-scheduling ping event to measure raw engine overhead.
struct Ping {
    remaining: u64,
}

impl SimModel for Ping {
    type Event = ();
    fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule_in(SimDuration::from_micros(1), ());
        }
    }
}

fn bench_sim_engine(c: &mut Criterion) {
    c.bench_function("sim_engine_100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Ping { remaining: 100_000 });
            sim.schedule_at(SimTime::ZERO, ());
            sim.run();
            black_box(sim.events_handled())
        });
    });
}

criterion_group!(
    benches,
    bench_splitter,
    bench_tracker,
    bench_windowed_rate,
    bench_accuracy_model,
    bench_sim_engine
);
criterion_main!(benches);
