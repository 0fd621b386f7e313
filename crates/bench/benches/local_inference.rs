//! Criterion bench for the Table II pipeline: the local engine's apply_due /
//! offer hot path and a full local-only run per device profile.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ff_baselines::LocalOnly;
use ff_device::{run_experiment, ExperimentConfig, LocalEngine};
use ff_models::{DeviceKind, ModelKind};
use ff_sim::{RngFactory, SimDuration, SimTime};

fn bench_engine_hot_path(c: &mut Criterion) {
    c.bench_function("local_engine_offer_complete", |b| {
        let mut engine = LocalEngine::new(
            DeviceKind::Pi4BRev12,
            ModelKind::MobileNetV3Small,
            RngFactory::new(1).stream("bench-local"),
        );
        let mut now = SimTime::ZERO;
        b.iter(|| {
            engine.apply_due(now, false, |_| {});
            black_box(engine.offer(now));
            now += SimDuration::from_millis(33);
            black_box(now)
        });
    });
}

fn bench_table2_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_local_only_60s");
    group.sample_size(10);
    for device in DeviceKind::ALL {
        group.bench_function(device.name().replace([' ', '.'], "_"), |b| {
            b.iter(|| {
                let mut config = ExperimentConfig::default();
                config.device = device;
                config.stream.total_frames = 1_800;
                config.peer_devices = 0;
                run_experiment(config, Box::new(LocalOnly::new())).mean_throughput
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_hot_path, bench_table2_runs);
criterion_main!(benches);
