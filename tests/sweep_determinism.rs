//! Differential determinism: the sweep engine's aggregated output is a
//! pure function of the grid, independent of how the work is scheduled.
//!
//! One master seed drives the same `(scenario × seed × controller)` grid
//! through (a) the serial path and (b) the shared-cursor parallel path at
//! 1, 4, and 8 workers. Worker threads race for cells in a
//! scheduling-dependent order, so any order sensitivity in RNG stream
//! derivation, event-queue draining, or result merging would show up as
//! a diff here. The requirement is *bit-identical* aggregation: every
//! per-interval `QosLog` record and every summary statistic must compare
//! exactly equal (f64 bit patterns via `PartialEq`, no tolerance).

use framefeedback::device::ExperimentConfig;
use framefeedback::sweep::{run_sweep, ControllerSpec, SweepOptions, SweepSpec};
use framefeedback::workload::table_v;

const MASTER_SEED: u64 = 0xFF_5EED;

/// A 12-cell grid, small enough for CI but crossing every axis: two
/// scenarios (ideal network, Table V degradation), three seeds derived
/// from the master seed, and two controller families.
fn grid() -> SweepSpec {
    let short = |with_table_v: bool| {
        let mut c = ExperimentConfig::default();
        c.stream.total_frames = 240; // 8 s at 30 fps
        c.peer_devices = 0;
        if with_table_v {
            c.network = table_v();
        }
        c
    };
    SweepSpec {
        name: "determinism".into(),
        scenarios: vec![
            ("ideal".into(), short(false)),
            ("table-v".into(), short(true)),
        ],
        seeds: (0..3).map(|i| MASTER_SEED.wrapping_add(i)).collect(),
        routings: Vec::new(),
        admissions: Vec::new(),
        controllers: vec![
            ("framefeedback".into(), ControllerSpec::framefeedback()),
            ("all-or-nothing".into(), ControllerSpec::AllOrNothing),
        ],
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial_at_every_worker_count() {
    let spec = grid();
    let reference = run_sweep(&spec, &SweepOptions::serial());
    assert_eq!(reference.cells.len(), 12);
    assert_eq!(reference.executed, 12);

    for workers in [1, 4, 8] {
        let parallel = run_sweep(&spec, &SweepOptions::parallel(workers));
        assert!(
            reference.results_identical(&parallel),
            "parallel sweep at {workers} workers diverged from the serial reference"
        );
        // Cell order is the declared grid order, not completion order.
        for (a, b) in reference.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.key, b.key, "cell order changed at {workers} workers");
        }
    }
}

#[test]
fn qos_logs_and_summary_stats_compare_exactly_equal() {
    let spec = grid();
    let serial = run_sweep(&spec, &SweepOptions::serial());
    let parallel = run_sweep(&spec, &SweepOptions::parallel(4));

    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        // QosLog derives PartialEq over every f64 record: exact equality,
        // not approximate.
        assert_eq!(
            a.result.qos, b.result.qos,
            "QosLog diverged for cell {:?}",
            a.key
        );
        assert_eq!(
            a.result.mean_throughput.to_bits(),
            b.result.mean_throughput.to_bits(),
            "mean throughput bits diverged for cell {:?}",
            a.key
        );
        assert_eq!(a.result.offload_timeouts, b.result.offload_timeouts);
        assert_eq!(a.result.frames_offloaded, b.result.frames_offloaded);
        assert_eq!(a.result.frames_local, b.result.frames_local);
    }
}

#[test]
fn rerunning_the_same_grid_reproduces_the_same_results() {
    // Two independent parallel runs from the same master seed — nothing
    // carried over between them — must agree with each other too.
    let spec = grid();
    let first = run_sweep(&spec, &SweepOptions::parallel(4));
    let second = run_sweep(&spec, &SweepOptions::parallel(4));
    assert!(first.results_identical(&second));
}
