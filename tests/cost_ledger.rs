//! The exact-cost ledger: what a fleet run costs, counted rather than
//! timed, over small shapes that mirror the benchmark's fleet workloads.
//!
//! A wall-clock reading on a shared 2-core host needs ten interleaved
//! pairs to call a 5 % change; a counter catches one extra calendar entry
//! per million frames in one run. This suite runs
//!
//! * a 64-device served fleet (12 servers, power-of-two-choices routing:
//!   `fleet-served-1k` scaled down), on the wheel and on the heap, and on
//!   two shards;
//! * a 4 096-device cold fleet (one default server, so every controller
//!   parks at the probe floor: `fleet-cold-100k-x2` scaled down), on one
//!   and on two shards;
//!
//! and pins, by equality against the constants below:
//!
//! * the bytes each per-device column costs (one element's `size_of`),
//!   the allocator calls and the peak live heap bytes of each run;
//! * calendar entries per frame, by lane and on the backend;
//! * shard windows run per repetition, against the windows the run spans.
//!
//! It writes them to `COST.md` at the root of the repository, generated
//! and never edited by hand, before it asserts. The counters are the
//! event queue's and the shard coordinator's own (`fleet_testhooks`); a
//! counting allocator wraps the system one, so this binary holds this
//! one test.
//!
//! One reading is not exact: on two shards both workers allocate and
//! free at once, so the highest live byte count depends on how their
//! phases interleave (it moved by up to 3.4 kB between runs of either
//! sharded fixture). Those two are pinned to a range of about ±1 %;
//! every other number is pinned exactly.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::fmt::Write as _;
use std::ops::RangeInclusive;

use framefeedback::controller::{Controller, FrameFeedback};
use framefeedback::device::fleet_testhooks::{
    column_bytes, run_counted, RunCounts, LANE_ENTRY_BYTES,
};
use framefeedback::device::{EngineOptions, FleetConfig, FleetDeviceConfig};
use framefeedback::models::{DeviceKind, ModelKind};
use framefeedback::server::{RoutingPolicy, ServerSpec, TierConfig};
use framefeedback::sim::QueueBackend;
use framefeedback::workload::table_v;

/// The lanes of the fleet's event queue, in index order.
const LANE_NAMES: [&str; 7] = [
    "capture",
    "tick",
    "deadline",
    "response",
    "uplink",
    "batch",
    "background",
];

/// One fleet run of the ledger.
struct Fixture {
    name: &'static str,
    devices: usize,
    frames: u64,
    /// Servers of a power-of-two-choices tier; `None` is the single
    /// default server.
    servers: Option<usize>,
    backend: QueueBackend,
    shards: usize,
}

/// What a fixture is pinned to.
struct Pinned {
    counts: RunCounts,
    allocator_calls: usize,
    peak_live_bytes: RangeInclusive<usize>,
}

const FIXTURES: [(Fixture, Pinned); 5] = [
    (
        Fixture {
            name: "served-64, wheel",
            devices: 64,
            frames: 600,
            servers: Some(12),
            backend: QueueBackend::Wheel,
            shards: 1,
        },
        Pinned {
            counts: RunCounts {
                lane_entries: [38_400, 1_280, 27_198, 2_799, 2_286, 1_861, 0],
                backend_entries: 25_855,
                windows_run: 0,
                windows: 0,
            },
            allocator_calls: 576,
            peak_live_bytes: 264_188..=264_188,
        },
    ),
    (
        Fixture {
            name: "served-64, heap",
            devices: 64,
            frames: 600,
            servers: Some(12),
            backend: QueueBackend::Heap,
            shards: 1,
        },
        Pinned {
            counts: RunCounts {
                lane_entries: [38_400, 1_280, 27_198, 2_799, 2_286, 1_861, 0],
                backend_entries: 25_855,
                windows_run: 0,
                windows: 0,
            },
            allocator_calls: 572,
            peak_live_bytes: 219_836..=219_836,
        },
    ),
    (
        Fixture {
            name: "served-64, 2 shards",
            devices: 64,
            frames: 600,
            servers: Some(12),
            backend: QueueBackend::Wheel,
            shards: 2,
        },
        Pinned {
            counts: RunCounts {
                lane_entries: [38_400, 1_280, 27_198, 0, 0, 0, 0],
                backend_entries: 10,
                windows_run: 2_893,
                windows: 4_050,
            },
            allocator_calls: 1_117,
            peak_live_bytes: 308_000..=320_000,
        },
    ),
    (
        Fixture {
            name: "cold-4096",
            devices: 4_096,
            frames: 60,
            servers: None,
            backend: QueueBackend::Wheel,
            shards: 1,
        },
        Pinned {
            counts: RunCounts {
                lane_entries: [245_760, 8_192, 20_480, 8, 4_137, 8, 0],
                backend_entries: 16_348,
                windows_run: 0,
                windows: 0,
            },
            allocator_calls: 12_401,
            peak_live_bytes: 5_273_369..=5_273_369,
        },
    ),
    (
        Fixture {
            name: "cold-4096, 2 shards",
            devices: 4_096,
            frames: 60,
            servers: None,
            backend: QueueBackend::Wheel,
            shards: 2,
        },
        Pinned {
            counts: RunCounts {
                lane_entries: [245_760, 8_192, 20_480, 0, 0, 0, 0],
                backend_entries: 10,
                windows_run: 84,
                windows: 450,
            },
            allocator_calls: 12_492,
            peak_live_bytes: 5_470_000..=5_490_000,
        },
    ),
];

/// Each per-device column's element size, and the lane entry's.
const COLUMN_BYTES: [(&str, usize); 7] = [
    ("controller", 16),
    ("rows (DeviceRow)", 312),
    ("frames_local", 8),
    ("runtime.model", 1),
    ("runtime.frame (FrameState)", 64),
    ("runtime.offload (OffloadState)", 208),
    ("runtime.qos (QosLog)", 24),
];
const PINNED_LANE_ENTRY_BYTES: usize = 32;

/// What one fixture cost.
struct Reading {
    counts: RunCounts,
    allocator_calls: usize,
    peak_live_bytes: usize,
}

fn run(fixture: &Fixture) -> Reading {
    let ((_, counts), allocator_calls, peak_live_bytes) = counting_alloc::measured(|| {
        let mut config = FleetConfig {
            devices: vec![
                FleetDeviceConfig {
                    device: DeviceKind::Pi4BRev12,
                    model: ModelKind::MobileNetV3Small,
                };
                fixture.devices
            ],
            network: table_v(),
            tier: fixture.servers.map(|n| {
                let mut tier = TierConfig::uniform(n, ServerSpec::default());
                tier.routing = RoutingPolicy::PowerOfTwoChoices;
                tier
            }),
            engine: EngineOptions {
                backend: fixture.backend,
                reuse_batch_buffers: true,
                shards: fixture.shards,
            },
            ..FleetConfig::default()
        };
        config.stream.total_frames = fixture.frames;
        let controllers = (0..fixture.devices)
            .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
            .collect();
        run_counted(config, controllers)
    });
    Reading {
        counts,
        allocator_calls,
        peak_live_bytes,
    }
}

/// `COST.md`, from what was read.
fn ledger(readings: &[(&Fixture, Reading)]) -> String {
    let mut md = String::new();
    let w = &mut md;
    let _ = writeln!(w, "# Cost ledger\n");
    let _ = writeln!(
        w,
        "Generated by `tests/cost_ledger.rs` (`cargo test --test cost_ledger`), \
         which pins every number below; do not edit by hand. Counts are exact \
         and do not depend on the host or the build profile.\n"
    );
    let _ = writeln!(w, "## Bytes per device, by column\n");
    let _ = writeln!(w, "| column | bytes per element |\n|---|---:|");
    for (name, bytes) in column_bytes() {
        let _ = writeln!(w, "| {name} | {bytes} |");
    }
    let total: usize = column_bytes().iter().map(|(_, b)| b).sum();
    let _ = writeln!(w, "| **all columns** | **{total}** |");
    let _ = writeln!(w, "| one lane entry | {LANE_ENTRY_BYTES} |\n");
    let _ = writeln!(
        w,
        "| fixture | devices | allocator calls per device | peak live bytes per device |\n\
         |---|---:|---:|---:|"
    );
    for ((fixture, r), (_, pinned)) in readings.iter().zip(&FIXTURES) {
        let n = fixture.devices as f64;
        // A reading pinned to a range prints the range, so that the file
        // does not change from run to run.
        let (lo, hi) = (
            *pinned.peak_live_bytes.start(),
            *pinned.peak_live_bytes.end(),
        );
        let peak = if lo == hi {
            format!("{:.1}", r.peak_live_bytes as f64 / n)
        } else {
            format!("{:.1} to {:.1}", lo as f64 / n, hi as f64 / n)
        };
        let _ = writeln!(
            w,
            "| {} | {} | {:.4} | {peak} |",
            fixture.name,
            fixture.devices,
            r.allocator_calls as f64 / n,
        );
    }
    let _ = writeln!(w, "\n## Calendar entries per frame, by lane and backend\n");
    let mut header = "| fixture | frames |".to_string();
    let mut rule = "|---|---:|".to_string();
    for lane in LANE_NAMES {
        header += &format!(" {lane} |");
        rule += "---:|";
    }
    let _ = writeln!(w, "{header} backend | all |\n{rule}---:|---:|");
    for (fixture, r) in readings {
        let frames = fixture.devices as u64 * fixture.frames;
        let per = |entries: u64| entries as f64 / frames as f64;
        let mut row = format!("| {} | {frames} |", fixture.name);
        for entries in r.counts.lane_entries {
            row += &format!(" {:.4} |", per(entries));
        }
        let all = r.counts.lane_entries.iter().sum::<u64>() + r.counts.backend_entries;
        let backend = format!("{:?}", fixture.backend).to_lowercase();
        let _ = writeln!(
            w,
            "{row} {:.4} ({backend}) | {:.4} |",
            per(r.counts.backend_entries),
            per(all)
        );
    }
    let _ = writeln!(w, "\n## Shard windows per repetition\n");
    let _ = writeln!(w, "| fixture | windows run | windows |\n|---|---:|---:|");
    for (fixture, r) in readings.iter().filter(|(f, _)| f.shards > 1) {
        let _ = writeln!(
            w,
            "| {} | {} | {} |",
            fixture.name, r.counts.windows_run, r.counts.windows
        );
    }
    md
}

#[test]
fn every_ledger_row_holds_its_pinned_value() {
    // Once unmeasured: what a process allocates once (lazily initialised
    // statics, the test harness's own start-up on its other thread) must
    // not land in the first fixture's row.
    run(&FIXTURES[0].0);
    let readings: Vec<(&Fixture, Reading)> = FIXTURES
        .iter()
        .map(|(fixture, _)| (fixture, run(fixture)))
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/COST.md");
    std::fs::write(path, ledger(&readings)).expect("COST.md is writable");

    assert_eq!(column_bytes(), COLUMN_BYTES);
    assert_eq!(LANE_ENTRY_BYTES, PINNED_LANE_ENTRY_BYTES);
    let mut wrong = Vec::new();
    for ((fixture, r), (_, pinned)) in readings.iter().zip(&FIXTURES) {
        if r.counts != pinned.counts {
            wrong.push(format!("{}: counted {:?}", fixture.name, r.counts));
        }
        if r.allocator_calls != pinned.allocator_calls {
            wrong.push(format!(
                "{}: {} allocator calls",
                fixture.name, r.allocator_calls
            ));
        }
        if !pinned.peak_live_bytes.contains(&r.peak_live_bytes) {
            wrong.push(format!(
                "{}: {} peak live bytes",
                fixture.name, r.peak_live_bytes
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "ledger rows moved (COST.md has the new reading):\n{}",
        wrong.join("\n")
    );
}
