//! Proves the recording hot path never allocates.
//!
//! A counting global allocator wraps the system allocator; the test
//! snapshots the allocation count around a burst of `Recorder` calls
//! (enabled and disabled) and asserts it did not move. All telemetry
//! allocation must happen at setup (`Telemetry::new`, `recorder()`,
//! `scope()`) or at collection (`poll`/`finish`) — never on record.
//!
//! The count is per thread: the harness runs the two tests on sibling
//! threads, and each must see only its own allocations.

use ff_telemetry::{Level, LogCode, Metric, Telemetry, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor outlives the thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down may allocate after its locals are gone;
    // nobody is left to read that thread's count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn enabled_recorder_hot_path_is_allocation_free() {
    let telemetry = Telemetry::new(TelemetryConfig {
        window_us: 1_000_000,
        ring_capacity: 64, // small: force wrap-around overwrites too
    });
    let scope = telemetry.scope("device/0");
    let mut rec = telemetry.recorder();
    // Warm up one pass so any lazy one-time init (FF_LOG parse) is done.
    rec.counter(scope, Metric::FramesOffloaded, 1, 0);
    rec.log(scope, Level::Debug, LogCode::ChaosDrop, 0);

    let before = allocations();
    for i in 0..10_000u64 {
        rec.counter(scope, Metric::FramesOffloaded, 1, i);
        rec.gauge(scope, Metric::Po, 0.5, i);
        rec.latency(scope, Metric::OffloadLatencyMs, 7.5, i);
        rec.log(scope, Level::Debug, LogCode::ChaosDrop, i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "recording 40k events (with ring wrap-around) must not allocate"
    );

    // Collection may allocate; the accounting must still balance.
    telemetry.finish();
    assert_eq!(
        telemetry.events_consumed() + telemetry.dropped_events(),
        telemetry.events_produced()
    );
}

#[test]
fn disabled_recorder_hot_path_is_allocation_free() {
    let telemetry = Telemetry::disabled();
    let scope = telemetry.scope("device/0");
    let mut rec = telemetry.recorder();
    rec.counter(scope, Metric::FramesOffloaded, 1, 0);

    let before = allocations();
    for i in 0..10_000u64 {
        rec.counter(scope, Metric::FramesOffloaded, 1, i);
        rec.gauge(scope, Metric::Po, 0.5, i);
        rec.latency(scope, Metric::OffloadLatencyMs, 7.5, i);
    }
    assert_eq!(allocations() - before, 0, "disabled recording must be free");
    assert_eq!(telemetry.events_produced(), 0);
}
