//! The system allocator behind exact counters: every allocation request
//! and every live byte, process-wide. A test binary that includes this
//! module (`#[path = "support/counting_alloc.rs"] mod counting_alloc;`)
//! counts everything it allocates, so a test running on a sibling
//! thread would be counted too: such binaries hold one test, or run
//! with `--test-threads=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `Relaxed` throughout: the counters publish no other data, and they
/// are read only after the run's threads have been joined.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        // SAFETY: `ptr` and `layout` describe a block this allocator
        // returned, i.e. one `System` returned.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` cost the allocator: its result, the allocation requests it
/// made, and the most bytes live at once above what was live before it.
pub(crate) fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let calls_before = CALLS.load(Relaxed);
    let live_before = LIVE.load(Relaxed);
    PEAK.store(live_before, Relaxed);
    let out = f();
    let calls = CALLS.load(Relaxed) - calls_before;
    let peak = PEAK.load(Relaxed) - live_before;
    (out, calls, peak)
}
