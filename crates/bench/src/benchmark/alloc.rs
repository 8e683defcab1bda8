//! Counting global allocator for the benchmark binary only. Off, it costs
//! one relaxed flag load per call; on, it counts allocations, bytes
//! requested and the high-water mark of live bytes since a mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// All of these are statistics read by the one benchmark thread; none
// publishes other data, so relaxed ordering is enough.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

pub struct Counting;

fn grew(bytes: usize, live_delta: i64) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(live_delta, Relaxed) + live_delta;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// plain atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size(), layout.size() as i64);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size(), layout.size() as i64);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            // A block allocated before counting began pulls `LIVE` below
            // the true figure; samples enable counting before they build
            // anything, so that is limited to the few inputs they share.
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(new_size, new_size as i64 - layout.size() as i64);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting from zero.
pub fn enable() {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting; the totals stay readable.
pub fn disable() {
    ON.store(false, Relaxed);
}

/// `(allocations, bytes requested)` since [`enable`]. Differences of two
/// readings scope the counts to a region.
pub fn totals() -> (u64, u64) {
    (COUNT.load(Relaxed), BYTES.load(Relaxed))
}

/// Start a new high-water mark at the current live bytes; pass the
/// returned level to [`peak_since`].
pub fn mark() -> i64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// How far live bytes rose above the level [`mark`] returned.
pub fn peak_since(mark: i64) -> u64 {
    (PEAK.load(Relaxed) - mark).max(0) as u64
}
