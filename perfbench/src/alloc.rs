//! A counting `#[global_allocator]` for the `perf` binary only.
//!
//! Counting is off unless a traced run switches it on, so end-to-end
//! timings pay one flag load per allocation and nothing else. Written
//! without `unsafe { }` blocks and without `Ordering::Relaxed`: the
//! `unsafe fn` bodies of an `unsafe impl` may call the system allocator
//! directly (edition 2021), and the counters are plain `SeqCst` atomics
//! that publish no other memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::SeqCst};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment counting was switched on (frees of
/// older blocks drive it negative, which is why it is signed).
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The allocator installed in `main.rs`.
pub struct Counting;

fn note_alloc(size: usize) {
    if ENABLED.load(SeqCst) {
        COUNT.fetch_add(1, SeqCst);
        BYTES.fetch_add(size as u64, SeqCst);
        let live = LIVE.fetch_add(size as i64, SeqCst) + size as i64;
        PEAK.fetch_max(live, SeqCst);
    }
}

fn note_free(size: usize) {
    if ENABLED.load(SeqCst) {
        LIVE.fetch_sub(size as i64, SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Counter values at one instant; subtract two to get a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Switches counting on or off (traced runs only).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, SeqCst);
}

/// Restarts the live/peak level from zero: a traced run calls this once at
/// its start, so its peak is relative to that moment and one run's peak
/// does not leak into the next.
pub fn reset_peak() {
    LIVE.store(0, SeqCst);
    PEAK.store(0, SeqCst);
}

/// Current counter values.
pub fn snapshot() -> Snapshot {
    Snapshot { count: COUNT.load(SeqCst), bytes: BYTES.load(SeqCst) }
}

/// Allocation calls and bytes since `earlier`.
pub fn since(earlier: Snapshot) -> Snapshot {
    let now = snapshot();
    Snapshot { count: now.count - earlier.count, bytes: now.bytes - earlier.bytes }
}

/// Highest live-byte level seen, while counting was on, since the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(SeqCst).max(0) as u64
}
