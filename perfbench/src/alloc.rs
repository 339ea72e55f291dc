//! Counting global allocator behind the heap metrics.
//!
//! The technique of `crates/core/tests/zero_alloc.rs`, extended with a
//! live-byte ledger: every allocation adds its size to `LIVE` and bumps
//! `PEAK` to the new high-water mark, every free subtracts. A
//! [`Mark`] resets the peak to the current live size, so
//! [`Mark::peak_bytes`] is the most heap the measured code held *on top
//! of* what was live when it started. The counters are statistics that
//! publish no other data, hence `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            CALLS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

/// A starting point for heap measurements. Taking a mark resets the
/// process-wide peak, so marks must not overlap.
pub struct Mark {
    live: usize,
    calls: usize,
}

impl Mark {
    pub fn now() -> Mark {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        Mark {
            live,
            calls: CALLS.load(Relaxed),
        }
    }

    /// Highest live heap since the mark, above what was live at it.
    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Relaxed).saturating_sub(self.live)
    }

    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since the mark.
    pub fn allocs(&self) -> usize {
        CALLS.load(Relaxed) - self.calls
    }
}
