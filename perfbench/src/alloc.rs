//! A counting global allocator: exact allocation volume, process-wide
//! and per thread, so a later change can claim "fewer bytes allocated
//! per request" as a count that repeats exactly, where times do not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator by every thread of the process.
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes requested by the current thread. `const`-initialised and
    /// without a destructor, so touching it never allocates.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting bytes on the way through. Frees are
/// not subtracted: the counters measure allocation traffic, not the live
/// heap (that is `peak_rss_mb`).
pub struct Counting;

fn count(bytes: usize) {
    // A statistic that publishes no other data: `Relaxed` suffices.
    TOTAL.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = LOCAL.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only an
// atomic and a destructor-free thread-local, so it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Bytes allocated so far by the whole process.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Bytes allocated so far by the calling thread.
pub fn thread() -> u64 {
    LOCAL.try_with(Cell::get).unwrap_or(0)
}
