//! A counting global allocator for the binaries that report
//! allocations per delivered message or per explored tuple.
//!
//! A binary opts in with
//! `#[global_allocator] static A: figures::CountingAlloc = figures::CountingAlloc;`
//! and reads the running total with [`allocations`].

#![expect(
    clippy::disallowed_types,
    reason = "a global allocator is shared by every thread, so its counter must be atomic; \
              the count is reported, never fed back into a simulation"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation of the process that
/// installs it as its global allocator.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers all real work to `System`; only a counter is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far, over all threads. Always 0 unless
/// [`CountingAlloc`] is the global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
