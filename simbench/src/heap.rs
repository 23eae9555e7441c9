//! A counting global allocator: the heap bytes in use and their peak
//! since the last reset, for `peak_heap_mb`.
//!
//! Not the process's peak resident memory: on canneal that jumps
//! between two values with the seed, because a program whose exception
//! count crosses a hash-set resize doubles the sets, and a process's
//! peak is that of its largest simulation. A heap peak can be reset
//! before each piece of work and so taken per simulation, and the
//! median over a run's simulations does not jump with one program. It
//! is also exact: freed memory the allocator keeps for reuse does not
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static IN_USE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is passed on to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        IN_USE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as a copy: both blocks at once, then the old freed.
            grow(new_size);
            IN_USE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

fn grow(size: usize) {
    let now = IN_USE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(now, Relaxed);
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Start a new peak at the bytes in use now.
pub fn reset_peak() {
    PEAK.store(IN_USE.load(Relaxed), Relaxed);
}

/// Peak heap bytes in use since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
