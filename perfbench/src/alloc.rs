//! Counting allocator: every heap allocation of the benchmark process
//! (all threads) bumps the program's own `alloc_probe`, the counter the
//! `xp` binary feeds the same way. The benchmark reads it before and
//! after each layer call, so allocation counts are taken from outside.

use std::alloc::{GlobalAlloc, Layout, System};

use ftgcs_sim::telemetry::alloc_probe;

struct CountingAlloc;

// SAFETY: every operation delegates directly to `System`, inheriting its
// `GlobalAlloc` contract; the added relaxed counter bump touches no
// allocator state and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_probe::note_alloc();
        System.alloc(layout)
    }
    // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwards all arguments unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_probe::note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations made by this process so far.
pub fn count() -> u64 {
    alloc_probe::allocs()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
