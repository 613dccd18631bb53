//! A counting allocator for the allocation gates: [`Counting`] forwards
//! every call to [`System`] and tallies, per thread, the allocations
//! made and the live and peak heap bytes.
//!
//! Allocation counts are a pure function of the code on one thread, so
//! tests can pin them where a timing cannot. The library never installs
//! the allocator; a test binary that gates on counts declares it as its
//! own global allocator in one line and measures a closure with
//! [`counted`] (allocations) or [`peak_bytes`] (heap high-water mark):
//!
//! ```
//! use cg_telemetry::alloc::{counted, Counting};
//!
//! #[global_allocator]
//! static ALLOC: Counting = Counting;
//!
//! fn main() {
//!     let (v, allocs) = counted(|| vec![0u8; 64]);
//!     assert_eq!((v.len(), allocs), (64, 1));
//! }
//! ```
//!
//! In a binary that does not install [`Counting`], both report zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the current thread's allocations (`alloc` and `realloc`) and
/// tracks its live heap bytes and their peak.
pub struct Counting;

/// One thread's tally, kept in a single `Cell` so each update is one
/// `try_with`.
#[derive(Clone, Copy)]
struct Tally {
    allocs: u64,
    live: usize,
    peak: usize,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocs: 0, live: 0, peak: 0 }) };
}

/// Counts `allocs` allocations that hold `grow` more bytes at their
/// peak and leave `shrink` fewer live once they return.
fn bump(allocs: u64, grow: usize, shrink: usize) {
    let _ = TALLY.try_with(|t| {
        let mut tally = t.get();
        tally.allocs += allocs;
        tally.peak = tally.peak.max(tally.live + grow);
        tally.live = (tally.live + grow).saturating_sub(shrink);
        t.set(tally);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches only a thread-local `Cell` through `try_with`, which neither
// allocates nor panics, even while thread-locals are torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, 0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both blocks may be live while the contents move.
        bump(1, new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = tally().allocs;
    let out = f();
    (out, tally().allocs - before)
}

/// Runs `f`, returning its result and the most heap bytes it held live
/// on this thread at once, above what was live when it started.
pub fn peak_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = tally().live;
    TALLY.with(|t| {
        t.set(Tally {
            peak: base,
            ..t.get()
        })
    });
    let out = f();
    (out, tally().peak - base)
}
