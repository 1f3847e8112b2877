//! The counting global allocator of the test binaries that measure
//! memory (std only): live bytes and their peak, process-wide, and the
//! largest single allocation a thread makes while armed. A binary opts in
//! with `#[path = "support/counting_alloc.rs"] mod counting_alloc;`, and
//! should measure live bytes only while nothing else in it allocates.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes ever allocated at once (reset it to start a window).
pub static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
    // `try_with`: allocations during thread teardown are not measured.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LARGEST.with(|l| l.set(l.get().max(bytes)));
        }
    });
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

/// Runs `f` and returns its result with the largest single allocation
/// (or reallocation target) this thread made meanwhile.
pub fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.with(Cell::get))
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose allocations therefore meet the `GlobalAlloc` contract. The
// counters are atomics and `const`-initialized thread-local `Cell`s
// without destructors: counting never allocates and never touches the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, since
        // every allocation of this allocator does.
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is passed through.
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
