//! A small global pool of reusable `Vec<f64>` / `Vec<usize>` buffers for
//! the streaming ingest path.
//!
//! The out-of-core Gram route allocates the same handful of buffer shapes
//! over and over: one decoded shard's bounds, one 128-row chunk copy per
//! fold, one `m×m` upper-triangle scratch per drain. At the bench's
//! 160k×1024 scale that is hundreds of multi-megabyte allocations per
//! pass, and on a single core the page-faulting of fresh zeroed pages
//! costs a measurable slice of the wall clock. This pool turns the
//! steady-state loop allocation-free: producers *take* a cleared buffer
//! (reusing retained capacity when a previous round returned one),
//! consumers *recycle* the backing `Vec` once the values have been folded.
//!
//! ## Lifetime rules
//!
//! * [`take_f64`]/[`take_usize`] hand out an **empty** vector with at
//!   least the requested capacity — the caller fills it completely before
//!   use, so stale contents of a recycled buffer can never leak into
//!   results. [`take_zeroed_f64`] resizes the cleared buffer with exact
//!   `0.0` fill for callers that need fresh-zero semantics (accumulator
//!   scratch); clearing before resizing is what makes the fill exact.
//! * [`recycle_f64`]/[`recycle_usize`] accept any vector; ownership
//!   transfers to the pool. Recycling is always optional — a dropped
//!   buffer is merely a missed reuse, never a leak or a correctness
//!   problem. The streaming kernels recycle every chunk and remainder copy
//!   they take once its kernel has run, so takes and recycles balance and
//!   the shelf holds about one buffer per shape in flight. Recycling fresh
//!   allocations that no take asks for again would only fill the shelf
//!   with resident, unused capacity.
//! * The CSR Gram and cross folds balance the same way: every `m×m`
//!   partial they recycle was taken here — chunk partials, the copy that
//!   opens a merge group, and the tail partial of a finish — and a fold
//!   returns its master and group partials when it is dropped. A stream
//!   of any length leaves a few `m×m` buffers on the shelf, not
//!   [`MAX_POOLED_BUFFERS`] of them.
//! * The pool is a bounded cache, not an arena: it retains at most
//!   [`MAX_POOLED_BUFFERS`] buffers and [`MAX_RETAINED_ELEMS`] total
//!   elements of capacity per element type, dropping the excess. Peak
//!   memory therefore stays proportional to the working set, and
//!   [`clear`] releases everything (used by tests and memory-sensitive
//!   callers).
//!
//! Pooling never changes results: buffers only carry values between the
//! same writes and reads that fresh allocations would, and the
//! accumulator fold order is untouched. [`stats`] exposes hit/miss
//! counters so tests can assert the steady-state loop actually reuses
//! buffers instead of silently regressing to the allocator.

use std::sync::Mutex;

/// Maximum number of buffers retained per element type.
pub const MAX_POOLED_BUFFERS: usize = 32;

/// Maximum total retained capacity (in elements) per element type —
/// 2²⁵ f64 elements is 256 MiB, comfortably above the ingest path's
/// working set (a few shards plus an `m×m` scratch) and far below the
/// matrices it exists to stream.
pub const MAX_RETAINED_ELEMS: usize = 1 << 25;

/// One element type's shelf: retained buffers plus reuse counters.
struct Shelf<T> {
    bufs: Vec<Vec<T>>,
    retained_elems: usize,
    hits: u64,
    misses: u64,
}

impl<T> Shelf<T> {
    const fn new() -> Self {
        Shelf {
            bufs: Vec::new(),
            retained_elems: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Best-fit take: the smallest retained buffer with at least
    /// `min_cap` capacity, or a fresh allocation when none fits.
    fn take(&mut self, min_cap: usize) -> Vec<T> {
        let mut best: Option<usize> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            if b.capacity() >= min_cap
                && best.map_or(true, |j| b.capacity() < self.bufs[j].capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let buf = self.bufs.swap_remove(i);
                self.retained_elems -= buf.capacity();
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(min_cap)
            }
        }
    }

    fn recycle(&mut self, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() == 0
            || self.bufs.len() >= MAX_POOLED_BUFFERS
            || self.retained_elems + buf.capacity() > MAX_RETAINED_ELEMS
        {
            return; // dropped: the pool is a bounded cache
        }
        self.retained_elems += buf.capacity();
        self.bufs.push(buf);
    }

    fn clear(&mut self) {
        self.bufs.clear();
        self.retained_elems = 0;
    }
}

static F64_SHELF: Mutex<Shelf<f64>> = Mutex::new(Shelf::new());
static USIZE_SHELF: Mutex<Shelf<usize>> = Mutex::new(Shelf::new());

fn f64_shelf() -> std::sync::MutexGuard<'static, Shelf<f64>> {
    F64_SHELF.lock().unwrap_or_else(|e| e.into_inner())
}

fn usize_shelf() -> std::sync::MutexGuard<'static, Shelf<usize>> {
    USIZE_SHELF.lock().unwrap_or_else(|e| e.into_inner())
}

/// An **empty** `Vec<f64>` with at least `min_cap` capacity, reusing a
/// recycled buffer when one is large enough. The caller owns it; filling
/// is the caller's job.
pub fn take_f64(min_cap: usize) -> Vec<f64> {
    f64_shelf().take(min_cap)
}

/// A `Vec<f64>` of exactly `len` zeros (bit pattern `0.0`), reusing a
/// recycled buffer when possible — the pooled replacement for
/// `vec![0.0; len]` in accumulator scratch, where fresh-zero semantics
/// are load-bearing.
pub fn take_zeroed_f64(len: usize) -> Vec<f64> {
    let mut buf = take_f64(len);
    buf.resize(len, 0.0);
    buf
}

/// Returns a `Vec<f64>` to the pool (contents are discarded).
pub fn recycle_f64(buf: Vec<f64>) {
    f64_shelf().recycle(buf);
}

/// An **empty** `Vec<usize>` with at least `min_cap` capacity — the
/// integer twin of [`take_f64`] for CSR index buffers.
pub fn take_usize(min_cap: usize) -> Vec<usize> {
    usize_shelf().take(min_cap)
}

/// Returns a `Vec<usize>` to the pool (contents are discarded).
pub fn recycle_usize(buf: Vec<usize>) {
    usize_shelf().recycle(buf);
}

/// Snapshot of the pool's reuse counters and retained footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a retained buffer.
    pub f64_hits: u64,
    /// Takes that fell back to a fresh allocation.
    pub f64_misses: u64,
    /// Retained `f64` capacity, in elements.
    pub f64_retained_elems: usize,
    /// Takes served from a retained buffer.
    pub usize_hits: u64,
    /// Takes that fell back to a fresh allocation.
    pub usize_misses: u64,
    /// Retained `usize` capacity, in elements.
    pub usize_retained_elems: usize,
}

/// Current pool counters (cumulative for the process; see [`clear`]).
pub fn stats() -> PoolStats {
    let f = f64_shelf();
    let u = usize_shelf();
    PoolStats {
        f64_hits: f.hits,
        f64_misses: f.misses,
        f64_retained_elems: f.retained_elems,
        usize_hits: u.hits,
        usize_misses: u.misses,
        usize_retained_elems: u.retained_elems,
    }
}

/// Drops every retained buffer (counters keep accumulating).
pub fn clear() {
    f64_shelf().clear();
    usize_shelf().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_recycled_capacity_best_fit() {
        clear();
        let before = stats();
        let mut big = take_f64(1024);
        big.extend(std::iter::repeat(3.5).take(1024));
        let small = {
            let mut v = take_f64(16);
            v.push(1.0);
            v
        };
        let (big_cap, small_cap) = (big.capacity(), small.capacity());
        recycle_f64(big);
        recycle_f64(small);
        // A 10-element request prefers the small buffer (best fit)...
        let took = take_f64(10);
        assert!(took.is_empty(), "pooled buffers come back cleared");
        assert_eq!(took.capacity(), small_cap);
        // ...and a 1024-element request still finds the big one.
        let took_big = take_f64(1024);
        assert_eq!(took_big.capacity(), big_cap);
        let after = stats();
        assert_eq!(after.f64_hits, before.f64_hits + 2);
        recycle_f64(took);
        recycle_f64(took_big);
    }

    #[test]
    fn take_zeroed_is_exactly_zero_after_dirty_recycle() {
        let mut dirty = take_f64(64);
        dirty.extend(std::iter::repeat(f64::NAN).take(64));
        recycle_f64(dirty);
        let z = take_zeroed_f64(64);
        assert_eq!(z.len(), 64);
        assert!(
            z.iter().all(|v| v.to_bits() == 0.0f64.to_bits()),
            "pooled zeroed buffers must be bit-exact 0.0"
        );
        recycle_f64(z);
    }

    #[test]
    fn pool_is_bounded() {
        clear();
        // Over-large buffers are dropped rather than retained.
        recycle_f64(Vec::with_capacity(MAX_RETAINED_ELEMS + 1));
        assert_eq!(stats().f64_retained_elems, 0);
        // Zero-capacity buffers are not worth retaining.
        recycle_usize(Vec::new());
        assert_eq!(stats().usize_retained_elems, 0);
        // The buffer count cap holds.
        for _ in 0..(MAX_POOLED_BUFFERS + 10) {
            recycle_usize(Vec::with_capacity(8));
        }
        let s = stats();
        assert!(s.usize_retained_elems <= MAX_POOLED_BUFFERS * 8);
        clear();
        assert_eq!(stats().f64_retained_elems, 0);
        assert_eq!(stats().usize_retained_elems, 0);
    }
}
