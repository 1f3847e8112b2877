//! # ivmf-par
//!
//! A zero-dependency scoped worker pool for data-parallel kernels.
//!
//! The hot paths of this workspace (blocked matrix multiplication, interval
//! products, k-means distance accumulation) all share the same shape: an
//! output buffer is partitioned into contiguous *row panels* and each panel
//! can be computed independently. This crate provides exactly that
//! primitive, built on [`std::thread::scope`] so it needs no external
//! dependencies and no `unsafe` code:
//!
//! * [`par_row_panels`] — split a mutable row-major buffer into balanced
//!   contiguous row panels and fill each panel on its own worker thread,
//! * [`panel_ranges`] — the deterministic partitioning it uses,
//! * [`configured_threads`] — the worker count,
//!   [`ivmf_env::Settings::threads`] of the settings in force on the
//!   calling thread.
//!
//! ## Settings in workers
//!
//! [`par_row_panels`] and [`par_map`] run `f` on each worker inside the
//! caller's [`ivmf_env::Settings`] (see [`ivmf_env::Settings::scope`]), so
//! a kernel nested in a worker sees the thread count, interval flavour
//! and other settings its caller sees.
//!
//! ## Determinism
//!
//! Panel boundaries never change *what* is computed, only *where*: a kernel
//! that derives every output element from its own row produces bitwise
//! identical results for any worker count. The workspace's blocked matmul
//! relies on this (see the thread-count determinism tests in
//! `ivmf-linalg`).
//!
//! ## Example
//!
//! ```
//! // Square each row's elements in parallel: 4 rows of length 3.
//! let mut data: Vec<f64> = (0..12).map(f64::from).collect();
//! ivmf_par::par_row_panels(&mut data, 3, 4, |first_row, panel| {
//!     for (i, row) in panel.chunks_mut(3).enumerate() {
//!         let scale = (first_row + i + 1) as f64;
//!         for x in row.iter_mut() {
//!             *x *= scale;
//!         }
//!     }
//! });
//! assert_eq!(data[0], 0.0); // row 0 scaled by 1
//! assert_eq!(data[11], 44.0); // row 3 scaled by 4
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads spawned by [`par_row_panels`] and [`par_map`] since the
/// process started.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// How many worker threads [`par_row_panels`] and [`par_map`] have spawned
/// in this process so far (the calling thread's own share of the work is
/// not counted). A statistic for tests that guard against a kernel
/// spawning per call where it should not.
pub fn spawned_workers() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

/// The worker count for parallel kernels: [`ivmf_env::Settings::threads`]
/// of the settings in force on this thread (the process default is
/// `IVMF_THREADS`, else the machine's available parallelism). Reading it
/// allocates nothing.
pub fn configured_threads() -> usize {
    ivmf_env::Settings::current().threads
}

/// Splits `0..n` into at most `parts` contiguous, non-overlapping,
/// covering ranges whose lengths differ by at most one (the first
/// `n % parts` ranges are one element longer).
///
/// Returns fewer than `parts` ranges when `n < parts` (never an empty
/// range), and an empty vector when `n == 0`.
pub fn panel_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits a row-major buffer of `data.len() / row_len` rows into balanced
/// contiguous row panels and calls `f(first_row, panel)` for each, one
/// scoped worker thread per panel.
///
/// With `threads <= 1` (or a single resulting panel) `f` runs inline on
/// the calling thread with the whole buffer — the zero-overhead path the
/// kernels take for small inputs.
///
/// # Panics
///
/// Panics when `row_len` does not evenly divide `data.len()` (a row must
/// never straddle two panels). `row_len == 0` is accepted only for an
/// empty buffer.
pub fn par_row_panels<T, F>(data: &mut [T], row_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        row_len > 0 && data.len() % row_len == 0,
        "row length {row_len} must evenly divide buffer length {}",
        data.len()
    );
    let rows = data.len() / row_len;
    let ranges = panel_ranges(rows, threads);
    if ranges.len() <= 1 {
        f(0, data);
        return;
    }
    let settings = ivmf_env::Settings::current();
    std::thread::scope(|s| {
        let (f, settings) = (&f, &settings);
        let mut rest = data;
        let mut ranges = ranges.into_iter();
        let last = ranges.next_back().expect("at least two ranges");
        for r in ranges {
            let (panel, tail) = rest.split_at_mut(r.len() * row_len);
            rest = tail;
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            s.spawn(move || settings.scope(|| f(r.start, panel)));
        }
        f(last.start, rest);
    });
}

/// Evaluates `f(i)` for every `i in 0..n` across at most `threads` scoped
/// worker threads, returning the results **in index order**.
///
/// This is the task-level companion to [`par_row_panels`]: where that
/// splits one output buffer, `par_map` schedules independent jobs (shard
/// Gram contributions, per-chunk products) whose results the caller folds
/// in a fixed order afterwards — which is what keeps shard- and
/// chunk-parallel reductions bitwise deterministic: parallelism changes
/// *when* each job runs, never the fold order.
///
/// With `threads <= 1` or `n <= 1` everything runs inline on the calling
/// thread.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let ranges = panel_ranges(n, threads);
    if ranges.len() <= 1 {
        return (0..n).map(f).collect();
    }
    let settings = ivmf_env::Settings::current();
    let (f, settings) = (&f, &settings);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    SPAWNED.fetch_add(ranges.len(), Ordering::Relaxed);
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| s.spawn(move || settings.scope(|| r.map(f).collect::<Vec<T>>())))
            .collect();
        chunks = handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect();
    });
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_ranges_cover_without_overlap() {
        for n in [0usize, 1, 2, 7, 64, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = panel_ranges(n, parts);
                assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), n);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous coverage for n={n} parts={parts}");
                    assert!(!r.is_empty(), "no empty panels for n={n} parts={parts}");
                    next = r.end;
                }
                // Balanced: panel lengths differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn panel_count_never_exceeds_rows() {
        assert_eq!(panel_ranges(3, 8).len(), 3);
        assert_eq!(panel_ranges(0, 8).len(), 0);
        assert_eq!(panel_ranges(8, 0).len(), 1); // parts clamped to 1
    }

    #[test]
    fn par_row_panels_fills_every_row_once() {
        for threads in [1usize, 2, 4, 7, 32] {
            let mut data = vec![0u32; 9 * 5];
            par_row_panels(&mut data, 5, threads, |first_row, panel| {
                for (i, row) in panel.chunks_mut(5).enumerate() {
                    for x in row.iter_mut() {
                        *x += (first_row + i) as u32;
                    }
                }
            });
            for (i, row) in data.chunks(5).enumerate() {
                assert!(
                    row.iter().all(|&x| x == i as u32),
                    "row {i} wrong with {threads} threads: {row:?}"
                );
            }
        }
    }

    #[test]
    fn par_row_panels_results_independent_of_thread_count() {
        let run = |threads: usize| {
            let mut data = vec![0.0f64; 13 * 7];
            par_row_panels(&mut data, 7, threads, |first_row, panel| {
                for (i, row) in panel.chunks_mut(7).enumerate() {
                    for (j, x) in row.iter_mut().enumerate() {
                        *x = ((first_row + i) * 31 + j) as f64 / 3.0;
                    }
                }
            });
            data
        };
        let reference = run(1);
        for threads in [2usize, 3, 13, 64] {
            assert_eq!(run(threads), reference);
        }
    }

    #[test]
    fn empty_buffer_is_a_noop() {
        let mut data: Vec<f64> = Vec::new();
        par_row_panels(&mut data, 0, 4, |_, _| panic!("must not be called"));
        par_row_panels(&mut data, 3, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn ragged_rows_panic() {
        let mut data = vec![0.0f64; 7];
        par_row_panels(&mut data, 3, 2, |_, _| {});
    }

    #[test]
    fn workers_run_in_the_callers_settings() {
        let three = ivmf_env::Settings {
            threads: 3,
            ..ivmf_env::Settings::default()
        };
        three.scope(|| {
            assert_eq!(configured_threads(), 3);
            let seen = par_map(6, 3, |_| configured_threads());
            assert_eq!(seen, vec![3; 6]);
            let mut rows = vec![0usize; 6];
            par_row_panels(&mut rows, 1, 3, |_, panel| panel.fill(configured_threads()));
            assert_eq!(rows, vec![3; 6]);
        });
    }

    #[test]
    fn par_map_preserves_index_order_for_every_thread_count() {
        for threads in [1usize, 2, 3, 8, 64] {
            let out = par_map(13, threads, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map(0, 4, |i| i).is_empty());
        assert_eq!(par_map(1, 4, |i| i + 41), vec![41]);
    }
}
