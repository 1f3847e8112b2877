//! A streamed CSR Gram gives back to the process-wide pool what it takes
//! from it: each merge group's partial is taken from the pool when the
//! group opens and recycled when it seals, so the shelf stays at a few
//! `m × m` buffers however many groups a stream folds, and a second
//! stream is served from recycled buffers alone.
//!
//! The pool's counters are process-wide, so this file holds a single test
//! (its own process): no concurrently running test can take or miss in
//! between the snapshots.

use ivmf_linalg::{
    gram_streamed, pool, streaming::GROUP_ROWS, CrossGramAccumulator, CsrShard, STREAM_CHUNK_ROWS,
};

const COLS: usize = 64;
const PER_ROW: usize = 4;

/// `rows × COLS` CSR rows with `PER_ROW` stored entries each, at columns
/// spread by a row-dependent offset, values in `(-1, 1)`.
fn lcg_csr(rows: usize, mut state: u64) -> CsrShard {
    let mut row_ptr = vec![0];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for r in 0..rows {
        let mut cols: Vec<usize> = (0..PER_ROW)
            .map(|k| (r * 7 + k * COLS / PER_ROW) % COLS)
            .collect();
        cols.sort_unstable();
        for c in cols {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            col_idx.push(c);
            values.push((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0);
        }
        row_ptr.push(col_idx.len());
    }
    CsrShard::new(rows, COLS, row_ptr, col_idx, values).unwrap()
}

#[test]
fn streamed_csr_gram_balances_the_pool() {
    let one_thread = ivmf_env::Settings {
        threads: 1,
        ..ivmf_env::Settings::default()
    };
    one_thread.scope(|| {
        // Six merge groups and a partial chunk, in shards that do not
        // line up with chunks or groups.
        let n = 6 * GROUP_ROWS + STREAM_CHUNK_ROWS / 2 + 3;
        let shard_rows = 5000;
        let shards: Vec<CsrShard> = (0..n)
            .step_by(shard_rows)
            .map(|r| lcg_csr(shard_rows.min(n - r), r as u64))
            .collect();
        // Each fold holds at most three partials at once (the Gram its
        // drain scratch, group and master; the cross product its chunk
        // partial, group and master), so a balanced pool retains a few.
        let partial = COLS * COLS;
        let stream = || {
            let gram = gram_streamed(&shards[..]).unwrap();
            let mut cross = CrossGramAccumulator::<CsrShard>::new(COLS, COLS);
            for s in &shards {
                cross.push_blocks(s, s).unwrap();
            }
            (gram, cross.finish().unwrap())
        };
        pool::clear();
        let first = stream();
        let after_first = pool::stats();
        let second = stream();
        let after_second = pool::stats();
        assert_eq!(first, second, "pooled buffers never change results");
        for (what, stats) in [("first", after_first), ("second", after_second)] {
            assert!(
                stats.f64_retained_elems <= 5 * partial,
                "after the {what} stream the f64 shelf retains {} elements, {:.1} {COLS}x{COLS} \
                 partials",
                stats.f64_retained_elems,
                stats.f64_retained_elems as f64 / partial as f64
            );
        }
        assert_eq!(
            (after_second.f64_misses, after_second.usize_misses),
            (after_first.f64_misses, after_first.usize_misses),
            "the second stream allocates no new buffer: {after_first:?} -> {after_second:?}"
        );
    });
}
