//! The streamed products, right and left over dense and over CSR row
//! blocks, return every chunk buffer they take from the process-wide pool,
//! so a second pass over the same source is served entirely from recycled
//! buffers.
//!
//! The pool's counters are process-wide, so this file holds a single test
//! (its own process): no concurrently running test can take or miss in
//! between the two snapshots, or see its thread-count override.

use ivmf_linalg::{
    matmul_left_streamed_t, matmul_streamed, pool, CsrShard, Matrix, STREAM_CHUNK_ROWS,
};

/// Deterministic fill with roughly one stored entry in three.
fn lcg_sparse(rows: usize, cols: usize, mut state: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (state >> 33) % 3 == 0 {
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        } else {
            0.0
        }
    })
}

#[test]
fn second_pass_of_every_streamed_product_hits_the_pool() {
    // One compute thread, so both passes have the same buffers in flight
    // at once (with more, the first pass could happen to overlap fewer
    // chunk copies than the second and leave it a legitimate miss).
    std::env::set_var("IVMF_THREADS", "1");
    // Full chunks, a multi-chunk parallel batch and a remainder.
    let n = 10 * STREAM_CHUNK_ROWS + 37;
    let m = lcg_sparse(n, 24, 1);
    let shard_rows = 3 * STREAM_CHUNK_ROWS + 5;
    let csr = CsrShard::from_dense(&m);
    let sparse: Vec<CsrShard> = (0..n)
        .step_by(shard_rows)
        .map(|r| csr.row_slice(r, (r + shard_rows).min(n)).unwrap())
        .collect();
    let dense: Vec<Matrix> = sparse.iter().map(CsrShard::to_dense).collect();
    let rhs = lcg_sparse(24, 6, 2);
    let lhs = lcg_sparse(6, n, 3);
    let products = || {
        (
            matmul_streamed(&dense[..], &rhs).unwrap(),
            matmul_left_streamed_t(&lhs, &dense[..]).unwrap(),
            matmul_streamed(&sparse[..], &rhs).unwrap(),
            matmul_left_streamed_t(&lhs, &sparse[..]).unwrap(),
        )
    };
    let first = products();
    let before = pool::stats();
    let second = products();
    let after = pool::stats();
    assert_eq!(first, second, "pooled buffers never change results");
    assert!(
        after.f64_hits > before.f64_hits && after.usize_hits > before.usize_hits,
        "the second pass takes recycled buffers: {before:?} -> {after:?}"
    );
    assert_eq!(
        (after.f64_misses, after.usize_misses),
        (before.f64_misses, before.usize_misses),
        "the second pass allocates no new chunk buffers: {before:?} -> {after:?}"
    );
}
