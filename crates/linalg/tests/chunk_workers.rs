//! A streamed CSR product runs each 128-row chunk on the calling thread
//! when the chunk's stored work is small, whatever the thread setting: a
//! worker spawned and joined per chunk costs more than the chunk's
//! arithmetic.
//!
//! The spawn counter is process-wide, so this file holds a single test
//! (its own process): no concurrently running test can spawn in between
//! the two readings.

use ivmf_linalg::{matmul_left_streamed_t, matmul_streamed, CsrShard, Matrix, STREAM_CHUNK_ROWS};

/// Deterministic `rows × cols` fill with `per_row` stored entries per row
/// at pseudo-random columns.
fn lcg_sparse(rows: usize, cols: usize, per_row: usize, mut state: u64) -> Matrix {
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for _ in 0..per_row {
            let j = next() as usize % cols;
            m[(i, j)] = (next() as f64 / (1u64 << 31) as f64) - 1.0;
        }
    }
    m
}

#[test]
fn streamed_csr_products_spawn_no_worker_per_chunk() {
    // The out-of-core benchmark's row shape: 256 columns, 16 stored
    // entries per row, rank-20 operands. Each chunk's dense-equivalent
    // work (128·256·20) is above the parallel threshold; its stored work
    // (~2048·20) is far below it.
    let chunks = 64;
    let (n, cols, rank) = (chunks * STREAM_CHUNK_ROWS + 5, 256, 20);
    let csr = CsrShard::from_dense(&lcg_sparse(n, cols, 16, 3));
    let rhs = lcg_sparse(cols, rank, cols, 4);
    let lhs = lcg_sparse(rank, n, n, 5);
    let settings = |threads| ivmf_env::Settings {
        threads,
        ..ivmf_env::Settings::default()
    };
    let one = settings(1).scope(|| {
        (
            matmul_streamed(&csr, &rhs).unwrap(),
            matmul_left_streamed_t(&lhs, &csr).unwrap(),
        )
    });
    let before = ivmf_par::spawned_workers();
    let two = settings(2).scope(|| {
        (
            matmul_streamed(&csr, &rhs).unwrap(),
            matmul_left_streamed_t(&lhs, &csr).unwrap(),
        )
    });
    let spawned = ivmf_par::spawned_workers() - before;
    assert_eq!(spawned, 0, "{spawned} workers spawned over {chunks} chunks");
    assert_eq!(one, two, "results depend on the thread setting");
}
