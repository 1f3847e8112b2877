//! Acceptance suite for the end-to-end sparse CSR route: every Gram-route
//! layer must treat the CSR representation as a pure storage choice —
//! **bitwise identical** to the dense path, never approximately equal.
//!
//! * property-tested sparse-vs-dense equality of the streamed interval
//!   Gram and the streamed scalar matmuls across random power-law
//!   matrices, shard layouts (always including 1-row shards and
//!   shard == n) and both matmul sides,
//! * full ISVD0–4 through `run_all_sharded` equals the dense `run_all`
//!   bitwise for every decomposition target and ≥ 4 shard layouts,
//! * `IVMF_THREADS` (1 vs 4) never changes a bit of the sparse route,
//! * degenerate shapes: rows with no stored entries, an entirely empty
//!   shard, a single-nonzero matrix, and an all-zero matrix.

use ivmf_core::pipeline::run_all;
use ivmf_core::{run_all_sharded, DecompositionTarget, IsvdAlgorithm, IsvdConfig, IsvdResult};
use ivmf_data::synthetic::{generate_power_law, PowerLawConfig};
use ivmf_interval::{
    CsrIntervalShard, CsrShardedIntervalMatrix, IntervalMatrix, StreamingIntervalGram,
};
use ivmf_linalg::{matmul_left_streamed_t, matmul_streamed, Matrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn power_law(seed: u64, rows: usize, cols: usize, nnz_per_row: usize) -> CsrIntervalShard {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate_power_law(
        &PowerLawConfig::ratings_like(rows, cols).with_nnz_per_row(nnz_per_row),
        &mut rng,
    )
}

fn assert_results_bitwise(a: &[IsvdResult; 5], b: &[IsvdResult; 5], context: &str) {
    for ((ra, rb), alg) in a.iter().zip(b.iter()).zip(IsvdAlgorithm::all()) {
        assert!(
            !ra.factors.u.has_non_finite() && !ra.factors.v.has_non_finite(),
            "{context}: {alg} produced non-finite factors"
        );
        assert_eq!(ra.factors.u, rb.factors.u, "{context}: {alg} U differs");
        assert_eq!(ra.factors.v, rb.factors.v, "{context}: {alg} V differs");
        assert_eq!(
            ra.factors.sigma, rb.factors.sigma,
            "{context}: {alg} core differs"
        );
    }
}

fn sparse_gram(m: &CsrShardedIntervalMatrix) -> IntervalMatrix {
    let mut acc = StreamingIntervalGram::new_csr(m.rows(), m.cols());
    for shard in m.shards() {
        acc.push(shard).unwrap();
    }
    acc.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sparse streamed interval Gram and both streamed scalar matmuls
    /// agree with their dense counterparts bit for bit, whatever the
    /// shard layout.
    #[test]
    fn sparse_kernels_match_dense_bitwise(
        rows in 1usize..40,
        cols in 1usize..16,
        nnz_per_row in 1usize..6,
        seed in 1u64..1000,
        shard_seed in 1u64..1000,
    ) {
        let csr = power_law(seed, rows, cols, nnz_per_row);
        let dense = csr.to_dense();

        let mut rng = SmallRng::seed_from_u64(shard_seed);
        let mut layouts = vec![1usize, rows];
        layouts.push(rng.gen_range(1..=rows));
        for shard_rows in layouts {
            let sharded = CsrShardedIntervalMatrix::from_csr(&csr, shard_rows).unwrap();
            let ctx = format!("rows={rows} cols={cols} shard_rows={shard_rows}");

            // Interval Gram.
            prop_assert_eq!(
                &sparse_gram(&sharded),
                &dense.interval_gram_streamed().unwrap(),
                "gram diverged: {}", &ctx
            );

            // Streamed matmuls of the lower bound, both sides.
            let rhs = Matrix::from_fn(cols, 3, |i, j| ((i * 3 + j) as f64).sin());
            let lhs = Matrix::from_fn(3, rows, |i, j| ((i * 7 + j) as f64).cos());
            prop_assert_eq!(
                &matmul_streamed(csr.lo_shard(), &rhs).unwrap(),
                &matmul_streamed(dense.lo(), &rhs).unwrap(),
                "right matmul diverged: {}", &ctx
            );
            prop_assert_eq!(
                &matmul_left_streamed_t(&lhs, csr.lo_shard()).unwrap(),
                &matmul_left_streamed_t(&lhs, dense.lo()).unwrap(),
                "left matmul diverged: {}", &ctx
            );
        }
    }
}

#[test]
fn sparse_run_all_matches_dense_for_every_target_and_layout() {
    let csr = power_law(42, 34, 12, 4);
    let dense = csr.to_dense();
    for target in DecompositionTarget::all() {
        let config = IsvdConfig::new(4).with_target(target);
        let reference = run_all(&dense, &config).unwrap();
        for shard_rows in [1usize, 5, 13, 34] {
            let sharded = CsrShardedIntervalMatrix::from_csr(&csr, shard_rows).unwrap();
            let results = run_all_sharded(&sharded, &config).unwrap();
            assert_results_bitwise(
                &results,
                &reference,
                &format!("target {target} shard_rows {shard_rows}"),
            );
        }
    }
}

#[test]
fn sparse_route_is_bitwise_invariant_across_thread_counts() {
    // Env mutation is contained in this one test; concurrent tests only
    // *read* the variable through kernels that are bitwise
    // thread-count-invariant.
    let csr = power_law(43, 29, 10, 5);
    let sharded = CsrShardedIntervalMatrix::from_csr(&csr, 6).unwrap();
    let config = IsvdConfig::new(4);
    let reference = run_all(&csr.to_dense(), &config).unwrap();
    let prev = std::env::var(ivmf_par::THREADS_ENV).ok();
    for threads in ["1", "4"] {
        std::env::set_var(ivmf_par::THREADS_ENV, threads);
        let results = run_all_sharded(&sharded, &config).unwrap();
        assert_results_bitwise(&results, &reference, &format!("threads {threads}"));
    }
    match prev {
        Some(v) => std::env::set_var(ivmf_par::THREADS_ENV, v),
        None => std::env::remove_var(ivmf_par::THREADS_ENV),
    }
}

#[test]
fn degenerate_sparse_shapes_match_dense() {
    let config = IsvdConfig::new(2);

    // Rows with no stored entries interleaved with populated rows, cut so
    // one shard is entirely empty.
    let triplets = [
        (0usize, 1usize, 1.0, 2.0),
        (0, 3, 0.5, 0.75),
        (5, 0, 2.0, 3.0),
        (5, 4, 1.0, 1.0),
    ];
    let csr = CsrIntervalShard::from_triplets(6, 5, &triplets).unwrap();
    let dense = csr.to_dense();
    for shard_rows in [1usize, 2, 3, 6] {
        let sharded = CsrShardedIntervalMatrix::from_csr(&csr, shard_rows).unwrap();
        assert_results_bitwise(
            &run_all_sharded(&sharded, &config).unwrap(),
            &run_all(&dense, &config).unwrap(),
            &format!("empty-row matrix, shard_rows {shard_rows}"),
        );
    }

    // A single stored entry in the whole matrix.
    let single = CsrIntervalShard::from_triplets(7, 4, &[(3, 2, 1.5, 2.5)]).unwrap();
    let sharded = CsrShardedIntervalMatrix::from_csr(&single, 2).unwrap();
    assert_results_bitwise(
        &run_all_sharded(&sharded, &config).unwrap(),
        &run_all(&single.to_dense(), &config).unwrap(),
        "single-nonzero matrix",
    );

    // An all-zero matrix: no stored entries anywhere.
    let empty = CsrIntervalShard::from_triplets(5, 4, &[]).unwrap();
    assert_eq!(empty.nnz(), 0);
    let sharded = CsrShardedIntervalMatrix::from_csr(&empty, 2).unwrap();
    let sparse = run_all_sharded(&sharded, &config);
    let dense = run_all(&empty.to_dense(), &config);
    match (sparse, dense) {
        (Ok(s), Ok(d)) => assert_results_bitwise(&s, &d, "all-zero matrix"),
        (Err(_), Err(_)) => {} // both routes must agree even on rejection
        (s, d) => panic!(
            "sparse and dense disagree on the all-zero matrix: sparse ok={} dense ok={}",
            s.is_ok(),
            d.is_ok()
        ),
    }
}
