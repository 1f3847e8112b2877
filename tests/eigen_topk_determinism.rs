//! Determinism acceptance suite for the certified top-k eigensolver:
//!
//! * `sym_eigen_topk_with` is bitwise identical across thread counts
//!   {1, 4},
//! * the solver is invariant to the shard layout when reached through
//!   the row-sharded and sparse CSR Gram routes (the streamed Grams are
//!   bitwise equal, and so are their top-k eigendecompositions),
//! * at a shape where [`topk_profitable`] holds, the pipeline's bound
//!   eigendecompositions run Lanczos: the sharded route still equals the
//!   dense route bit for bit, and for every decomposition target the
//!   Lanczos answer on both Gram bounds agrees with the dense truncation
//!   within the solver's certified tolerance,
//! * every solver path — default options on either side of the
//!   profitability line, `with_force(true)` and `sym_eigen_topk` —
//!   rejects NaN/±Inf input, naming the cell.
//!
//! The thread-count test sets the count in a [`Settings::scope`];
//! everything else drives the solver through explicit [`TopkOptions`] or
//! the input's shape.

use ivmf_core::pipeline::{run_all, Pipeline};
use ivmf_core::{run_all_sharded, DecompositionTarget, IsvdAlgorithm, IsvdConfig};
use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_env::Settings;
use ivmf_interval::{IntervalMatrix, RowShardedIntervalMatrix};
use ivmf_linalg::eigen_sym::SymEigen;
use ivmf_linalg::random::{symmetric_matrix, uniform_matrix};
use ivmf_linalg::{
    sym_eigen_topk, sym_eigen_topk_report, sym_eigen_topk_with, topk_profitable, TopkOptions,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A pipeline shape whose bound eigendecompositions take the Lanczos
/// path under default options: `topk_profitable(COLS, RANK)` holds.
const ROWS: usize = 120;
const COLS: usize = 104;
const RANK: usize = 5;

fn synthetic(seed: u64, rows: usize, cols: usize) -> IntervalMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate_uniform(
        &SyntheticConfig::paper_default().with_shape(rows, cols),
        &mut rng,
    )
}

fn forced() -> TopkOptions {
    TopkOptions::default().with_force(true)
}

fn assert_eig_bitwise(a: &SymEigen, b: &SymEigen, context: &str) {
    assert_eq!(
        a.eigenvalues, b.eigenvalues,
        "{context}: eigenvalues differ"
    );
    assert_eq!(
        a.eigenvectors, b.eigenvectors,
        "{context}: eigenvectors differ"
    );
}

#[test]
fn topk_is_bitwise_invariant_across_thread_counts() {
    // A rank-deficient Wishart-style matrix large enough that the forced
    // path genuinely iterates (it is profitable at n = 200, k = 12).
    let mut rng = SmallRng::seed_from_u64(7001);
    let a = uniform_matrix(&mut rng, 60, 200, -1.0, 1.0).gram();

    let mut runs = Vec::new();
    for threads in [1, 4] {
        let settings = Settings {
            threads,
            ..Settings::default()
        };
        let (eig, report) = settings
            .scope(|| sym_eigen_topk_report(&a, 12, &forced()))
            .unwrap();
        assert!(
            !report.used_dense,
            "threads={threads}: forced path fell back to the dense solver"
        );
        runs.push(eig);
    }
    assert_eig_bitwise(&runs[0], &runs[1], "threads 1 vs 4");
}

#[test]
fn topk_is_invariant_to_shard_layout_through_the_gram_route() {
    // Whatever the shard layout, the streamed interval Gram is bitwise
    // equal to the dense one — so the top-k eigensolver applied to its
    // bound matrices is bitwise equal too.
    let m = synthetic(7010, 40, 30);
    let reference = m.interval_gram_streamed().unwrap();
    let eig_lo = sym_eigen_topk_with(reference.lo(), 6, &forced()).unwrap();
    let eig_hi = sym_eigen_topk_with(reference.hi(), 6, &forced()).unwrap();

    for shard_rows in [1usize, 7, 40] {
        let sharded = RowShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
        let gram = sharded.interval_gram_streamed().unwrap();
        assert_eq!(gram, reference, "shard_rows={shard_rows}: Gram diverged");
        assert_eig_bitwise(
            &sym_eigen_topk_with(gram.lo(), 6, &forced()).unwrap(),
            &eig_lo,
            &format!("shard_rows={shard_rows} lo-bound"),
        );
        assert_eig_bitwise(
            &sym_eigen_topk_with(gram.hi(), 6, &forced()).unwrap(),
            &eig_hi,
            &format!("shard_rows={shard_rows} hi-bound"),
        );
    }
}

#[test]
fn forced_sharded_pipeline_matches_dense_pipeline_bitwise() {
    // End to end: at a shape where the Lanczos path is profitable, the
    // sharded route still equals the dense route bit for bit — the
    // kernel sees the identical Gram either way.
    assert!(topk_profitable(COLS, RANK), "{COLS}x{COLS}, k={RANK}");
    let m = synthetic(7020, ROWS, COLS);
    let config = IsvdConfig::new(RANK);
    let dense = run_all(&m, &config).unwrap();
    for shard_rows in [1usize, 7, ROWS] {
        let sharded = RowShardedIntervalMatrix::from_dense(&m, shard_rows).unwrap();
        let results = run_all_sharded(&sharded, &config).unwrap();
        for ((r, d), alg) in results.iter().zip(&dense).zip(IsvdAlgorithm::all()) {
            let context = format!("shard_rows={shard_rows}: {alg}");
            assert_eq!(r.factors.u, d.factors.u, "{context} U differs");
            assert_eq!(r.factors.v, d.factors.v, "{context} V differs");
            assert_eq!(r.factors.sigma, d.factors.sigma, "{context} core differs");
        }
    }
}

/// Largest gap between two eigendecompositions' eigenvalues and
/// eigenvector entries, normalized by the larger magnitude in play.
fn max_relative_gap(a: &SymEigen, b: &SymEigen) -> f64 {
    assert_eq!(a.eigenvalues.len(), b.eigenvalues.len());
    let (x, y) = (&a.eigenvectors, &b.eigenvectors);
    assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()));
    let pairs = a.eigenvalues.iter().zip(&b.eigenvalues);
    let pairs = pairs.chain(x.as_slice().iter().zip(y.as_slice()));
    let (mut gap, mut scale): (f64, f64) = (0.0, 1.0);
    for (s, t) in pairs {
        gap = gap.max((s - t).abs());
        scale = scale.max(s.abs()).max(t.abs());
    }
    gap / scale
}

#[test]
fn lanczos_and_dense_bound_eigens_agree_for_every_target() {
    // Every decomposition target's run, at the profitable shape: both
    // bounds of the pipeline's interval Gram take the Lanczos path under
    // default options, and its certified answer agrees with the dense
    // truncation to far better than the certified tolerance (both
    // canonicalize eigenvector signs identically).
    assert!(topk_profitable(COLS, RANK), "{COLS}x{COLS}, k={RANK}");
    let m = synthetic(7030, ROWS, COLS);
    for target in DecompositionTarget::all() {
        let mut session = Pipeline::new(&m, IsvdConfig::new(RANK).with_target(target)).unwrap();
        session.run_all().unwrap();
        let gram = session.interval_gram().unwrap();
        for (bound, a) in [("lo", gram.lo()), ("hi", gram.hi())] {
            let (lanczos, report) =
                sym_eigen_topk_report(a, RANK, &TopkOptions::default()).unwrap();
            assert!(
                !report.used_dense,
                "target {target}, {bound} bound: the dense solver answered ({report:?})"
            );
            // `k == n` short-circuits to the dense solve; keep its top k.
            let full = sym_eigen_topk_with(a, COLS, &TopkOptions::default()).unwrap();
            let dense = SymEigen {
                eigenvalues: full.eigenvalues[..RANK].to_vec(),
                eigenvectors: full.eigenvectors.take_cols(RANK),
            };
            let gap = max_relative_gap(&lanczos, &dense);
            assert!(
                gap <= 1e-7,
                "target {target}, {bound} bound: Lanczos-vs-dense relative gap {gap:e}"
            );
        }
    }
}

#[test]
fn every_solver_path_rejects_non_finite_input() {
    let mut rng = SmallRng::seed_from_u64(7050);
    let base = symmetric_matrix(&mut rng, 120, -2.0, 2.0);
    assert!(topk_profitable(120, 5) && !topk_profitable(120, 20));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = base.clone();
        a[(64, 3)] = bad;
        let paths = [
            (
                "default, profitable",
                sym_eigen_topk_with(&a, 5, &TopkOptions::default()),
            ),
            (
                "default, unprofitable",
                sym_eigen_topk_with(&a, 20, &TopkOptions::default()),
            ),
            ("forced", sym_eigen_topk_with(&a, 20, &forced())),
            ("sym_eigen_topk", sym_eigen_topk(&a, 5)),
        ];
        for (path, result) in paths {
            match result {
                Err(ivmf_linalg::LinalgError::InvalidArgument(msg)) => {
                    assert!(msg.contains("(64, 3)"), "{path}/{bad}: {msg}")
                }
                other => panic!("{path}/{bad}: not rejected: {other:?}"),
            }
        }
    }
}
