//! Oracle-equivalence and degenerate-spectrum acceptance suite for the
//! certified top-k eigensolver (`ivmf_linalg::sym_eigen_topk`):
//!
//! * property tests over random symmetric and Gram matrices across sizes
//!   and `k` values assert the top-k eigenvalues match the full
//!   `sym_eigen` spectrum within tolerance, the eigenvectors are
//!   orthonormal, and every returned pair meets the certified residual
//!   bound `‖A v − λ v‖ ≤ tol·‖A‖_F`,
//! * degenerate spectra — repeated and clustered eigenvalues, the zero
//!   matrix, rank-deficient Grams with `k` past the rank, `k = n`,
//!   `k = 1` — are exercised explicitly,
//! * the fallback-to-full path demonstrably triggers on a starved basis,
//!   and with fallback disabled the typed `NoConvergence` error stays
//!   reachable,
//! * on the Grams the decomposition pipeline truncates, the default basis
//!   cap returns every answer a `4k + 32` cap certifies bitwise unchanged
//!   and certifies the ones that cap cannot without the dense solver,
//! * NaN and ±Inf entries are rejected up front on every path with a
//!   typed error naming their position.
//!
//! Everything here drives the solver through explicit [`TopkOptions`]
//! (never the `IVMF_TOPK_EIGEN` environment knob), so the suite asserts
//! the same behaviour under every CI environment pass.

use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_linalg::eigen_sym::{sym_eigen, SymEigen};
use ivmf_linalg::random::{symmetric_matrix, uniform_matrix};
use ivmf_linalg::{
    sym_eigen_topk_report, sym_eigen_topk_with, LinalgError, Matrix, TopkOptions, DEFAULT_TOPK_TOL,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn forced() -> TopkOptions {
    TopkOptions::default().with_force(true)
}

/// Per-pair residual certification, recomputed from scratch — the bound
/// the solver claims for every answer, whichever path produced it.
fn assert_certified(a: &Matrix, eig: &SymEigen, context: &str) {
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
    for i in 0..eig.eigenvalues.len() {
        let v = eig.eigenvectors.col(i);
        let av = a.matvec(&v).unwrap();
        let r: f64 = av
            .iter()
            .zip(v.iter())
            .map(|(&x, &y)| (x - eig.eigenvalues[i] * y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            r <= DEFAULT_TOPK_TOL * scale,
            "{context}: pair {i} residual {r} exceeds {DEFAULT_TOPK_TOL}·‖A‖_F"
        );
    }
}

fn assert_orthonormal(q: &Matrix, tol: f64, context: &str) {
    let qtq = q.gram();
    assert!(
        qtq.approx_eq(&Matrix::identity(q.cols()), tol),
        "{context}: eigenvector columns are not orthonormal"
    );
}

fn assert_matches_oracle(a: &Matrix, eig: &SymEigen, k: usize, context: &str) {
    let full = sym_eigen(a).unwrap();
    let scale = a.frobenius_norm().max(1.0);
    for i in 0..k {
        let diff = (eig.eigenvalues[i] - full.eigenvalues[i]).abs();
        assert!(
            diff <= 1e-6 * scale,
            "{context}: eigenvalue {i} off by {diff} ({} vs oracle {})",
            eig.eigenvalues[i],
            full.eigenvalues[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn topk_matches_full_spectrum_on_random_symmetric(
        seed in 0u64..10_000,
        n in 4usize..40,
        k_raw in 1usize..40,
    ) {
        let k = k_raw.min(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = symmetric_matrix(&mut rng, n, -2.0, 2.0);
        let (eig, report) = sym_eigen_topk_report(&a, k, &forced()).unwrap();
        prop_assert_eq!(eig.eigenvalues.len(), k);
        assert_matches_oracle(&a, &eig, k, "symmetric");
        assert_orthonormal(&eig.eigenvectors, 1e-8, "symmetric");
        assert_certified(&a, &eig, "symmetric");
        if !report.used_dense {
            // The reported residuals are the certificate the solver
            // actually checked: present for every pair and within bound.
            prop_assert_eq!(report.residuals.len(), k);
            let scale = a.frobenius_norm();
            prop_assert!(report
                .residuals
                .iter()
                .all(|&r| r <= DEFAULT_TOPK_TOL * scale));
        }
    }

    #[test]
    fn topk_matches_full_spectrum_on_random_grams(
        seed in 0u64..10_000,
        rows in 2usize..24,
        n in 4usize..36,
        k_raw in 1usize..36,
    ) {
        // Gram matrices of (often wide, hence rank-deficient) factors:
        // positive semi-definite with trailing zero eigenvalues.
        let k = k_raw.min(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = uniform_matrix(&mut rng, rows, n, -1.0, 1.0).gram();
        let (eig, _) = sym_eigen_topk_report(&g, k, &forced()).unwrap();
        assert_matches_oracle(&g, &eig, k, "gram");
        assert_orthonormal(&eig.eigenvectors, 1e-8, "gram");
        assert_certified(&g, &eig, "gram");
        // PSD input: clamped eigenvalues stay essentially non-negative.
        let scale = g.frobenius_norm().max(1.0);
        prop_assert!(eig.eigenvalues.iter().all(|&l| l >= -1e-7 * scale));
    }
}

#[test]
fn zero_matrix_yields_certified_null_spectrum() {
    let (eig, report) = sym_eigen_topk_report(&Matrix::zeros(12, 12), 5, &forced()).unwrap();
    assert_eq!(eig.eigenvalues, vec![0.0; 5]);
    assert!(report.residuals.iter().all(|&r| r == 0.0));
    assert_orthonormal(&eig.eigenvectors, 1e-14, "zero matrix");
}

#[test]
fn repeated_eigenvalues_are_recovered_copy_by_copy() {
    // c·I: one distinct eigenvalue, so the Krylov space breaks down after
    // a single step and every further copy comes from a deterministic
    // restart. All five returned eigenvalues must equal c.
    let a = Matrix::identity(50).scale(3.0);
    let (eig, report) = sym_eigen_topk_report(&a, 5, &forced()).unwrap();
    assert!(!report.used_dense, "forced path must iterate");
    for &l in &eig.eigenvalues {
        assert!((l - 3.0).abs() < 1e-10, "expected 3.0, got {l}");
    }
    assert_orthonormal(&eig.eigenvectors, 1e-10, "repeated");
    assert_certified(&a, &eig, "repeated");
}

#[test]
fn multiplicity_inside_a_small_distinct_spectrum_is_resolved() {
    // diag(5, 5, 5, 2, …, 2, 1): three distinct eigenvalues, so breakdown
    // and restart recover the multiplicities; top-4 must be [5, 5, 5, 2].
    let n = 100;
    let a = Matrix::from_diag(
        &(0..n)
            .map(|i| {
                if i < 3 {
                    5.0
                } else if i < n - 1 {
                    2.0
                } else {
                    1.0
                }
            })
            .collect::<Vec<_>>(),
    );
    let (eig, report) = sym_eigen_topk_report(&a, 4, &forced()).unwrap();
    assert!(!report.used_dense);
    assert_matches_oracle(&a, &eig, 4, "multiplicity");
    assert_certified(&a, &eig, "multiplicity");
}

#[test]
fn clustered_eigenvalues_converge_within_tolerance() {
    // A tight (1e-3-wide) cluster at the top of the spectrum.
    let n = 100;
    let a = Matrix::from_diag(
        &(0..n)
            .map(|i| match i {
                0 => 5.0,
                1 => 5.0 - 1e-3,
                2 => 5.0 - 2e-3,
                _ => 1.0 / (i as f64),
            })
            .collect::<Vec<_>>(),
    );
    let (eig, _) = sym_eigen_topk_report(&a, 3, &forced()).unwrap();
    assert_matches_oracle(&a, &eig, 3, "clustered");
    assert_orthonormal(&eig.eigenvectors, 1e-8, "clustered");
    assert_certified(&a, &eig, "clustered");
}

#[test]
fn rank_deficient_gram_with_k_past_rank_pads_with_null_pairs() {
    let mut rng = SmallRng::seed_from_u64(41);
    // 130-dim Gram of rank <= 4.
    let g = uniform_matrix(&mut rng, 4, 130, -1.0, 1.0).gram();
    let (eig, report) = sym_eigen_topk_report(&g, 10, &forced()).unwrap();
    assert!(!report.used_dense);
    assert_matches_oracle(&g, &eig, 10, "rank-deficient");
    assert_certified(&g, &eig, "rank-deficient");
    let scale = g.frobenius_norm();
    for i in 4..10 {
        assert!(
            eig.eigenvalues[i].abs() <= 1e-7 * scale,
            "pair {i} should be numerically null, got {}",
            eig.eigenvalues[i]
        );
    }
}

#[test]
fn k_equal_n_returns_the_full_oracle_spectrum() {
    let mut rng = SmallRng::seed_from_u64(42);
    let a = symmetric_matrix(&mut rng, 17, -2.0, 2.0);
    let (eig, report) = sym_eigen_topk_report(&a, 17, &forced()).unwrap();
    assert!(report.used_dense, "k == n has nothing to truncate");
    assert!(!report.used_fallback);
    assert_eq!(eig.eigenvalues, sym_eigen(&a).unwrap().eigenvalues);
}

#[test]
fn k_equal_one_finds_the_dominant_pair() {
    let mut rng = SmallRng::seed_from_u64(43);
    // A planted spike separates the dominant eigenvalue from the bulk, so
    // the k=1 iteration converges within its first convergence checks,
    // far below its n/2 basis cap; without separation the call would still
    // be correct but through a longer iteration or the fallback path,
    // which is covered elsewhere.
    let mut a = symmetric_matrix(&mut rng, 120, -2.0, 2.0);
    a[(0, 0)] += 80.0;
    let (eig, report) = sym_eigen_topk_report(&a, 1, &forced()).unwrap();
    assert!(!report.used_dense);
    assert_eq!(eig.eigenvalues.len(), 1);
    assert_matches_oracle(&a, &eig, 1, "k=1");
    assert_certified(&a, &eig, "k=1");
}

#[test]
fn starved_basis_triggers_fallback_to_the_full_solver() {
    let mut rng = SmallRng::seed_from_u64(44);
    let a = symmetric_matrix(&mut rng, 48, -2.0, 2.0);
    // A basis cap equal to k cannot certify a random spectrum.
    let opts = forced().with_max_basis(12);
    let (eig, report) = sym_eigen_topk_report(&a, 12, &opts).unwrap();
    assert!(report.used_fallback, "fallback must trigger");
    assert!(report.used_dense);
    assert!(report.residuals.is_empty());
    // The fallback runs the very same dense solve, so its eigenvalues are
    // bitwise equal to the truncated oracle's.
    assert_eq!(eig.eigenvalues, sym_eigen(&a).unwrap().eigenvalues[..12]);
    assert_certified(&a, &eig, "fallback");
}

#[test]
fn no_convergence_stays_reachable_and_typed_without_fallback() {
    let mut rng = SmallRng::seed_from_u64(44);
    let a = symmetric_matrix(&mut rng, 48, -2.0, 2.0);
    let opts = forced().with_max_basis(12).with_fallback(false);
    match sym_eigen_topk_with(&a, 12, &opts) {
        Err(LinalgError::NoConvergence {
            algorithm,
            iterations,
        }) => {
            assert_eq!(algorithm, "lanczos_topk");
            assert!(iterations > 0);
        }
        other => panic!("expected typed NoConvergence, got {other:?}"),
    }
}

#[test]
fn invalid_requests_are_rejected_with_typed_errors() {
    assert!(matches!(
        sym_eigen_topk_with(&Matrix::zeros(0, 0), 1, &TopkOptions::default()),
        Err(LinalgError::Empty)
    ));
    assert!(matches!(
        sym_eigen_topk_with(&Matrix::zeros(3, 4), 1, &TopkOptions::default()),
        Err(LinalgError::NotSquare { .. })
    ));
    assert!(matches!(
        sym_eigen_topk_with(&Matrix::identity(4), 0, &TopkOptions::default()),
        Err(LinalgError::InvalidArgument(_))
    ));
}

/// The `cols × cols` eigenproblems the decomposition pipeline truncates for
/// a uniform `rows × cols` interval matrix (the shapes of the workload
/// benchmark): the midpoint Gram, the Grams of both bound matrices and
/// both bounds of the interval Gram.
fn pipeline_grams(seed: u64, rows: usize, cols: usize) -> Vec<(&'static str, Matrix)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = generate_uniform(
        &SyntheticConfig::paper_default().with_shape(rows, cols),
        &mut rng,
    );
    let gram = m.interval_gram_fast().unwrap();
    vec![
        ("midpoint", m.mid().gram()),
        ("lower", m.lo().gram()),
        ("upper", m.hi().gram()),
        ("gram-lower", gram.lo().clone()),
        ("gram-upper", gram.hi().clone()),
    ]
}

/// `min(4k + 32, n)`: the basis size the `auto` dispatch is judged by and
/// at which the default cap always checks convergence.
fn anchor_basis(n: usize, k: usize) -> usize {
    (4 * k + 32).min(n)
}

#[test]
fn default_cap_returns_every_anchor_certified_answer_bitwise() {
    let (mut certified, mut rescued) = (0, 0);
    for (seed, rows, cols) in [(1000, 560, 256), (1003, 480, 250)] {
        for (name, a) in pipeline_grams(seed, rows, cols) {
            for k in [5, 10, 20] {
                let context = format!("{rows}x{cols} seed {seed} {name} k={k}");
                let (eig, report) = sym_eigen_topk_report(&a, k, &TopkOptions::default()).unwrap();
                assert!(!report.used_dense, "{context}: the dense solver ran");
                let short = TopkOptions::default()
                    .with_max_basis(anchor_basis(cols, k))
                    .with_fallback(false);
                match sym_eigen_topk_report(&a, k, &short) {
                    Ok((short_eig, short_report)) => {
                        certified += 1;
                        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&eig.eigenvalues),
                            bits(&short_eig.eigenvalues),
                            "{context}: eigenvalues"
                        );
                        assert_eq!(
                            bits(eig.eigenvectors.as_slice()),
                            bits(short_eig.eigenvectors.as_slice()),
                            "{context}: eigenvectors"
                        );
                        assert_eq!(report.basis_size, short_report.basis_size, "{context}");
                        assert_eq!(
                            bits(&report.residuals),
                            bits(&short_report.residuals),
                            "{context}: residuals"
                        );
                    }
                    Err(LinalgError::NoConvergence { .. }) => {
                        rescued += 1;
                        assert!(report.basis_size > anchor_basis(cols, k), "{context}");
                        assert_certified(&a, &eig, &context);
                    }
                    Err(e) => panic!("{context}: {e:?}"),
                }
            }
        }
    }
    // Both outcomes occur on these inputs, so both branches are exercised.
    assert!(
        certified > 0 && rescued > 0,
        "{certified} certified, {rescued} rescued"
    );
}

#[test]
fn a_gram_bound_needing_a_basis_of_120_certifies_without_fallback() {
    // The lower bound of a 560×256 interval Gram at the pipeline rank 20:
    // a 112-direction basis (4k + 32) cannot certify it, 120 can.
    let (_, a) = pipeline_grams(1001, 560, 256).swap_remove(3);
    let k = 20;
    let short = TopkOptions::default()
        .with_max_basis(anchor_basis(256, k))
        .with_fallback(false);
    assert!(matches!(
        sym_eigen_topk_with(&a, k, &short),
        Err(LinalgError::NoConvergence { .. })
    ));
    let (eig, report) = sym_eigen_topk_report(&a, k, &TopkOptions::default()).unwrap();
    assert!(!report.used_fallback && !report.used_dense);
    assert_eq!(report.basis_size, 120);
    assert_matches_oracle(&a, &eig, k, "basis 120");
    assert_certified(&a, &eig, "basis 120");
}

#[test]
fn non_finite_entries_are_rejected_with_their_position() {
    let mut rng = SmallRng::seed_from_u64(45);
    let base = symmetric_matrix(&mut rng, 120, -2.0, 2.0);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = base.clone();
        // Row-major order reaches (5, 37) first; the later entries must
        // not be the one reported.
        a[(37, 5)] = bad;
        a[(5, 37)] = bad;
        a[(90, 2)] = bad;
        let rejected = |result: Result<SymEigen, LinalgError>, context: &str| match result {
            Err(LinalgError::InvalidArgument(msg)) => assert!(
                msg.contains("(5, 37)"),
                "{context}: {bad} reported at the wrong place: {msg}"
            ),
            other => panic!("{context}: {bad} not rejected: {other:?}"),
        };
        for fallback in [true, false] {
            let auto = TopkOptions::default().with_fallback(fallback);
            let forced = forced().with_fallback(fallback);
            rejected(sym_eigen_topk_with(&a, 20, &auto), "auto");
            rejected(sym_eigen_topk_with(&a, 20, &forced), "forced");
            // Paths that skip the iteration: k == n, and an n below the
            // auto dispatch threshold.
            rejected(sym_eigen_topk_with(&a, 120, &forced), "k == n");
            let small = Matrix::from_fn(60, 60, |i, j| a[(i, j)]);
            rejected(sym_eigen_topk_with(&small, 4, &auto), "small auto");
        }
        rejected(sym_eigen(&a), "sym_eigen");
    }
}
