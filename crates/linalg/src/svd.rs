//! Singular value decomposition.
//!
//! The SVD is computed through the symmetric eigendecomposition of the
//! smaller Gram matrix:
//!
//! * if `cols <= rows`, we factorize `MᵀM = V Λ Vᵀ`, set `Σ = Λ^{1/2}` and
//!   recover `U = M V Σ⁻¹` column by column;
//! * otherwise we factorize `M Mᵀ` and recover `V` symmetrically.
//!
//! This mirrors exactly the eigen-decomposition route the paper itself uses
//! for ISVD2–ISVD4 (Section 4.3: "the columns of V are the eigenvectors of
//! MᵀM and the singular values are the square roots of its eigenvalues"),
//! keeps the implementation compact and reuses the heavily-tested
//! [`sym_eigen`] kernel. The trade-off is that
//! singular values below roughly `√ε · σ_max` are resolved less accurately
//! than a Golub–Kahan bidiagonalization would give; for the decomposition
//! *accuracy* experiments in the paper (relative errors well above 1e-6)
//! this is irrelevant.
//!
//! Columns corresponding to (numerically) zero singular values are filled
//! with zero vectors rather than an arbitrary orthonormal completion; all
//! consumers in this workspace either truncate to ranks below the numerical
//! rank or multiply by the corresponding zero singular value.

use crate::eigen_sym::sym_eigen;
use crate::eigen_topk::sym_eigen_topk;
use crate::{Dispatch, LinalgError, Matrix, Result};

/// Result of a singular value decomposition `M ≈ U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `rows x k` where `k = min(rows, cols)`.
    pub u: Matrix,
    /// Singular values in descending order, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `cols x k`.
    pub v: Matrix,
}

impl Svd {
    /// Number of retained singular triplets.
    pub fn k(&self) -> usize {
        self.singular_values.len()
    }

    /// Reconstructs `U Σ Vᵀ`.
    ///
    /// `U Σ` is formed by scaling the columns of `U` directly
    /// ([`Matrix::scale_cols`], `O(n·k)`) instead of materializing the
    /// diagonal matrix and paying an `O(n·k²)` product, and the trailing
    /// `· Vᵀ` runs transpose-free on [`Matrix::matmul_nt`].
    pub fn reconstruct(&self) -> Matrix {
        self.u
            .scale_cols(&self.singular_values)
            .and_then(|us| us.matmul_nt(&self.v))
            .expect("shapes are consistent by construction")
    }

    /// Truncates the decomposition to the leading `r` triplets.
    pub fn truncate(&self, r: usize) -> Svd {
        let r = r.min(self.k());
        Svd {
            u: self.u.take_cols(r),
            singular_values: self.singular_values[..r].to_vec(),
            v: self.v.take_cols(r),
        }
    }

    /// The numerical rank: the number of singular values larger than
    /// `tol * σ_max`.
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.singular_values.first().copied().unwrap_or(0.0);
        self.singular_values
            .iter()
            .filter(|&&s| s > tol * smax)
            .count()
    }
}

/// Computes the full (thin) SVD of `m`.
///
/// # Errors
///
/// * [`LinalgError::Empty`] for a zero-sized matrix.
/// * Propagates eigensolver convergence failures.
pub fn svd(m: &Matrix) -> Result<Svd> {
    if m.is_empty() {
        return Err(LinalgError::Empty);
    }
    let (n, c) = m.shape();
    if c <= n {
        // Eigen-decompose the c x c Gram matrix MᵀM.
        let eig = sym_eigen(&m.gram())?;
        let singular_values = singular_values_of_gram(&eig.eigenvalues);
        let v = eig.eigenvectors;
        let u = recover_other_factor(m, &v, &singular_values, Dispatch::for_shape(n, c, v.cols()))?;
        Ok(Svd {
            u,
            singular_values,
            v,
        })
    } else {
        // Eigen-decompose the n x n Gram matrix MMᵀ.
        let eig = sym_eigen(&m.outer_gram())?;
        let singular_values = singular_values_of_gram(&eig.eigenvalues);
        let u = eig.eigenvectors;
        let v = recover_other_factor(
            &m.transpose(),
            &u,
            &singular_values,
            Dispatch::for_shape(c, n, u.cols()),
        )?;
        Ok(Svd {
            u,
            singular_values,
            v,
        })
    }
}

/// Computes the rank-`r` truncated SVD of `m`.
///
/// `r` is clamped to `min(rows, cols)`; `r == 0` is rejected.
///
/// Unlike [`svd`], the truncated form never needs the trailing spectrum,
/// so the smaller Gram matrix goes through the certified top-k eigensolver
/// ([`sym_eigen_topk`]): the Gram's size picks the Lanczos or the dense
/// kernel, and every accepted eigenpair — hence every singular triplet —
/// is certified to the oracle tolerance
/// ([`crate::eigen_topk::DEFAULT_TOPK_TOL`]) with automatic fallback to
/// the dense solver. Right-factor column signs are canonicalized by that
/// path, so truncated decompositions from different kernels agree up to
/// the certified tolerance rather than up to sign.
pub fn svd_truncated(m: &Matrix, r: usize) -> Result<Svd> {
    if r == 0 {
        return Err(LinalgError::InvalidArgument(
            "target rank must be at least 1".to_string(),
        ));
    }
    if m.is_empty() {
        return Err(LinalgError::Empty);
    }
    let (n, c) = m.shape();
    let k = r.min(n.min(c));
    if c <= n {
        // Top-k of the c x c Gram matrix MᵀM gives V and Σ.
        let eig = sym_eigen_topk(&m.gram(), k)?;
        let singular_values = singular_values_of_gram(&eig.eigenvalues);
        let v = eig.eigenvectors;
        let u = recover_other_factor(m, &v, &singular_values, Dispatch::for_shape(n, c, v.cols()))?;
        Ok(Svd {
            u,
            singular_values,
            v,
        })
    } else {
        // Top-k of the n x n Gram matrix MMᵀ gives U and Σ.
        let eig = sym_eigen_topk(&m.outer_gram(), k)?;
        let singular_values = singular_values_of_gram(&eig.eigenvalues);
        let u = eig.eigenvectors;
        let v = recover_other_factor(
            &m.transpose(),
            &u,
            &singular_values,
            Dispatch::for_shape(c, n, u.cols()),
        )?;
        Ok(Svd {
            u,
            singular_values,
            v,
        })
    }
}

/// The singular values `σ = √max(λ, 0)` of a matrix whose Gram has the
/// eigenvalues `λ` (descending in, descending out).
pub(crate) fn singular_values_of_gram(eigenvalues: &[f64]) -> Vec<f64> {
    eigenvalues.iter().map(|&l| l.max(0.0).sqrt()).collect()
}

/// Given `m` (n x c) and the right factor `v` (c x k) together with the
/// singular values, recovers the left factor `u = M V Σ⁻¹`, using zero
/// columns where the singular value is numerically zero (at or below
/// `1e-13 · σ_max`).
///
/// `dispatch` is the kernel of the whole `M V` product: when `m` is a
/// block of rows of a larger matrix, passing that matrix's dispatch
/// recovers the matching rows of its left factor bit for bit (the
/// row-blocked pseudo-inverse, [`crate::pinv::TallPinv::columns`]).
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] when `m` and `v` do not chain.
pub(crate) fn recover_other_factor(
    m: &Matrix,
    v: &Matrix,
    singular_values: &[f64],
    dispatch: Dispatch,
) -> Result<Matrix> {
    let mut u = m.matmul_with(v, dispatch)?;
    let smax = singular_values.first().copied().unwrap_or(0.0);
    u.scale_cols_by_inverse(singular_values, smax * 1e-13)?;
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{low_rank_matrix, uniform_matrix};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_reconstruction(m: &Matrix, tol: f64) {
        let f = svd(m).unwrap();
        let rec = f.reconstruct();
        let denom = m.frobenius_norm().max(1.0);
        let err = m.sub(&rec).unwrap().frobenius_norm() / denom;
        assert!(
            err < tol,
            "reconstruction error {err} for shape {:?}",
            m.shape()
        );
    }

    fn check_orthonormal_leading(q: &Matrix, count: usize, tol: f64) {
        for a in 0..count {
            for b in 0..count {
                let dot = q.col_dot(a, b);
                let expected = if a == b { 1.0 } else { 0.0 };
                assert!(
                    (dot - expected).abs() < tol,
                    "column dot ({a},{b}) = {dot}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn svd_of_known_matrix() {
        // [[3,1],[1,3],[0,0]] has singular values 4 and 2.
        let m = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 3.0], vec![0.0, 0.0]]);
        let f = svd(&m).unwrap();
        assert!((f.singular_values[0] - 4.0).abs() < 1e-10);
        assert!((f.singular_values[1] - 2.0).abs() < 1e-10);
        check_reconstruction(&m, 1e-10);
    }

    #[test]
    fn svd_of_diagonal_matrix() {
        let m = Matrix::from_diag(&[5.0, 3.0, 1.0]);
        let f = svd(&m).unwrap();
        assert!((f.singular_values[0] - 5.0).abs() < 1e-10);
        assert!((f.singular_values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn svd_reconstructs_random_matrices_of_various_shapes() {
        let mut rng = SmallRng::seed_from_u64(21);
        for &(r, c) in &[
            (1usize, 1usize),
            (5, 3),
            (3, 5),
            (10, 10),
            (40, 25),
            (25, 40),
            (60, 7),
        ] {
            let m = uniform_matrix(&mut rng, r, c, -3.0, 3.0);
            check_reconstruction(&m, 1e-8);
        }
    }

    #[test]
    fn singular_vectors_are_orthonormal() {
        let mut rng = SmallRng::seed_from_u64(22);
        let m = uniform_matrix(&mut rng, 30, 12, -1.0, 1.0);
        let f = svd(&m).unwrap();
        check_orthonormal_leading(&f.u, f.rank(1e-10), 1e-8);
        check_orthonormal_leading(&f.v, f.rank(1e-10), 1e-8);
        // Wide matrix exercises the other code path.
        let m2 = uniform_matrix(&mut rng, 12, 30, -1.0, 1.0);
        let f2 = svd(&m2).unwrap();
        check_orthonormal_leading(&f2.u, f2.rank(1e-10), 1e-8);
        check_orthonormal_leading(&f2.v, f2.rank(1e-10), 1e-8);
    }

    #[test]
    fn singular_values_are_sorted_and_nonnegative() {
        let mut rng = SmallRng::seed_from_u64(23);
        let m = uniform_matrix(&mut rng, 20, 15, -2.0, 2.0);
        let f = svd(&m).unwrap();
        for w in f.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(f.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn truncated_svd_gives_best_low_rank_error_shape() {
        let mut rng = SmallRng::seed_from_u64(24);
        let m = low_rank_matrix(&mut rng, 20, 14, 4);
        // Rank-4 truncation reconstructs a rank-4 matrix (almost) exactly.
        let f = svd_truncated(&m, 4).unwrap();
        assert_eq!(f.k(), 4);
        let rec = f.reconstruct();
        let err = m.sub(&rec).unwrap().frobenius_norm() / m.frobenius_norm();
        assert!(err < 1e-6, "low-rank reconstruction error {err}");
        // Lower ranks must not reconstruct better than higher ranks.
        let e2 = m
            .sub(&svd_truncated(&m, 2).unwrap().reconstruct())
            .unwrap()
            .frobenius_norm();
        let e3 = m
            .sub(&svd_truncated(&m, 3).unwrap().reconstruct())
            .unwrap()
            .frobenius_norm();
        assert!(e2 >= e3 - 1e-9);
    }

    #[test]
    fn rank_detection() {
        let mut rng = SmallRng::seed_from_u64(25);
        let m = low_rank_matrix(&mut rng, 15, 15, 5);
        let f = svd(&m).unwrap();
        // Gram-based singular values resolve "zero" only down to ~√ε·σ_max,
        // so the rank tolerance must sit above that (documented trade-off).
        assert_eq!(f.rank(1e-6), 5);
    }

    #[test]
    fn zero_rank_request_is_rejected() {
        let m = Matrix::identity(3);
        assert!(svd_truncated(&m, 0).is_err());
        assert!(svd(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn rank_request_above_min_dimension_is_clamped() {
        let m = Matrix::identity(3);
        let f = svd_truncated(&m, 10).unwrap();
        assert_eq!(f.k(), 3);
    }

    #[test]
    fn svd_of_zero_matrix() {
        let m = Matrix::zeros(4, 3);
        let f = svd(&m).unwrap();
        assert!(f.singular_values.iter().all(|&s| s == 0.0));
        assert!(f.reconstruct().approx_eq(&m, 1e-15));
    }

    #[test]
    fn svd_matches_transpose_relationship() {
        let mut rng = SmallRng::seed_from_u64(26);
        let m = uniform_matrix(&mut rng, 9, 17, -1.0, 1.0);
        let f = svd(&m).unwrap();
        let ft = svd(&m.transpose()).unwrap();
        for (a, b) in f.singular_values.iter().zip(ft.singular_values.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn recover_other_factor_matches_column_oracle() {
        let mut rng = SmallRng::seed_from_u64(17);
        for (rows, k) in [(1usize, 1usize), (130, 1), (129, 7), (300, 20)] {
            let m = crate::random::edge_case_matrix(&mut rng, rows, 24);
            let v = uniform_matrix(&mut rng, 24, k, -1.0, 1.0);
            // Descending, with a negligible tail below 1e-13 of the first.
            let sigma: Vec<f64> = (0..k)
                .map(|j| {
                    if j + 1 == k && k > 1 {
                        1e-15
                    } else {
                        10.0 - j as f64
                    }
                })
                .collect();
            let whole = Dispatch::for_shape(rows, 24, k);
            let fast = recover_other_factor(&m, &v, &sigma, whole).unwrap();
            // The column-at-a-time Σ⁻¹ loop recover_other_factor replaced.
            let mut slow = m.matmul(&v).unwrap();
            let tol = sigma[0] * 1e-13;
            for (j, &s) in sigma.iter().enumerate() {
                if s > tol && s > 0.0 {
                    slow.scale_col(j, 1.0 / s);
                } else {
                    for i in 0..slow.rows() {
                        slow[(i, j)] = 0.0;
                    }
                }
            }
            let bits = |x: &Matrix| {
                x.as_slice()
                    .iter()
                    .map(|&v| crate::random::bit_pattern(v))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&fast), bits(&slow), "rows={rows} k={k}");
        }
    }
}
