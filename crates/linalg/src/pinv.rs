//! Moore–Penrose pseudo-inverse.
//!
//! Section 4.4.2.2 of the paper: when the averaged factor matrix `V_avg`
//! is ill-conditioned (or rectangular), ISVD3/ISVD4 fall back to the
//! pseudo-inverse computed through the SVD, zeroing singular values below a
//! threshold. The paper uses an absolute threshold of `0.1`; this module
//! exposes the threshold as a parameter and provides that value as
//! [`PAPER_SINGULAR_VALUE_CUTOFF`].
//!
//! The pseudo-inverse of a tall `n × r` matrix `A` (`r ≤ n`, the shape of
//! every averaged factor) splits into an `r × r` state and a row-block
//! step, so a caller can build `A⁺` a column block at a time without ever
//! holding `A`, its SVD left factor or `A⁺` whole:
//!
//! * [`PinvGram`] folds the Gram `AᵀA` from row blocks of `A`, and
//!   [`PinvGram::finish`] eigen-decomposes it into a [`TallPinv`]: the
//!   eigenvectors `V`, the singular values `σ` and `W = V·diag(σ⁺)`;
//! * [`TallPinv::columns`] turns any block of rows `A[b, :]` into the
//!   matching columns `A⁺[:, b] = W · (A[b, :]·V·Σ⁻¹)ᵀ`.
//!
//! Every product runs the kernel the whole `n`-row product would run
//! ([`Dispatch`]), so the columns are bitwise those of [`pinv`], which is
//! itself the step run over all rows.

use crate::eigen_sym::sym_eigen;
use crate::kernel::{mirror_upper, KC};
use crate::svd::{recover_other_factor, singular_values_of_gram, svd};
use crate::{Dispatch, LinalgError, Matrix, Result};

/// The absolute singular-value cutoff used by the paper when computing the
/// pseudo-inverse of factor matrices ("replace singular values smaller than
/// 0.1 with zero", Section 4.4.2.2).
pub const PAPER_SINGULAR_VALUE_CUTOFF: f64 = 0.1;

/// Row alignment of the blocks [`PinvGram::push`] accepts: every block
/// but the last holds a multiple of this many rows (the packed kernel's
/// K-block depth, so the Gram folds in the same K-blocks as one shot).
pub const PINV_ROW_ALIGN: usize = KC;

/// Computes the Moore–Penrose pseudo-inverse `A⁺` of `a`.
///
/// Singular values `σ ≤ cutoff` are treated as zero (their reciprocal is not
/// taken). Pass `0.0` to keep every strictly positive singular value, or
/// [`PAPER_SINGULAR_VALUE_CUTOFF`] to match the paper's behaviour exactly.
///
/// A tall or square `a` runs [`PinvGram`] and [`TallPinv::columns`] over
/// all of its rows; a wide one goes through the SVD of its smaller
/// `A Aᵀ` Gram.
///
/// # Errors
///
/// Propagates SVD failures (empty input, non-convergence).
pub fn pinv(a: &Matrix, cutoff: f64) -> Result<Matrix> {
    let (n, r) = a.shape();
    if r <= n {
        let mut gram = PinvGram::new(n, r)?;
        gram.push(a)?;
        return gram.finish(cutoff)?.columns(a);
    }
    let f = svd(a)?;
    // A⁺ = V Σ⁺ Uᵀ: V Σ⁺ is a column scaling and the trailing Uᵀ product
    // runs transpose-free.
    f.v.scale_cols(&reciprocals(&f.singular_values, cutoff))?
        .matmul_nt(&f.u)
}

/// `σ⁺`: the reciprocal of every singular value above both `cutoff` and a
/// relative floor, zero otherwise. The floor applies even when the caller
/// requests `cutoff = 0`: the Gram-based SVD resolves zero singular values
/// only down to ~√ε·σ_max, so it must sit above that level.
fn reciprocals(sigma: &[f64], cutoff: f64) -> Vec<f64> {
    let relative_floor = sigma.first().copied().unwrap_or(0.0) * 1e-7;
    sigma
        .iter()
        .map(|&s| {
            if s > cutoff && s > relative_floor {
                1.0 / s
            } else {
                0.0
            }
        })
        .collect()
}

/// The Gram `AᵀA` of a tall `n × r` matrix `A`, folded from row blocks in
/// order: the first half of a row-blocked [`pinv`].
#[derive(Debug, Clone)]
pub struct PinvGram {
    rows: usize,
    seen: usize,
    /// Upper triangle of the Gram so far; mirrored in `finish`.
    gram: Matrix,
    dispatch: Dispatch,
}

impl PinvGram {
    /// Starts the fold for an `rows × cols` matrix with `cols ≤ rows`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Empty`] for a zero-sized shape,
    /// [`LinalgError::InvalidArgument`] for a wide one (`cols > rows`).
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        if cols > rows {
            return Err(LinalgError::InvalidArgument(format!(
                "row-blocked pseudo-inverse needs a tall matrix, got {rows} x {cols}"
            )));
        }
        Ok(PinvGram {
            rows,
            seen: 0,
            gram: Matrix::zeros(cols, cols),
            dispatch: Dispatch::for_gram(rows, cols),
        })
    }

    /// Folds the next block of rows. Every block but the last must hold a
    /// multiple of [`PINV_ROW_ALIGN`] rows.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] for a block of the wrong width,
    /// a block after an unaligned one, or more rows than declared.
    pub fn push(&mut self, block: &Matrix) -> Result<()> {
        let r = self.gram.cols();
        if block.cols() != r {
            return Err(LinalgError::DimensionMismatch {
                op: "pinv_gram",
                lhs: (self.rows, r),
                rhs: block.shape(),
            });
        }
        if self.seen % PINV_ROW_ALIGN != 0 || self.seen + block.rows() > self.rows {
            return Err(LinalgError::InvalidArgument(format!(
                "pinv Gram block of {} rows after {} of {} rows: blocks must be \
                 {PINV_ROW_ALIGN}-row aligned and within the declared rows",
                block.rows(),
                self.seen,
                self.rows
            )));
        }
        let dispatch = self.dispatch.for_block(block.rows() * r * r / 2);
        block.gram_upper_into(&mut self.gram, dispatch);
        self.seen += block.rows();
        Ok(())
    }

    /// Eigen-decomposes the folded Gram into the `r × r` state of the
    /// pseudo-inverse, with singular values `σ ≤ cutoff` treated as zero
    /// (as in [`pinv`]).
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] when fewer rows than declared were
    /// pushed; propagates eigensolver failures.
    pub fn finish(self, cutoff: f64) -> Result<TallPinv> {
        if self.seen != self.rows {
            return Err(LinalgError::InvalidArgument(format!(
                "pinv Gram folded {} of its declared {} rows",
                self.seen, self.rows
            )));
        }
        let mut gram = self.gram;
        mirror_upper(&mut gram);
        let eig = sym_eigen(&gram)?;
        let sigma = singular_values_of_gram(&eig.eigenvalues);
        let w = eig.eigenvectors.scale_cols(&reciprocals(&sigma, cutoff))?;
        let (n, r) = (self.rows, gram.cols());
        Ok(TallPinv {
            v: eig.eigenvectors,
            sigma,
            w,
            left: Dispatch::for_shape(n, r, r),
            right: Dispatch::for_shape(r, r, n),
        })
    }
}

/// The `r × r` state of the pseudo-inverse of a tall `n × r` matrix `A`:
/// what [`TallPinv::columns`] needs to turn any block of rows of `A` into
/// the matching columns of `A⁺`.
#[derive(Debug, Clone)]
pub struct TallPinv {
    /// Eigenvectors of `AᵀA`: the right singular vectors `V`.
    v: Matrix,
    /// Singular values, descending.
    sigma: Vec<f64>,
    /// `V·diag(σ⁺)`.
    w: Matrix,
    /// Dispatch of the whole `A·V` product.
    left: Dispatch,
    /// Dispatch of the whole `W·Uᵀ` product.
    right: Dispatch,
}

impl TallPinv {
    /// Columns `b` of `A⁺` (`r × |b|`) from rows `b` of `A` (`|b| × r`):
    /// the SVD's left factor for those rows, `U[b, :] = A[b, :]·V·Σ⁻¹`,
    /// then `W·U[b, :]ᵀ`. Bitwise the matching columns of [`pinv`] for any
    /// block of rows, since each entry only reduces over `r`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `rows` is not `r` wide.
    pub fn columns(&self, rows: &Matrix) -> Result<Matrix> {
        let work = rows.rows() * self.w.rows() * self.w.cols();
        let u = recover_other_factor(rows, &self.v, &self.sigma, self.left.for_block(work))?;
        self.w.matmul_nt_with(&u, self.right.for_block(work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::invert;
    use crate::random::{
        assert_same_outcome, dispatch_boundary_rows, factor_edge_cases, low_rank_matrix,
        uniform_matrix,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The pseudo-inverse as computed before the row-blocked split: the
    /// full thin SVD (with its `n × r` left factor), then `V·Σ⁺·Uᵀ`. The
    /// oracle of the bitwise tests.
    fn svd_route_pinv(a: &Matrix, cutoff: f64) -> Result<Matrix> {
        let f = svd(a)?;
        let smax = f.singular_values.first().copied().unwrap_or(0.0);
        let relative_floor = smax * 1e-7;
        let inv_sigma: Vec<f64> = f
            .singular_values
            .iter()
            .map(|&s| {
                if s > cutoff && s > relative_floor {
                    1.0 / s
                } else {
                    0.0
                }
            })
            .collect();
        f.v.scale_cols(&inv_sigma)?.matmul_nt(&f.u)
    }

    /// [`pinv`] through [`PinvGram`] folded in `gram_rows`-row blocks and
    /// [`TallPinv::columns`] over `step_rows`-row blocks, assembled.
    fn blocked_pinv(a: &Matrix, cutoff: f64, gram_rows: usize, step_rows: usize) -> Result<Matrix> {
        let (n, r) = a.shape();
        let rows = |s: usize, e: usize| {
            Matrix::from_vec(e - s, r, a.as_slice()[s * r..e * r].to_vec()).unwrap()
        };
        let mut gram = PinvGram::new(n, r)?;
        for s in (0..n).step_by(gram_rows) {
            gram.push(&rows(s, (s + gram_rows).min(n)))?;
        }
        let state = gram.finish(cutoff)?;
        let mut out = Matrix::zeros(r, n);
        for s in (0..n).step_by(step_rows) {
            let e = (s + step_rows).min(n);
            let cols = state.columns(&rows(s, e))?;
            for i in 0..r {
                out.row_mut(i)[s..e].copy_from_slice(cols.row(i));
            }
        }
        Ok(out)
    }

    #[test]
    fn row_blocked_pinv_matches_the_svd_route_bitwise() {
        let mut rng = SmallRng::seed_from_u64(54);
        for threads in [1, 2] {
            crate::test_env::with_threads(threads, || {
                for r in [1usize, 7, 20] {
                    // 845 spans three K-blocks and is no multiple of one.
                    for n in dispatch_boundary_rows(r).into_iter().chain([845]) {
                        if threads != 1 && n * r * r < crate::MATMUL_PAR_MIN_WORK {
                            continue; // smaller products never split across workers
                        }
                        for (kind, a) in factor_edge_cases(&mut rng, n, r) {
                            let cutoffs: &[f64] = if kind == "rank-deficient" {
                                &[0.0, PAPER_SINGULAR_VALUE_CUTOFF]
                            } else {
                                &[PAPER_SINGULAR_VALUE_CUTOFF]
                            };
                            for &cutoff in cutoffs {
                                let context =
                                    format!("{kind} {n}x{r} cutoff {cutoff} threads {threads}");
                                let want = svd_route_pinv(&a, cutoff);
                                assert_same_outcome(&want, &pinv(&a, cutoff), &context);
                                for (g, s) in [(PINV_ROW_ALIGN, 128), (3 * PINV_ROW_ALIGN, 1000)] {
                                    let got = blocked_pinv(&a, cutoff, g, s);
                                    assert_same_outcome(
                                        &want,
                                        &got,
                                        &format!("{context} blocks {g}/{s}"),
                                    );
                                }
                            }
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn pinv_gram_rejects_misaligned_and_miscounted_blocks() {
        let a = Matrix::zeros(600, 3);
        assert!(matches!(PinvGram::new(0, 3), Err(LinalgError::Empty)));
        assert!(
            PinvGram::new(2, 3).is_err(),
            "wide shapes have no tall state"
        );
        let mut gram = PinvGram::new(600, 3).unwrap();
        assert!(gram.push(&Matrix::zeros(4, 2)).is_err(), "wrong width");
        gram.push(&a.take_rows(100)).unwrap();
        assert!(
            gram.push(&a.take_rows(100)).is_err(),
            "after an unaligned block"
        );
        let mut gram = PinvGram::new(600, 3).unwrap();
        gram.push(&a.take_rows(PINV_ROW_ALIGN)).unwrap();
        assert!(gram.push(&a).is_err(), "more rows than declared");
        assert!(gram.finish(0.0).is_err(), "fewer rows than declared");
    }

    #[test]
    fn pinv_of_invertible_matrix_matches_inverse() {
        let mut rng = SmallRng::seed_from_u64(51);
        let a = uniform_matrix(&mut rng, 6, 6, -1.0, 1.0)
            .add(&Matrix::identity(6).scale(4.0))
            .unwrap();
        let p = pinv(&a, 0.0).unwrap();
        let inv = invert(&a).unwrap();
        assert!(p.approx_eq(&inv, 1e-8));
    }

    #[test]
    fn pinv_satisfies_penrose_conditions_for_rank_deficient_matrix() {
        let mut rng = SmallRng::seed_from_u64(52);
        let a = low_rank_matrix(&mut rng, 10, 7, 3);
        let p = pinv(&a, 0.0).unwrap();
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        let pap = p.matmul(&a).unwrap().matmul(&p).unwrap();
        assert!(apa.approx_eq(&a, 1e-6), "A P A != A");
        assert!(pap.approx_eq(&p, 1e-6), "P A P != P");
        // A P and P A are symmetric.
        let ap = a.matmul(&p).unwrap();
        assert!(ap.approx_eq(&ap.transpose(), 1e-6));
        let pa = p.matmul(&a).unwrap();
        assert!(pa.approx_eq(&pa.transpose(), 1e-6));
    }

    #[test]
    fn pinv_of_rectangular_matrix_is_left_inverse_when_full_column_rank() {
        let mut rng = SmallRng::seed_from_u64(53);
        let a = uniform_matrix(&mut rng, 12, 4, -1.0, 1.0);
        let p = pinv(&a, 0.0).unwrap();
        assert_eq!(p.shape(), (4, 12));
        assert!(p.matmul(&a).unwrap().approx_eq(&Matrix::identity(4), 1e-8));
    }

    #[test]
    fn cutoff_zeroes_small_singular_values() {
        // diag(10, 0.01): with the paper cutoff (0.1) the second direction
        // is discarded entirely.
        let a = Matrix::from_diag(&[10.0, 0.01]);
        let p = pinv(&a, PAPER_SINGULAR_VALUE_CUTOFF).unwrap();
        assert!((p[(0, 0)] - 0.1).abs() < 1e-12);
        assert!(p[(1, 1)].abs() < 1e-12);
        // Without the cutoff it is a proper inverse.
        let p_full = pinv(&a, 0.0).unwrap();
        assert!((p_full[(1, 1)] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pinv_of_zero_matrix_is_zero() {
        let a = Matrix::zeros(3, 5);
        let p = pinv(&a, 0.0).unwrap();
        assert_eq!(p.shape(), (5, 3));
        assert!(p.frobenius_norm() < 1e-15);
    }
}
