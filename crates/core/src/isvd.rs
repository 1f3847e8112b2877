//! Unified interval-SVD driver: configuration, dispatch and shared helpers.
//!
//! The five decomposition strategies of the paper (Figure 4) are implemented
//! in their own modules ([`crate::isvd0`] … [`crate::isvd4`]); this module
//! provides the [`IsvdConfig`] they all consume, the [`IsvdAlgorithm`]
//! selector, the [`isvd`] dispatch function and the shared numerical
//! helpers (bound eigendecomposition, left-factor recovery).

use serde::{Deserialize, Serialize};

use ivmf_align::Matcher;
use ivmf_interval::IntervalMatrix;
use ivmf_linalg::cond::{is_well_conditioned, DEFAULT_CONDITION_THRESHOLD};
use ivmf_linalg::eigen_topk::sym_eigen_topk;
use ivmf_linalg::lu::invert;
use ivmf_linalg::pinv::{pinv, PAPER_SINGULAR_VALUE_CUTOFF};
use ivmf_linalg::Matrix;

use crate::target::{DecompositionTarget, IntervalSvd};
use crate::timing::StageTimings;
use crate::{IvmfError, Result};

/// Which ISVD strategy to run (Section 4 / Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IsvdAlgorithm {
    /// ISVD0 — average the intervals and run a plain SVD (Section 4.1).
    Isvd0,
    /// ISVD1 — decompose the bound matrices independently, then align
    /// (Section 4.2).
    Isvd1,
    /// ISVD2 — eigendecompose the interval Gram matrix, solve for the left
    /// factors, then align (Section 4.3).
    Isvd2,
    /// ISVD3 — eigendecompose, align, then solve for the left factor with
    /// interval matrix algebra (Section 4.4).
    Isvd3,
    /// ISVD4 — ISVD3 plus a recomputation of the right factor that tightens
    /// its intervals (Section 4.5).
    Isvd4,
}

impl IsvdAlgorithm {
    /// All algorithms in paper order.
    pub fn all() -> [IsvdAlgorithm; 5] {
        [
            IsvdAlgorithm::Isvd0,
            IsvdAlgorithm::Isvd1,
            IsvdAlgorithm::Isvd2,
            IsvdAlgorithm::Isvd3,
            IsvdAlgorithm::Isvd4,
        ]
    }

    /// The paper's display name ("ISVD0" … "ISVD4").
    pub fn name(&self) -> &'static str {
        match self {
            IsvdAlgorithm::Isvd0 => "ISVD0",
            IsvdAlgorithm::Isvd1 => "ISVD1",
            IsvdAlgorithm::Isvd2 => "ISVD2",
            IsvdAlgorithm::Isvd3 => "ISVD3",
            IsvdAlgorithm::Isvd4 => "ISVD4",
        }
    }
}

impl std::fmt::Display for IsvdAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration shared by every ISVD strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsvdConfig {
    /// Target rank `r` (must satisfy `1 <= r <= min(n, m)`).
    pub rank: usize,
    /// Which decomposition strategy to run.
    pub algorithm: IsvdAlgorithm,
    /// Which application semantics (Section 3.4) the output should satisfy.
    pub target: DecompositionTarget,
    /// Assignment algorithm used by ILSA.
    pub matcher: Matcher,
    /// Condition-number threshold above which ISVD3/ISVD4 switch from a
    /// direct inverse of the averaged factor to a pseudo-inverse.
    pub condition_threshold: f64,
    /// Singular-value cutoff used for the pseudo-inverse fallback
    /// (the paper uses `0.1`).
    pub pinv_cutoff: f64,
}

impl IsvdConfig {
    /// A configuration with the paper's defaults: ISVD4, option b, optimal
    /// (Hungarian) alignment.
    pub fn new(rank: usize) -> Self {
        IsvdConfig {
            rank,
            algorithm: IsvdAlgorithm::Isvd4,
            target: DecompositionTarget::IntervalCore,
            matcher: Matcher::Hungarian,
            condition_threshold: DEFAULT_CONDITION_THRESHOLD,
            pinv_cutoff: PAPER_SINGULAR_VALUE_CUTOFF,
        }
    }

    /// Sets the decomposition strategy.
    pub fn with_algorithm(mut self, algorithm: IsvdAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the decomposition target (option a / b / c).
    pub fn with_target(mut self, target: DecompositionTarget) -> Self {
        self.target = target;
        self
    }

    /// Sets the ILSA matcher.
    pub fn with_matcher(mut self, matcher: Matcher) -> Self {
        self.matcher = matcher;
        self
    }

    /// Sets the condition threshold for direct inversion.
    pub fn with_condition_threshold(mut self, threshold: f64) -> Self {
        self.condition_threshold = threshold;
        self
    }

    /// Sets the pseudo-inverse singular value cutoff.
    pub fn with_pinv_cutoff(mut self, cutoff: f64) -> Self {
        self.pinv_cutoff = cutoff;
        self
    }

    /// Validates the configuration against an input shape.
    pub fn validate(&self, shape: (usize, usize)) -> Result<()> {
        let (n, m) = shape;
        if n == 0 || m == 0 {
            return Err(IvmfError::InvalidInput(
                "input matrix must be non-empty".to_string(),
            ));
        }
        if self.rank == 0 {
            return Err(IvmfError::InvalidConfig(
                "rank must be at least 1".to_string(),
            ));
        }
        if self.rank > n.min(m) {
            return Err(IvmfError::InvalidConfig(format!(
                "rank {} exceeds min(n, m) = {}",
                self.rank,
                n.min(m)
            )));
        }
        if self.condition_threshold <= 0.0 {
            return Err(IvmfError::InvalidConfig(
                "condition threshold must be positive".to_string(),
            ));
        }
        if self.pinv_cutoff < 0.0 {
            return Err(IvmfError::InvalidConfig(
                "pseudo-inverse cutoff must be non-negative".to_string(),
            ));
        }
        Ok(())
    }
}

/// Output of an ISVD run: the assembled factorization plus per-stage
/// wall-clock timings and the executed stage trace.
#[derive(Debug, Clone)]
pub struct IsvdResult {
    /// The factorization, assembled for the configured target.
    pub factors: IntervalSvd,
    /// Wall-clock breakdown by pipeline stage (Figure 6b), including the
    /// run's stage-cache hit/miss accounting.
    pub timings: StageTimings,
    /// The memoizable pipeline stages this run touched, in execution order,
    /// each flagged with whether it was served from the
    /// [`StageCache`](crate::pipeline::StageCache).
    pub stages: Vec<crate::pipeline::StageEvent>,
}

/// Runs the configured ISVD strategy on an interval-valued matrix.
///
/// This is the main entry point of the crate; it validates the
/// configuration and executes the strategy's [`DecompPlan`] through a fresh
/// (single-run) [`Pipeline`] — to evaluate several algorithms on one matrix
/// with the expensive common stages shared, use
/// [`crate::pipeline::run_all`] instead.
///
/// [`DecompPlan`]: crate::pipeline::DecompPlan
/// [`Pipeline`]: crate::pipeline::Pipeline
pub fn isvd(m: &IntervalMatrix, config: &IsvdConfig) -> Result<IsvdResult> {
    crate::pipeline::run_single(m, config, config.algorithm)
}

// ---------------------------------------------------------------------------
// Shared helpers used by ISVD2/3/4.
// ---------------------------------------------------------------------------

/// The truncated eigendecomposition of one bound of the interval Gram
/// matrix: the top-`r` eigenvectors and the square roots of the (clamped)
/// eigenvalues.
pub(crate) struct BoundEigen {
    /// `m x r` eigenvector matrix.
    pub v: Matrix,
    /// Length-`r` vector of singular values (`sqrt(max(λ, 0))`).
    pub sigma: Vec<f64>,
}

/// Eigendecomposes a bound of the (symmetric) Gram matrix and keeps the
/// top-`r` eigenpairs, converting eigenvalues to singular values.
///
/// Only the leading `r` pairs are ever consumed, so this routes through
/// the certified top-k eigensolver ([`sym_eigen_topk`]): `IVMF_TOPK_EIGEN`
/// selects the kernel (`auto`/`full`/`forced`) and every accepted pair is
/// certified to the oracle residual tolerance with automatic fallback to
/// the full `tred2`/`tql2` solve — which is why the pipeline's stage-cache
/// keys may ignore the kernel choice (see `pipeline::stage_fingerprint`).
pub(crate) fn bound_eigen(gram_bound: &Matrix, r: usize) -> Result<BoundEigen> {
    let eig = sym_eigen_topk(gram_bound, r)?;
    let sigma = eig.eigenvalues.iter().map(|&l| l.max(0.0).sqrt()).collect();
    Ok(BoundEigen {
        v: eig.eigenvectors,
        sigma,
    })
}

/// Recovers a left factor `U = M V Σ⁻¹`, zeroing columns whose singular
/// value is numerically negligible.
///
/// For eigenvector matrices `V` with orthonormal columns this is exactly the
/// paper's `U = M (Vᵀ)⁻¹ Σ⁻¹` (the pseudo-inverse of `Vᵀ` *is* `V`).
/// Outside of tests the pipeline streams the `M V` product shard by shard
/// instead of calling this one-shot form; it stays as the reference
/// implementation the unit tests check the SVD relationship against.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn recover_left_factor(m_bound: &Matrix, v: &Matrix, sigma: &[f64]) -> Result<Matrix> {
    let mut u = m_bound.matmul(v)?;
    scale_left_factor(&mut u, sigma);
    Ok(u)
}

/// The `Σ⁻¹` column scaling of [`recover_left_factor`], split out so the
/// pipeline's row-streamed recovery (which computes the `M V` product
/// shard by shard) can apply the identical entry-wise scaling.
pub(crate) fn scale_left_factor(u: &mut Matrix, sigma: &[f64]) {
    let smax = sigma.iter().cloned().fold(0.0_f64, f64::max);
    u.scale_cols_by_inverse(sigma, smax * 1e-12)
        .expect("one singular value per factor column");
}

/// Inverts (or pseudo-inverts) the transposed averaged factor, following the
/// paper's rule: use the direct inverse when the matrix is square and
/// well-conditioned, otherwise the Moore–Penrose pseudo-inverse with the
/// configured singular-value cutoff.
///
/// Given `factor` of shape `p x r`, returns a `p x r` matrix approximating
/// `(factorᵀ)⁻¹` (equal to `factor (factorᵀ factor)⁻¹` in the full-rank
/// rectangular case).
pub(crate) fn invert_factor_transpose(factor: &Matrix, config: &IsvdConfig) -> Result<Matrix> {
    let transposed = factor.transpose();
    if factor.is_square() && is_well_conditioned(factor, config.condition_threshold) {
        Ok(invert(&transposed)?)
    } else {
        Ok(pinv(&transposed, config.pinv_cutoff)?)
    }
}

/// Inverts (or pseudo-inverts) the averaged factor itself: given `factor` of
/// shape `p x r`, returns an `r x p` matrix approximating `factor⁻¹`.
///
/// The one-shot reference for the right tightening, which builds
/// `Σ⁻¹ · factor⁻¹` in row blocks of `factor` instead
/// (`pipeline::stream_right_tighten`); the tests compare the two bit for
/// bit.
#[cfg(test)]
pub(crate) fn invert_factor(factor: &Matrix, config: &IsvdConfig) -> Result<Matrix> {
    if factor.is_square() && is_well_conditioned(factor, config.condition_threshold) {
        Ok(invert(factor)?)
    } else {
        Ok(pinv(factor, config.pinv_cutoff)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivmf_linalg::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn config_builder_and_defaults() {
        let c = IsvdConfig::new(5);
        assert_eq!(c.rank, 5);
        assert_eq!(c.algorithm, IsvdAlgorithm::Isvd4);
        assert_eq!(c.target, DecompositionTarget::IntervalCore);
        let c = c
            .with_algorithm(IsvdAlgorithm::Isvd1)
            .with_target(DecompositionTarget::Scalar)
            .with_matcher(Matcher::Greedy)
            .with_condition_threshold(50.0)
            .with_pinv_cutoff(0.0);
        assert_eq!(c.algorithm, IsvdAlgorithm::Isvd1);
        assert_eq!(c.target, DecompositionTarget::Scalar);
        assert_eq!(c.matcher, Matcher::Greedy);
        assert_eq!(c.condition_threshold, 50.0);
        assert_eq!(c.pinv_cutoff, 0.0);
    }

    #[test]
    fn config_validation() {
        let shape = (10, 6);
        assert!(IsvdConfig::new(0).validate(shape).is_err());
        assert!(IsvdConfig::new(7).validate(shape).is_err());
        assert!(IsvdConfig::new(6).validate(shape).is_ok());
        assert!(IsvdConfig::new(3).validate((0, 5)).is_err());
        assert!(IsvdConfig::new(3)
            .with_condition_threshold(0.0)
            .validate(shape)
            .is_err());
        assert!(IsvdConfig::new(3)
            .with_pinv_cutoff(-1.0)
            .validate(shape)
            .is_err());
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(IsvdAlgorithm::all().len(), 5);
        assert_eq!(IsvdAlgorithm::Isvd3.name(), "ISVD3");
        assert_eq!(format!("{}", IsvdAlgorithm::Isvd0), "ISVD0");
    }

    #[test]
    fn bound_eigen_produces_orthonormal_truncated_factor() {
        let mut rng = SmallRng::seed_from_u64(91);
        let m = uniform_matrix(&mut rng, 12, 8, -1.0, 1.0);
        let be = bound_eigen(&m.gram(), 4).unwrap();
        assert_eq!(be.v.shape(), (8, 4));
        assert_eq!(be.sigma.len(), 4);
        // Orthonormal columns, singular values descending.
        for a in 0..4 {
            for b in 0..4 {
                let expected = if a == b { 1.0 } else { 0.0 };
                assert!((be.v.col_dot(a, b) - expected).abs() < 1e-8);
            }
        }
        for w in be.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn recover_left_factor_matches_svd_relationship() {
        let mut rng = SmallRng::seed_from_u64(92);
        let m = uniform_matrix(&mut rng, 10, 6, -1.0, 1.0);
        let be = bound_eigen(&m.gram(), 6).unwrap();
        let u = recover_left_factor(&m, &be.v, &be.sigma).unwrap();
        // U Σ Vᵀ reconstructs M.
        let rec = u
            .matmul(&Matrix::from_diag(&be.sigma))
            .unwrap()
            .matmul(&be.v.transpose())
            .unwrap();
        assert!(rec.approx_eq(&m, 1e-8));
    }

    #[test]
    fn recover_left_factor_zeroes_degenerate_directions() {
        // Rank-1 matrix: second singular value is ~0, its U column must be 0.
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let be = bound_eigen(&m.gram(), 2).unwrap();
        let u = recover_left_factor(&m, &be.v, &be.sigma).unwrap();
        assert!(u.col_norm(1) < 1e-6);
    }

    #[test]
    fn invert_factor_prefers_direct_inverse_for_square_well_conditioned() {
        let f = Matrix::from_diag(&[2.0, 4.0]);
        let config = IsvdConfig::new(2);
        let inv = invert_factor(&f, &config).unwrap();
        assert!((inv[(0, 0)] - 0.5).abs() < 1e-10);
        let inv_t = invert_factor_transpose(&f, &config).unwrap();
        assert!((inv_t[(1, 1)] - 0.25).abs() < 1e-10);
    }

    #[test]
    fn invert_factor_falls_back_to_pinv_for_rectangular() {
        let mut rng = SmallRng::seed_from_u64(93);
        let f = uniform_matrix(&mut rng, 6, 3, -1.0, 1.0);
        let config = IsvdConfig::new(3).with_pinv_cutoff(0.0);
        let inv = invert_factor(&f, &config).unwrap();
        assert_eq!(inv.shape(), (3, 6));
        // Left inverse property for full column rank.
        assert!(inv
            .matmul(&f)
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-7));
        let inv_t = invert_factor_transpose(&f, &config).unwrap();
        assert_eq!(inv_t.shape(), (6, 3));
    }

    #[test]
    fn dispatch_validates_config() {
        let m = IntervalMatrix::from_scalar(Matrix::identity(3));
        assert!(isvd(&m, &IsvdConfig::new(0)).is_err());
        assert!(isvd(&m, &IsvdConfig::new(9)).is_err());
    }

    #[test]
    fn scale_left_factor_matches_column_oracle() {
        use crate::test_support::assert_same_bits;
        use ivmf_linalg::random::edge_case_matrix;
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(5);
        for case in 0..40 {
            let rows = [1usize, 129, 300][case % 3];
            let r = if case % 4 == 0 {
                1
            } else {
                rng.gen_range(1usize..22)
            };
            let u = edge_case_matrix(&mut rng, rows, r);
            // Leading values, one negligible below 1e-12 of the largest,
            // exact zeros and NaN.
            let sigma: Vec<f64> = (0..r)
                .map(|j| match (j + case) % 5 {
                    0 => 1e-14,
                    1 => 0.0,
                    2 => f64::NAN,
                    _ => rng.gen_range(0.5..20.0),
                })
                .collect();
            let mut fast = u.clone();
            scale_left_factor(&mut fast, &sigma);
            // The column-at-a-time loop scale_left_factor replaced.
            let mut slow = u.clone();
            let tol = sigma.iter().cloned().fold(0.0_f64, f64::max) * 1e-12;
            for (j, &s) in sigma.iter().enumerate() {
                if s > tol && s > 0.0 {
                    slow.scale_col(j, 1.0 / s);
                } else {
                    for i in 0..slow.rows() {
                        slow[(i, j)] = 0.0;
                    }
                }
            }
            assert_same_bits(&fast, &slow, "scale_left_factor");
        }
    }
}
