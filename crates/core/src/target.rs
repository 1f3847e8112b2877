//! Decomposition targets (Section 3.4) and the assembled interval SVD.
//!
//! All ISVD algorithms internally produce *raw* minimum/maximum factor
//! matrices ([`RawFactors`]). Depending on the application semantics the
//! user picks one of three **decomposition targets** that turn the raw
//! bounds into the final factorization ([`IntervalSvd`]):
//!
//! * **option a** ([`DecompositionTarget::IntervalAll`]): interval-valued
//!   `U†`, `Σ†`, `V†` — mis-ordered entries are collapsed to their average
//!   (Section 3.4.1);
//! * **option b** ([`DecompositionTarget::IntervalCore`]): scalar `U`, `V`
//!   (averaged and column-renormalized) with an interval core `Σ†` rescaled
//!   by the removed column norms (Section 3.4.2);
//! * **option c** ([`DecompositionTarget::Scalar`]): scalar `U`, `Σ`, `V`
//!   (Section 3.4.3).
//!
//! [`IntervalSvd::reconstruct`] implements the matching reconstruction rules
//! (supplementary Algorithms 12–14).

use ivmf_align::Alignment;
use ivmf_interval::{Interval, IntervalMatrix};
use ivmf_linalg::{ColScale, Matrix};

use crate::renorm::normalized_mean;
use crate::{IvmfError, Result};

/// Which application semantics the decomposition should satisfy
/// (Section 3.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecompositionTarget {
    /// Option (a): interval-valued `U†`, `Σ†` and `V†`.
    IntervalAll,
    /// Option (b): scalar `U` and `V`, interval-valued `Σ†`. The paper's
    /// experiments find this target to be the most accurate overall, so it
    /// is the default.
    #[default]
    IntervalCore,
    /// Option (c): scalar `U`, `Σ` and `V`.
    Scalar,
}

impl DecompositionTarget {
    /// Short label matching the paper's notation ("a" / "b" / "c").
    pub fn label(&self) -> &'static str {
        match self {
            DecompositionTarget::IntervalAll => "a",
            DecompositionTarget::IntervalCore => "b",
            DecompositionTarget::Scalar => "c",
        }
    }

    /// All three targets, in the paper's order.
    pub fn all() -> [DecompositionTarget; 3] {
        [
            DecompositionTarget::IntervalAll,
            DecompositionTarget::IntervalCore,
            DecompositionTarget::Scalar,
        ]
    }
}

impl std::fmt::Display for DecompositionTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "option-{}", self.label())
    }
}

/// Raw aligned bound factors produced by the ISVD algorithms **before**
/// target construction.
///
/// Entries are not necessarily ordered (`lo <= hi`); ordering is repaired
/// during target construction, exactly as the paper prescribes ("these
/// misordered elements are corrected as part of the final step").
#[derive(Debug, Clone)]
pub struct RawFactors {
    /// Minimum-side left factor (`n x r`).
    pub u_lo: Matrix,
    /// Maximum-side left factor (`n x r`).
    pub u_hi: Matrix,
    /// Minimum-side singular values (length `r`).
    pub sigma_lo: Vec<f64>,
    /// Maximum-side singular values (length `r`).
    pub sigma_hi: Vec<f64>,
    /// Minimum-side right factor (`m x r`).
    pub v_lo: Matrix,
    /// Maximum-side right factor (`m x r`).
    pub v_hi: Matrix,
}

impl RawFactors {
    /// Builds raw factors from two scalar decompositions, validating that
    /// every piece agrees on the target rank.
    pub fn new(
        u_lo: Matrix,
        u_hi: Matrix,
        sigma_lo: Vec<f64>,
        sigma_hi: Vec<f64>,
        v_lo: Matrix,
        v_hi: Matrix,
    ) -> Result<Self> {
        let raw = RawFactors {
            u_lo,
            u_hi,
            sigma_lo,
            sigma_hi,
            v_lo,
            v_hi,
        };
        raw.bounds().validate()?;
        Ok(raw)
    }

    /// Target rank of the factors.
    pub fn rank(&self) -> usize {
        self.sigma_lo.len()
    }

    /// Assembles the final [`IntervalSvd`] for the requested target
    /// (Section 3.4; supplementary Algorithms 8–11, final blocks).
    pub fn into_target(self, target: DecompositionTarget) -> Result<IntervalSvd> {
        self.bounds().assemble(target)
    }

    fn bounds(&self) -> FactorBounds<'_> {
        FactorBounds {
            u_lo: &self.u_lo,
            u_hi: &self.u_hi,
            sigma_lo: &self.sigma_lo,
            sigma_hi: &self.sigma_hi,
            v_lo: &self.v_lo,
            v_hi: &self.v_hi,
            lo_align: None,
        }
    }
}

/// Borrowed raw bound factors: the input of target assembly. The pipeline
/// assembles straight from its cached stage outputs through this view, so
/// no `n x r` factor is copied just to be handed over — not even to align
/// it: the minimum-side factors are read through `lo_align` in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FactorBounds<'a> {
    pub u_lo: &'a Matrix,
    pub u_hi: &'a Matrix,
    pub sigma_lo: &'a [f64],
    pub sigma_hi: &'a [f64],
    pub v_lo: &'a Matrix,
    pub v_hi: &'a Matrix,
    /// The ILSA alignment `u_lo` and `v_lo` are read through (`None`: as
    /// stored): column `j` is stored column `mapping[j]`, negated where
    /// `flip[j]` — the entries [`Alignment::apply_to_columns`] would copy
    /// out. `sigma_lo` is passed already aligned.
    pub lo_align: Option<&'a Alignment>,
}

/// A minimum-side factor's columns as an alignment reorders them: column
/// `j` is stored column `map[j]` with `ops[j]` applied, exactly the entry
/// [`Alignment::apply_to_columns`] computes.
pub(crate) struct LoColumns<'a> {
    map: &'a [usize],
    ops: Vec<ColScale>,
}

impl<'a> LoColumns<'a> {
    /// The columns of `alignment` over `cols`-column factors.
    pub(crate) fn new(alignment: &'a Alignment, cols: usize) -> Result<Self> {
        let map = &alignment.mapping[..];
        if map.len() != cols || alignment.flip.len() != cols || map.iter().any(|&j| j >= cols) {
            return Err(IvmfError::InvalidInput(format!(
                "alignment of {} columns does not map {cols} factor columns",
                map.len()
            )));
        }
        let ops = alignment
            .flip
            .iter()
            .map(|&flip| {
                if flip {
                    ColScale::By(-1.0)
                } else {
                    ColScale::Keep
                }
            })
            .collect();
        Ok(LoColumns { map, ops })
    }
}

/// Calls `f(lo_row, hi_row)` for every row of two equally shaped bounds, in
/// row order, with `lo`'s columns read through `lo_cols` when given.
pub(crate) fn for_each_bound_row(
    lo: &Matrix,
    lo_cols: Option<&LoColumns<'_>>,
    hi: &Matrix,
    mut f: impl FnMut(&[f64], &[f64]),
) {
    let cols = lo.cols();
    if cols == 0 {
        return;
    }
    let rows = lo
        .as_slice()
        .chunks_exact(cols)
        .zip(hi.as_slice().chunks_exact(cols));
    match lo_cols {
        None => rows.for_each(|(l, h)| f(l, h)),
        Some(c) => {
            let mut aligned = vec![0.0; cols];
            for (l, h) in rows {
                for ((a, &j), op) in aligned.iter_mut().zip(c.map).zip(&c.ops) {
                    *a = op.apply(l[j]);
                }
                f(&aligned, h);
            }
        }
    }
}

impl FactorBounds<'_> {
    /// The shape and rank checks of [`RawFactors::new`].
    fn validate(&self) -> Result<()> {
        let r = self.sigma_lo.len();
        if self.sigma_hi.len() != r
            || self.u_lo.cols() != r
            || self.u_hi.cols() != r
            || self.v_lo.cols() != r
            || self.v_hi.cols() != r
        {
            return Err(IvmfError::InvalidInput(
                "factor matrices and singular values disagree on the rank".to_string(),
            ));
        }
        if self.u_lo.shape() != self.u_hi.shape() || self.v_lo.shape() != self.v_hi.shape() {
            return Err(IvmfError::InvalidInput(
                "minimum and maximum factors must have identical shapes".to_string(),
            ));
        }
        Ok(())
    }

    /// Validates the bounds, then assembles the final [`IntervalSvd`] for
    /// `target`. Each `n x r` output is written once, in row-major passes
    /// over its two bounds: option a repairs mis-ordered entries while
    /// copying; options b and c fold the column norms in a read pass, then
    /// write the renormalized mean, and store the scalar factor once.
    pub(crate) fn assemble(self, target: DecompositionTarget) -> Result<IntervalSvd> {
        self.validate()?;
        let r = self.sigma_lo.len();
        let lo_cols = self.lo_align.map(|a| LoColumns::new(a, r)).transpose()?;
        let lo_cols = lo_cols.as_ref();
        match target {
            DecompositionTarget::IntervalAll => {
                // Option (a): keep interval factors, repairing mis-ordered
                // entries by averaging.
                let u = average_repaired(self.u_lo, lo_cols, self.u_hi)?;
                let v = average_repaired(self.v_lo, lo_cols, self.v_hi)?;
                let sigma = (0..r)
                    .map(|j| repaired_interval(self.sigma_lo[j], self.sigma_hi[j]))
                    .collect();
                Ok(IntervalSvd {
                    target,
                    u,
                    sigma,
                    v,
                })
            }
            DecompositionTarget::IntervalCore => {
                // Option (b): average + renormalize the factors, rescale the
                // interval core by the removed column norms.
                let (u_n, norms_u) = normalized_mean(self.u_lo, lo_cols, self.u_hi)?;
                let (v_n, norms_v) = normalized_mean(self.v_lo, lo_cols, self.v_hi)?;
                let sigma = (0..r)
                    .map(|j| {
                        let scale = norms_u[j] * norms_v[j];
                        repaired_interval(self.sigma_lo[j] * scale, self.sigma_hi[j] * scale)
                    })
                    .collect();
                Ok(IntervalSvd {
                    target,
                    u: IntervalMatrix::from_scalar(u_n),
                    sigma,
                    v: IntervalMatrix::from_scalar(v_n),
                })
            }
            DecompositionTarget::Scalar => {
                // Option (c): everything is averaged; the core additionally
                // absorbs the renormalization factors.
                let (u_n, norms_u) = normalized_mean(self.u_lo, lo_cols, self.u_hi)?;
                let (v_n, norms_v) = normalized_mean(self.v_lo, lo_cols, self.v_hi)?;
                let sigma = (0..r)
                    .map(|j| {
                        let avg = 0.5 * (self.sigma_lo[j] + self.sigma_hi[j]);
                        Interval::scalar(avg * norms_u[j] * norms_v[j])
                    })
                    .collect();
                Ok(IntervalSvd {
                    target,
                    u: IntervalMatrix::from_scalar(u_n),
                    sigma,
                    v: IntervalMatrix::from_scalar(v_n),
                })
            }
        }
    }
}

/// [`IntervalMatrix::average_replacement`] of the interval matrix with
/// bounds `lo` (read through `lo_cols`) and `hi`, written in one pass:
/// every mis-ordered entry becomes its midpoint in both bounds.
fn average_repaired(
    lo: &Matrix,
    lo_cols: Option<&LoColumns<'_>>,
    hi: &Matrix,
) -> Result<IntervalMatrix> {
    let (rows, cols) = lo.shape();
    let (mut out_lo, mut out_hi) = (
        Vec::with_capacity(rows * cols),
        Vec::with_capacity(rows * cols),
    );
    for_each_bound_row(lo, lo_cols, hi, |l, h| {
        for (&l, &h) in l.iter().zip(h) {
            let (l, h) = if l > h {
                let mid = 0.5 * (l + h);
                (mid, mid)
            } else {
                (l, h)
            };
            out_lo.push(l);
            out_hi.push(h);
        }
    });
    Ok(IntervalMatrix::from_bounds(
        Matrix::from_vec(rows, cols, out_lo)?,
        Matrix::from_vec(rows, cols, out_hi)?,
    )?)
}

/// The interval product `U† × Σ†` for a *diagonal* interval core, computed
/// as the four-way column-scaling envelope: entry `(i, j)` is the min/max
/// over `{u_lo·σ_lo, u_lo·σ_hi, u_hi·σ_lo, u_hi·σ_hi}` — exactly the four
/// endpoint products of the paper's interval matmul applied to a diagonal
/// right operand, in `O(n·r)` instead of the `O(n·r²)` of materializing the
/// diagonal bound matrices.
fn scale_cols_envelope(
    u: &IntervalMatrix,
    sigma_lo: &[f64],
    sigma_hi: &[f64],
) -> Result<IntervalMatrix> {
    let (n, r) = u.shape();
    let mut lo = Matrix::zeros(n, r);
    let mut hi = Matrix::zeros(n, r);
    for i in 0..n {
        for j in 0..r {
            let (ulo, uhi) = u.get_raw(i, j);
            let vals = [
                ulo * sigma_lo[j],
                ulo * sigma_hi[j],
                uhi * sigma_lo[j],
                uhi * sigma_hi[j],
            ];
            lo[(i, j)] = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            hi[(i, j)] = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        }
    }
    Ok(IntervalMatrix::from_bounds(lo, hi)?)
}

/// Builds an interval from bound values, replacing a mis-ordered pair by its
/// average (the Section 3.4.1 rule).
fn repaired_interval(lo: f64, hi: f64) -> Interval {
    if lo <= hi {
        Interval::new(lo, hi).expect("ordered bounds")
    } else {
        Interval::scalar(0.5 * (lo + hi))
    }
}

/// An interval singular value decomposition `M† ≈ U† Σ† V†ᵀ` assembled for a
/// specific [`DecompositionTarget`].
#[derive(Debug, Clone)]
pub struct IntervalSvd {
    /// The application semantics this factorization was assembled for.
    pub target: DecompositionTarget,
    /// Left factor (`n x r`); scalar-valued (lo == hi) for targets b and c.
    pub u: IntervalMatrix,
    /// Core diagonal (length `r`); scalar-valued for target c.
    pub sigma: Vec<Interval>,
    /// Right factor (`m x r`); scalar-valued for targets b and c.
    pub v: IntervalMatrix,
}

impl IntervalSvd {
    /// Target rank of the decomposition.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// The scalar left factor, when the target guarantees one.
    pub fn u_scalar(&self) -> Option<&Matrix> {
        if self.u.is_scalar() {
            Some(self.u.lo())
        } else {
            None
        }
    }

    /// The scalar right factor, when the target guarantees one.
    pub fn v_scalar(&self) -> Option<&Matrix> {
        if self.v.is_scalar() {
            Some(self.v.lo())
        } else {
            None
        }
    }

    /// The core diagonal midpoints (exact for target c, averaged otherwise).
    pub fn sigma_mid(&self) -> Vec<f64> {
        self.sigma.iter().map(|s| s.mid()).collect()
    }

    /// Lower bounds of the core diagonal.
    pub fn sigma_lo(&self) -> Vec<f64> {
        self.sigma.iter().map(|s| s.lo()).collect()
    }

    /// Upper bounds of the core diagonal.
    pub fn sigma_hi(&self) -> Vec<f64> {
        self.sigma.iter().map(|s| s.hi()).collect()
    }

    /// The projection of the rows of the original matrix onto the latent
    /// space: `U × Σ` as an interval matrix (`[U_lo Σ_lo, U_hi Σ_hi]` with
    /// repair). This is the feature representation used by the paper's
    /// classification and clustering tasks ("use `U × S` for SVD-based
    /// schemes").
    pub fn row_projection(&self) -> Result<IntervalMatrix> {
        // U × Σ with a diagonal Σ is a per-column scaling; no diagonal
        // matrix is materialized and no O(n·r²) product paid.
        let lo = self.u.lo().scale_cols(&self.sigma_lo())?;
        let hi = self.u.hi().scale_cols(&self.sigma_hi())?;
        Ok(IntervalMatrix::from_bounds(lo, hi)?.average_replacement())
    }

    /// Reconstructs the (interval-valued) approximation `M̃† = U† Σ† V†ᵀ`
    /// using the reconstruction rule matching the decomposition target
    /// (supplementary Algorithms 12–14).
    pub fn reconstruct(&self) -> Result<IntervalMatrix> {
        match self.target {
            DecompositionTarget::IntervalAll => {
                // Algorithm 12: full interval-algebra product. Reconstruction
                // is a scoring path: it stays on the exact four-product
                // operator so accuracy curves over rank sweeps never mix the
                // paper's envelope with the wider midpoint–radius enclosure
                // (whose dispatch work term depends on the rank). The
                // compute-heavy Gram products in the decompositions are the
                // ones that take the fast path. U† × Σ† with a *diagonal*
                // interval Σ† collapses to the four-way column-scaling
                // envelope (same endpoint products as building the diagonal
                // matrices, without the O(n·r²) multiplications).
                let us = scale_cols_envelope(&self.u, &self.sigma_lo(), &self.sigma_hi())?;
                Ok(us.interval_matmul(&self.v.transpose())?)
            }
            DecompositionTarget::IntervalCore => {
                // Algorithm 13: scalar factors, interval core. Σ scales the
                // columns of U directly and Vᵀ multiplies transpose-free.
                let u = self.u.lo();
                let v = self.v.lo();
                let lo = u.scale_cols(&self.sigma_lo())?.matmul_nt(v)?;
                let hi = u.scale_cols(&self.sigma_hi())?.matmul_nt(v)?;
                Ok(IntervalMatrix::from_bounds(lo, hi)?.average_replacement())
            }
            DecompositionTarget::Scalar => {
                // Algorithm 14: fully scalar reconstruction.
                let rec = self
                    .u
                    .lo()
                    .scale_cols(&self.sigma_mid())?
                    .matmul_nt(self.v.lo())?;
                Ok(IntervalMatrix::from_scalar(rec))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_sample() -> RawFactors {
        // A tiny, hand-checkable pair of rank-2 factorizations.
        RawFactors::new(
            Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]),
            Matrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9]]),
            vec![4.0, 2.0],
            vec![5.0, 1.8],
            Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]),
            Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        assert!(RawFactors::new(
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 2),
            vec![1.0],
            vec![1.0, 2.0],
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 2),
        )
        .is_err());
        assert!(RawFactors::new(
            Matrix::zeros(2, 2),
            Matrix::zeros(3, 2),
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 2),
        )
        .is_err());
        assert_eq!(raw_sample().rank(), 2);
    }

    #[test]
    fn target_labels() {
        assert_eq!(DecompositionTarget::IntervalAll.label(), "a");
        assert_eq!(DecompositionTarget::IntervalCore.label(), "b");
        assert_eq!(DecompositionTarget::Scalar.label(), "c");
        assert_eq!(DecompositionTarget::all().len(), 3);
        assert_eq!(format!("{}", DecompositionTarget::Scalar), "option-c");
    }

    #[test]
    fn option_a_keeps_intervals_and_repairs_misordered() {
        let mut raw = raw_sample();
        // Mis-order one sigma pair.
        raw.sigma_lo[0] = 6.0;
        raw.sigma_hi[0] = 4.0;
        let svd = raw.into_target(DecompositionTarget::IntervalAll).unwrap();
        assert_eq!(svd.target, DecompositionTarget::IntervalAll);
        // Misordered pairs collapsed to their average: both sigma entries of
        // the sample are misordered ([6,4] and [2,1.8]).
        assert_eq!(svd.sigma[0], Interval::scalar(5.0));
        assert_eq!(svd.sigma[1], Interval::scalar(1.9));
        assert!(svd.u.is_proper());
        assert!(svd.v.is_proper());
    }

    #[test]
    fn option_b_gives_unit_norm_scalar_factors_and_interval_core() {
        let svd = raw_sample()
            .into_target(DecompositionTarget::IntervalCore)
            .unwrap();
        let u = svd.u_scalar().expect("option b has scalar U");
        let v = svd.v_scalar().expect("option b has scalar V");
        for j in 0..2 {
            assert!((u.col_norm(j) - 1.0).abs() < 1e-12);
            assert!((v.col_norm(j) - 1.0).abs() < 1e-12);
        }
        // Core stays interval-valued.
        assert!(svd.sigma.iter().any(|s| !s.is_scalar()));
    }

    #[test]
    fn option_c_everything_scalar() {
        let svd = raw_sample()
            .into_target(DecompositionTarget::Scalar)
            .unwrap();
        assert!(svd.u_scalar().is_some());
        assert!(svd.v_scalar().is_some());
        assert!(svd.sigma.iter().all(|s| s.is_scalar()));
    }

    #[test]
    fn reconstruction_of_exact_scalar_decomposition_is_exact() {
        // When lo == hi factors come from a genuine SVD, all three targets
        // must reconstruct the original matrix exactly.
        let m = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0], vec![0.0, 1.0]]);
        let f = ivmf_linalg::svd::svd(&m).unwrap();
        let raw = RawFactors::new(
            f.u.clone(),
            f.u.clone(),
            f.singular_values.clone(),
            f.singular_values.clone(),
            f.v.clone(),
            f.v.clone(),
        )
        .unwrap();
        for target in DecompositionTarget::all() {
            let svd = raw.clone().into_target(target).unwrap();
            let rec = svd.reconstruct().unwrap();
            assert!(
                rec.mid().approx_eq(&m, 1e-8),
                "target {target} did not reconstruct the scalar matrix"
            );
            if target != DecompositionTarget::IntervalAll {
                // b and c reproduce it as (near-)scalar matrices.
                assert!(rec.spans().max_abs() < 1e-8);
            }
        }
    }

    #[test]
    fn option_b_reconstruction_bounds_are_ordered() {
        let svd = raw_sample()
            .into_target(DecompositionTarget::IntervalCore)
            .unwrap();
        let rec = svd.reconstruct().unwrap();
        assert!(rec.is_proper());
    }

    #[test]
    fn row_projection_shapes_and_scalar_case() {
        let svd = raw_sample()
            .into_target(DecompositionTarget::Scalar)
            .unwrap();
        let proj = svd.row_projection().unwrap();
        assert_eq!(proj.shape(), (2, 2));
        assert!(proj.is_scalar());
        let svd_b = raw_sample()
            .into_target(DecompositionTarget::IntervalCore)
            .unwrap();
        let proj_b = svd_b.row_projection().unwrap();
        assert_eq!(proj_b.shape(), (2, 2));
        assert!(proj_b.is_proper());
    }

    #[test]
    fn sigma_accessors() {
        let svd = raw_sample()
            .into_target(DecompositionTarget::IntervalCore)
            .unwrap();
        assert_eq!(svd.rank(), 2);
        let lo = svd.sigma_lo();
        let hi = svd.sigma_hi();
        let mid = svd.sigma_mid();
        for j in 0..2 {
            assert!(lo[j] <= hi[j]);
            assert!((mid[j] - 0.5 * (lo[j] + hi[j])).abs() < 1e-12);
        }
    }

    /// Reference assembly: owned bounds, a separate mean,
    /// column-at-a-time renormalization and a cloning average replacement.
    fn into_target_oracle(raw: RawFactors, target: DecompositionTarget) -> IntervalSvd {
        let r = raw.rank();
        let renormalize = |m: &Matrix| {
            let mut out = m.clone();
            let mut norms = Vec::new();
            for j in 0..m.cols() {
                let norm = m.col_norm(j);
                norms.push(norm);
                if norm > f64::EPSILON {
                    out.scale_col(j, 1.0 / norm);
                }
            }
            (out, norms)
        };
        let repair = |lo: Matrix, hi: Matrix| {
            let (mut lo, mut hi) = (lo, hi);
            for i in 0..lo.rows() {
                for j in 0..lo.cols() {
                    if lo[(i, j)] > hi[(i, j)] {
                        let mid = 0.5 * (lo[(i, j)] + hi[(i, j)]);
                        lo[(i, j)] = mid;
                        hi[(i, j)] = mid;
                    }
                }
            }
            IntervalMatrix::from_bounds(lo, hi).unwrap()
        };
        match target {
            DecompositionTarget::IntervalAll => IntervalSvd {
                target,
                u: repair(raw.u_lo, raw.u_hi),
                sigma: (0..r)
                    .map(|j| repaired_interval(raw.sigma_lo[j], raw.sigma_hi[j]))
                    .collect(),
                v: repair(raw.v_lo, raw.v_hi),
            },
            _ => {
                let (u_n, norms_u) = renormalize(&raw.u_lo.mean_with(&raw.u_hi).unwrap());
                let (v_n, norms_v) = renormalize(&raw.v_lo.mean_with(&raw.v_hi).unwrap());
                let sigma = (0..r)
                    .map(|j| {
                        let scale = norms_u[j] * norms_v[j];
                        if target == DecompositionTarget::IntervalCore {
                            repaired_interval(raw.sigma_lo[j] * scale, raw.sigma_hi[j] * scale)
                        } else {
                            let avg = 0.5 * (raw.sigma_lo[j] + raw.sigma_hi[j]);
                            Interval::scalar(avg * norms_u[j] * norms_v[j])
                        }
                    })
                    .collect();
                IntervalSvd {
                    target,
                    u: IntervalMatrix::from_scalar(u_n),
                    sigma,
                    v: IntervalMatrix::from_scalar(v_n),
                }
            }
        }
    }

    #[test]
    fn borrowed_assembly_matches_owned_oracle_bitwise_for_every_target() {
        use crate::test_support::assert_same_bits;
        use ivmf_linalg::random::{bit_pattern, uniform_matrix};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        for case in 0..24 {
            let (n, m) = [(1usize, 3usize), (129, 40), (300, 256)][case % 3];
            let r = if case % 4 == 0 {
                1
            } else {
                rng.gen_range(1..m.min(20))
            };
            // Noisy bound pairs: many entries mis-ordered, one column
            // negligible on each side, signed zeros and a subnormal.
            let mut bound = |rows: usize| {
                let lo = uniform_matrix(&mut rng, rows, r, -1.0, 1.0);
                let noise = uniform_matrix(&mut rng, rows, r, -0.2, 0.5);
                let mut hi = lo.add(&noise).unwrap();
                let (mut lo, j) = (lo, rows % r);
                for i in 0..rows {
                    lo[(i, j)] = if i % 2 == 0 { -0.0 } else { 5e-324 };
                    hi[(i, j)] = 0.0;
                }
                (lo, hi)
            };
            let (u_lo, u_hi) = bound(n);
            let (v_lo, v_hi) = bound(m);
            let sigma_lo: Vec<f64> = (0..r).map(|_| rng.gen_range(0.0..5.0)).collect();
            let sigma_hi: Vec<f64> = sigma_lo
                .iter()
                .map(|s| s + rng.gen_range(-0.5..1.0))
                .collect();
            let raw = RawFactors::new(u_lo, u_hi, sigma_lo, sigma_hi, v_lo, v_hi).unwrap();
            for target in DecompositionTarget::all() {
                let fast = raw.bounds().assemble(target).unwrap();
                let slow = into_target_oracle(raw.clone(), target);
                let ctx = format!("case {case} target {target}");
                assert_same_bits(fast.u.lo(), slow.u.lo(), &ctx);
                assert_same_bits(fast.u.hi(), slow.u.hi(), &ctx);
                assert_same_bits(fast.v.lo(), slow.v.lo(), &ctx);
                assert_same_bits(fast.v.hi(), slow.v.hi(), &ctx);
                let bits = |s: &IntervalSvd| {
                    s.sigma
                        .iter()
                        .map(|x| (bit_pattern(x.lo()), bit_pattern(x.hi())))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&fast), bits(&slow), "{ctx}: sigma");
                assert_eq!(fast.target, target);
                // The owned entry point is the same assembly.
                let owned = raw.clone().into_target(target).unwrap();
                assert_same_bits(owned.u.lo(), fast.u.lo(), &ctx);
                assert_same_bits(owned.v.hi(), fast.v.hi(), &ctx);
            }
        }
    }
}
