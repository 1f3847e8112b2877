use ivmf_linalg::Matrix;

use crate::scalar::envelope;
use crate::{Interval, IntervalError, Result};

/// A dense interval-valued matrix `M† = [M_lo, M_hi]`.
///
/// The two bounds are stored as separate scalar [`Matrix`] values. This is
/// the representation every algorithm in the paper actually works with: the
/// ISVD family decomposes `M_lo` and `M_hi` (or the bound matrices of the
/// interval Gram product) independently and re-assembles interval factors at
/// the end.
///
/// Entries are *not* required to be properly ordered (`lo <= hi`): the
/// intermediate factors produced by the ISVD algorithms are routinely
/// mis-ordered and the paper explicitly defers the repair to the final
/// *average replacement* step ([`IntervalMatrix::average_replacement`],
/// supplementary Algorithm 3). Use [`IntervalMatrix::is_proper`] to check.
///
/// A degenerate matrix built by [`IntervalMatrix::from_scalar`] (the
/// scalar `U` and `V` of decomposition targets b and c) keeps one buffer:
/// its upper bound *is* its lower bound, so [`IntervalMatrix::hi`]
/// returns the same matrix as [`IntervalMatrix::lo`] and
/// [`IntervalMatrix::is_scalar`] answers without a scan. The storage is
/// invisible in values: every method returns bitwise what it returns for
/// `from_bounds(m.clone(), m)`, and `==` compares values. The first
/// [`IntervalMatrix::set`] on such a matrix gives it its own upper-bound
/// buffer.
#[derive(Debug, Clone)]
pub struct IntervalMatrix {
    lo: Matrix,
    /// The upper bound; `None` when it is `lo` itself.
    hi: Option<Matrix>,
}

impl PartialEq for IntervalMatrix {
    fn eq(&self, rhs: &IntervalMatrix) -> bool {
        self.lo == rhs.lo && self.hi() == rhs.hi()
    }
}

impl IntervalMatrix {
    /// Builds an interval matrix from its bound matrices.
    ///
    /// # Errors
    ///
    /// Returns [`IntervalError::DimensionMismatch`] when the bounds have
    /// different shapes.
    pub fn from_bounds(lo: Matrix, hi: Matrix) -> Result<Self> {
        if lo.shape() != hi.shape() {
            return Err(IntervalError::DimensionMismatch {
                op: "interval_matrix_from_bounds",
                lhs: lo.shape(),
                rhs: hi.shape(),
            });
        }
        Ok(IntervalMatrix::two(lo, hi))
    }

    /// Builds a degenerate (scalar) interval matrix where both bounds equal
    /// `m`, stored once.
    pub fn from_scalar(m: Matrix) -> Self {
        IntervalMatrix { lo: m, hi: None }
    }

    /// Bounds stored in two buffers.
    fn two(lo: Matrix, hi: Matrix) -> Self {
        IntervalMatrix { lo, hi: Some(hi) }
    }

    /// Builds an interval matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Interval) -> Self {
        let mut lo = Matrix::zeros(rows, cols);
        let mut hi = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let v = f(i, j);
                lo[(i, j)] = v.lo();
                hi[(i, j)] = v.hi();
            }
        }
        IntervalMatrix::two(lo, hi)
    }

    /// The `rows x cols` interval matrix of zero intervals.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IntervalMatrix::two(Matrix::zeros(rows, cols), Matrix::zeros(rows, cols))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.lo.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.lo.cols()
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.lo.shape()
    }

    /// Lower-bound matrix `M_lo` (the paper's `M_*`).
    pub fn lo(&self) -> &Matrix {
        &self.lo
    }

    /// Upper-bound matrix `M_hi` (the paper's `M^*`): the lower bound
    /// itself for a degenerate matrix.
    pub fn hi(&self) -> &Matrix {
        self.hi.as_ref().unwrap_or(&self.lo)
    }

    /// `f` applied to each stored bound: a degenerate matrix maps its one
    /// buffer and stays degenerate, which is bitwise `f` applied to both
    /// bounds when `f` is entry-wise and the same for either bound.
    fn map_bounds(&self, f: impl Fn(&Matrix) -> Matrix) -> IntervalMatrix {
        IntervalMatrix {
            lo: f(&self.lo),
            hi: self.hi.as_ref().map(f),
        }
    }

    /// A copy of rows `start..end`.
    ///
    /// # Errors
    ///
    /// Returns [`IntervalError::Source`] when the range is reversed or
    /// runs past the last row.
    pub fn row_slice(&self, start: usize, end: usize) -> Result<IntervalMatrix> {
        if start > end || end > self.rows() {
            return Err(IntervalError::Source(format!(
                "row range {start}..{end} out of bounds for {} rows",
                self.rows()
            )));
        }
        let cols = self.cols();
        Ok(self.map_bounds(|m| {
            let rows = m.as_slice()[start * cols..end * cols].to_vec();
            Matrix::from_vec(end - start, cols, rows).expect("rows x cols entries")
        }))
    }

    /// Consumes the interval matrix and returns `(lo, hi)`; a degenerate
    /// matrix copies its one buffer for the upper bound.
    pub fn into_bounds(self) -> (Matrix, Matrix) {
        match self.hi {
            Some(hi) => (self.lo, hi),
            None => (self.lo.clone(), self.lo),
        }
    }

    /// The stored buffers: the lower bound, and the upper bound unless the
    /// matrix is degenerate.
    pub(crate) fn into_storage(self) -> (Matrix, Option<Matrix>) {
        (self.lo, self.hi)
    }

    /// Entry `(i, j)` as an [`Interval`]; mis-ordered bounds are reordered.
    pub fn get(&self, i: usize, j: usize) -> Interval {
        Interval::from_unordered(self.lo[(i, j)], self.hi()[(i, j)]).expect("bounds are finite")
    }

    /// Raw (possibly mis-ordered) bounds of entry `(i, j)`.
    pub fn get_raw(&self, i: usize, j: usize) -> (f64, f64) {
        (self.lo[(i, j)], self.hi()[(i, j)])
    }

    /// Sets entry `(i, j)`. A degenerate matrix first copies its one
    /// buffer into a separate upper bound, so only this entry changes.
    pub fn set(&mut self, i: usize, j: usize, value: Interval) {
        let hi = self.hi.get_or_insert_with(|| self.lo.clone());
        hi[(i, j)] = value.hi();
        self.lo[(i, j)] = value.lo();
    }

    /// The midpoint matrix `(M_lo + M_hi) / 2` (the "average matrix" of
    /// ISVD0 and of the option-b/c constructions).
    pub fn mid(&self) -> Matrix {
        self.lo.mean_with(self.hi()).expect("bounds share a shape")
    }

    /// The entry-wise span matrix `M_hi − M_lo`.
    pub fn spans(&self) -> Matrix {
        self.hi().sub(&self.lo).expect("bounds share a shape")
    }

    /// True when every entry satisfies `lo <= hi`.
    pub fn is_proper(&self) -> bool {
        self.lo
            .as_slice()
            .iter()
            .zip(self.hi().as_slice())
            .all(|(&l, &h)| l <= h)
    }

    /// True when every entry is scalar: its two bounds are equal, or are
    /// the same NaN. O(1) for a degenerate matrix.
    pub fn is_scalar(&self) -> bool {
        let Some(hi) = &self.hi else {
            return true;
        };
        let mut pairs = self.lo.as_slice().iter().zip(hi.as_slice());
        pairs.all(|(&l, &h)| l == h || l.to_bits() == h.to_bits())
    }

    /// Fraction of entries that are genuine intervals (span > 0),
    /// measured over the *non-zero* entries as in Table 1's
    /// "interval density (on non-zeros)".
    pub fn interval_density(&self) -> f64 {
        let mut non_zero = 0usize;
        let mut interval = 0usize;
        for (&l, &h) in self.lo.as_slice().iter().zip(self.hi().as_slice()) {
            if l != 0.0 || h != 0.0 {
                non_zero += 1;
                if h != l {
                    interval += 1;
                }
            }
        }
        if non_zero == 0 {
            0.0
        } else {
            interval as f64 / non_zero as f64
        }
    }

    /// Fraction of entries that are exactly the zero interval — `1 −` the
    /// paper's "matrix density" knob (percentage of 0-values).
    pub fn zero_fraction(&self) -> f64 {
        let total = self.rows() * self.cols();
        if total == 0 {
            return 0.0;
        }
        let zeros = self
            .lo
            .as_slice()
            .iter()
            .zip(self.hi().as_slice())
            .filter(|(&l, &h)| l == 0.0 && h == 0.0)
            .count();
        zeros as f64 / total as f64
    }

    /// Largest span over all entries.
    pub fn max_span(&self) -> f64 {
        self.lo
            .as_slice()
            .iter()
            .zip(self.hi().as_slice())
            .fold(0.0_f64, |acc, (&l, &h)| acc.max(h - l))
    }

    /// Mean span over all entries.
    pub fn mean_span(&self) -> f64 {
        let total = self.rows() * self.cols();
        if total == 0 {
            return 0.0;
        }
        self.spans().sum() / total as f64
    }

    /// Whether the scalar matrix `m` lies entry-wise inside the interval
    /// matrix (inclusive, with tolerance `tol`).
    pub fn contains_matrix(&self, m: &Matrix, tol: f64) -> bool {
        if m.shape() != self.shape() {
            return false;
        }
        self.lo
            .as_slice()
            .iter()
            .zip(self.hi().as_slice())
            .zip(m.as_slice())
            .all(|((&l, &h), &x)| l - tol <= x && x <= h + tol)
    }

    /// Supplementary Algorithm 3 (matrix average replacement): every entry
    /// with mis-ordered bounds is replaced in both bounds by its midpoint.
    /// A degenerate matrix has no mis-ordered entry and stays degenerate.
    pub fn average_replacement(&self) -> IntervalMatrix {
        let Some(hi) = &self.hi else {
            return self.clone();
        };
        let mut out = IntervalMatrix::two(self.lo.clone(), hi.clone());
        let outs = out.lo.as_mut_slice().iter_mut();
        for (l, h) in outs.zip(out.hi.as_mut().expect("two buffers").as_mut_slice()) {
            if *l > *h {
                let mid = 0.5 * (*l + *h);
                (*l, *h) = (mid, mid);
            }
        }
        out
    }

    /// Transpose of the interval matrix.
    pub fn transpose(&self) -> IntervalMatrix {
        self.map_bounds(Matrix::transpose)
    }

    /// Entry-wise interval addition.
    pub fn add(&self, rhs: &IntervalMatrix) -> Result<IntervalMatrix> {
        self.check_same_shape(rhs, "interval_add")?;
        Ok(IntervalMatrix::two(
            self.lo.add(&rhs.lo)?,
            self.hi().add(rhs.hi())?,
        ))
    }

    /// Entry-wise interval subtraction (`[a,b] − [c,d] = [a−d, b−c]`).
    pub fn sub(&self, rhs: &IntervalMatrix) -> Result<IntervalMatrix> {
        self.check_same_shape(rhs, "interval_sub")?;
        Ok(IntervalMatrix::two(
            self.lo.sub(rhs.hi())?,
            self.hi().sub(&rhs.lo)?,
        ))
    }

    /// Scales every interval by the scalar `s` (negative `s` swaps bounds).
    pub fn scale(&self, s: f64) -> IntervalMatrix {
        match &self.hi {
            Some(hi) if s < 0.0 || s.is_nan() => IntervalMatrix::two(hi.scale(s), self.lo.scale(s)),
            _ => self.map_bounds(|m| m.scale(s)),
        }
    }

    /// Interval-valued matrix multiplication (supplementary Algorithm 1).
    ///
    /// Computes the four scalar products `T1 = lo·lo`, `T2 = lo·hi`,
    /// `T3 = hi·lo`, `T4 = hi·hi` and takes the entry-wise min/max. This is
    /// the definition used throughout the paper (Section 2.1 lifted to
    /// matrices), and is exact when every interval keeps a constant sign
    /// across the inner dimension.
    ///
    /// Note: like the paper's Algorithm 1 this bounds the product by the
    /// envelope of the four endpoint products, which is the standard
    /// formulation adopted by the paper (it can be slightly narrower than
    /// the exact interval hull when a single inner product mixes signs —
    /// faithfully reproducing the paper's operator is the goal here).
    pub fn interval_matmul(&self, rhs: &IntervalMatrix) -> Result<IntervalMatrix> {
        if self.cols() != rhs.rows() {
            return Err(IntervalError::DimensionMismatch {
                op: "interval_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let t1 = self.lo.matmul(&rhs.lo)?;
        let t2 = self.lo.matmul(rhs.hi())?;
        let t3 = self.hi().matmul(&rhs.lo)?;
        let t4 = self.hi().matmul(rhs.hi())?;

        let (r, c) = t1.shape();
        let mut lo = Matrix::zeros(r, c);
        let mut hi = Matrix::zeros(r, c);
        for i in 0..r {
            for j in 0..c {
                (lo[(i, j)], hi[(i, j)]) =
                    envelope([t1[(i, j)], t2[(i, j)], t3[(i, j)], t4[(i, j)]]);
            }
        }
        Ok(IntervalMatrix::two(lo, hi))
    }

    /// Multiplies by a scalar matrix on the right.
    ///
    /// With a degenerate right operand the four endpoint products of
    /// [`IntervalMatrix::interval_matmul`] collapse pairwise to `lo·rhs`
    /// and `hi·rhs`, so this computes exactly those two products and takes
    /// the entry-wise envelope — the same result as wrapping `rhs` in a
    /// scalar interval matrix at half the multiplications and without the
    /// clone.
    pub fn matmul_scalar(&self, rhs: &Matrix) -> Result<IntervalMatrix> {
        if self.cols() != rhs.rows() {
            return Err(IntervalError::DimensionMismatch {
                op: "interval_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let p = self.lo.matmul(rhs)?;
        let q = self.hi().matmul(rhs)?;
        Ok(envelope_of_two(p, q))
    }

    /// Multiplies by a scalar matrix on the left: the interval counterpart
    /// of `lhs · self`, computed as the entry-wise envelope of `lhs·lo` and
    /// `lhs·hi` (exactly [`IntervalMatrix::interval_matmul`] with a
    /// degenerate left operand, at half the multiplications).
    pub fn matmul_scalar_left(&self, lhs: &Matrix) -> Result<IntervalMatrix> {
        if lhs.cols() != self.rows() {
            return Err(IntervalError::DimensionMismatch {
                op: "interval_matmul",
                lhs: lhs.shape(),
                rhs: self.shape(),
            });
        }
        let p = lhs.matmul(&self.lo)?;
        let q = lhs.matmul(self.hi())?;
        Ok(envelope_of_two(p, q))
    }

    /// Interval Gram matrix `M†ᵀ · M†` using interval multiplication
    /// (the `A†` matrix of Section 4.3).
    ///
    /// Computes the same four-endpoint envelope as
    /// `self.transpose().interval_matmul(self)` — bitwise, since the
    /// scalar products commute term by term — but exploits the Gram
    /// structure: `loᵀ·lo` and `hiᵀ·hi` run on the symmetric SYRK kernel
    /// ([`ivmf_linalg::Matrix::gram`]), and the two cross products are each
    /// other's transposes, so only one (`loᵀ·hi`, via
    /// [`ivmf_linalg::Matrix::matmul_tn`]) is computed. Roughly half the
    /// multiplications of the generic operator, and no materialized
    /// transpose.
    pub fn interval_gram(&self) -> Result<IntervalMatrix> {
        let t1 = self.lo.gram();
        let t4 = self.hi().gram();
        // T2 = loᵀ·hi; T3 = hiᵀ·lo = T2ᵀ entry-wise (identical products,
        // identical accumulation order).
        let t2 = self.lo.matmul_tn(self.hi())?;
        let (r, c) = t1.shape();
        let mut lo = Matrix::zeros(r, c);
        let mut hi = Matrix::zeros(r, c);
        for i in 0..r {
            for j in 0..c {
                (lo[(i, j)], hi[(i, j)]) =
                    envelope([t1[(i, j)], t2[(i, j)], t2[(j, i)], t4[(i, j)]]);
            }
        }
        Ok(IntervalMatrix::two(lo, hi))
    }

    /// True when both bound matrices agree with `rhs` within `tol`.
    pub fn approx_eq(&self, rhs: &IntervalMatrix, tol: f64) -> bool {
        self.lo.approx_eq(&rhs.lo, tol) && self.hi().approx_eq(rhs.hi(), tol)
    }

    /// True if any bound entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.lo.has_non_finite() || self.hi.as_ref().is_some_and(Matrix::has_non_finite)
    }

    fn check_same_shape(&self, rhs: &IntervalMatrix, op: &'static str) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(IntervalError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(())
    }
}

impl IntervalMatrix {
    /// Entry-wise interval envelope of two equally-shaped scalar matrices:
    /// each entry becomes `[min(p, q), max(p, q)]`. This is the assembly
    /// step of [`IntervalMatrix::matmul_scalar`] /
    /// [`IntervalMatrix::matmul_scalar_left`], exposed so the streamed
    /// counterparts in the decomposition pipeline share the exact same
    /// (bit-for-bit) combination.
    pub fn envelope_of(p: Matrix, q: Matrix) -> Result<IntervalMatrix> {
        if p.shape() != q.shape() {
            return Err(IntervalError::DimensionMismatch {
                op: "envelope_of",
                lhs: p.shape(),
                rhs: q.shape(),
            });
        }
        Ok(envelope_of_two(p, q))
    }
}

/// Entry-wise interval envelope of two equally-shaped scalar matrices.
fn envelope_of_two(p: Matrix, q: Matrix) -> IntervalMatrix {
    let mut lo = p;
    let mut hi = q;
    for (l, h) in lo.as_mut_slice().iter_mut().zip(hi.as_mut_slice()) {
        if *l > *h {
            std::mem::swap(l, h);
        }
    }
    IntervalMatrix::two(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> IntervalMatrix {
        IntervalMatrix::from_bounds(
            Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]),
            Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]),
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_shapes() {
        assert!(IntervalMatrix::from_bounds(Matrix::zeros(2, 2), Matrix::zeros(2, 3)).is_err());
        assert!(IntervalMatrix::from_bounds(Matrix::zeros(2, 2), Matrix::zeros(2, 2)).is_ok());
    }

    #[test]
    fn scalar_matrix_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0]]);
        let im = IntervalMatrix::from_scalar(m.clone());
        assert!(im.is_scalar());
        assert!(im.is_proper());
        assert_eq!(im.mid(), m);
        assert_eq!(im.spans(), Matrix::zeros(1, 2));
    }

    #[test]
    fn from_fn_and_get_set() {
        let mut m = IntervalMatrix::from_fn(2, 2, |i, j| {
            Interval::new(i as f64, (i + j) as f64 + 1.0).unwrap()
        });
        assert_eq!(m.get(1, 1), Interval::new(1.0, 3.0).unwrap());
        m.set(0, 0, Interval::new(-1.0, 1.0).unwrap());
        assert_eq!(m.get_raw(0, 0), (-1.0, 1.0));
    }

    #[test]
    fn mid_and_span_matrices() {
        let m = sample();
        assert_eq!(m.mid()[(0, 0)], 1.5);
        assert_eq!(m.spans()[(0, 1)], 1.0);
        assert_eq!(m.max_span(), 1.0);
        assert!((m.mean_span() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_measures() {
        let m = IntervalMatrix::from_bounds(
            Matrix::from_rows(&[vec![0.0, 1.0, 2.0, 0.0]]),
            Matrix::from_rows(&[vec![0.0, 1.0, 3.0, 0.0]]),
        )
        .unwrap();
        // Two non-zero entries, one of which is a genuine interval.
        assert!((m.interval_density() - 0.5).abs() < 1e-12);
        assert!((m.zero_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(IntervalMatrix::zeros(2, 2).interval_density(), 0.0);
    }

    #[test]
    fn containment_of_scalar_matrix() {
        let m = sample();
        assert!(m.contains_matrix(&m.mid(), 0.0));
        assert!(!m.contains_matrix(&m.hi().scale(2.0), 0.0));
        assert!(!m.contains_matrix(&Matrix::zeros(3, 3), 0.0));
    }

    #[test]
    fn average_replacement_repairs_misordered_entries() {
        let m = IntervalMatrix::from_bounds(
            Matrix::from_rows(&[vec![2.0, 0.0]]),
            Matrix::from_rows(&[vec![1.0, 5.0]]),
        )
        .unwrap();
        assert!(!m.is_proper());
        let fixed = m.average_replacement();
        assert!(fixed.is_proper());
        assert_eq!(fixed.get_raw(0, 0), (1.5, 1.5));
        // Properly ordered entries untouched.
        assert_eq!(fixed.get_raw(0, 1), (0.0, 5.0));
    }

    #[test]
    fn add_and_sub_follow_interval_rules() {
        let a = sample();
        let b = sample();
        let s = a.add(&b).unwrap();
        assert_eq!(s.get(0, 0), Interval::new(2.0, 4.0).unwrap());
        let d = a.sub(&b).unwrap();
        // [1,2] - [1,2] = [-1, 1]
        assert_eq!(d.get(0, 0), Interval::new(-1.0, 1.0).unwrap());
        assert!(a.add(&IntervalMatrix::zeros(3, 3)).is_err());
        assert!(a.sub(&IntervalMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn scale_negative_swaps_bounds() {
        let m = sample().scale(-1.0);
        assert_eq!(m.get(0, 0), Interval::new(-2.0, -1.0).unwrap());
        assert!(m.is_proper());
    }

    #[test]
    fn interval_matmul_matches_entrywise_interval_arithmetic_for_nonnegative() {
        // For non-negative interval matrices the endpoint-envelope product
        // equals the exact entry-by-entry interval computation.
        let a = sample();
        let b = sample();
        let prod = a.interval_matmul(&b).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = Interval::scalar(0.0);
                for k in 0..2 {
                    acc = acc + a.get(i, k) * b.get(k, j);
                }
                assert!((prod.get(i, j).lo() - acc.lo()).abs() < 1e-12);
                assert!((prod.get(i, j).hi() - acc.hi()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn interval_matmul_of_scalar_matrices_matches_scalar_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![-1.0, 0.5], vec![2.0, -3.0]]);
        let ia = IntervalMatrix::from_scalar(a.clone());
        let ib = IntervalMatrix::from_scalar(b.clone());
        let prod = ia.interval_matmul(&ib).unwrap();
        let expected = a.matmul(&b).unwrap();
        assert!(prod.lo().approx_eq(&expected, 1e-12));
        assert!(prod.hi().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn interval_matmul_rejects_bad_shapes() {
        let a = sample();
        assert!(a.interval_matmul(&IntervalMatrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn interval_gram_is_square_and_proper_for_proper_input() {
        let m = IntervalMatrix::from_bounds(
            Matrix::from_rows(&[vec![1.0, 2.0, 0.0], vec![0.5, 1.0, 1.0]]),
            Matrix::from_rows(&[vec![1.5, 2.5, 0.5], vec![1.0, 1.5, 2.0]]),
        )
        .unwrap();
        let g = m.interval_gram().unwrap();
        assert_eq!(g.shape(), (3, 3));
        assert!(g.is_proper());
        // Diagonal of the Gram contains the scalar Gram of the midpoint? Not
        // necessarily, but it must contain the Gram of any contained matrix:
        let mid_gram = m.mid().gram();
        assert!(g.contains_matrix(&mid_gram, 1e-9));
    }

    #[test]
    fn matmul_scalar_right() {
        let m = sample();
        let id = Matrix::identity(2);
        let prod = m.matmul_scalar(&id).unwrap();
        assert!(prod.approx_eq(&m, 1e-12));
    }

    #[test]
    fn matmul_scalar_matches_degenerate_interval_product() {
        // The two-product rewrite must agree with the four-product path it
        // replaced, including for sign-flipping scalar operands.
        let m = sample().scale(-1.0);
        let rhs = Matrix::from_rows(&[vec![1.0, -2.0], vec![-0.5, 3.0]]);
        let fast = m.matmul_scalar(&rhs).unwrap();
        let oracle = m
            .interval_matmul(&IntervalMatrix::from_scalar(rhs.clone()))
            .unwrap();
        assert!(fast.approx_eq(&oracle, 0.0));
        assert!(m.matmul_scalar(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_scalar_left_matches_degenerate_interval_product() {
        let m = sample();
        let lhs = Matrix::from_rows(&[vec![-1.0, 2.0], vec![0.5, -3.0], vec![1.0, 1.0]]);
        let fast = m.matmul_scalar_left(&lhs).unwrap();
        let oracle = IntervalMatrix::from_scalar(lhs.clone())
            .interval_matmul(&m)
            .unwrap();
        assert!(fast.approx_eq(&oracle, 0.0));
        assert!(fast.is_proper());
        assert!(m.matmul_scalar_left(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn non_finite_detection() {
        let mut m = sample();
        assert!(!m.has_non_finite());
        m.set(0, 0, Interval::new(0.0, f64::INFINITY).unwrap());
        assert!(m.has_non_finite());
    }

    proptest! {
        #[test]
        fn prop_interval_matmul_contains_contained_scalar_products(
            seed in 0u64..500,
        ) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let (n, k, m) = (3usize, 4usize, 2usize);
            // Random proper interval matrices and random contained scalar
            // matrices; the interval product must contain the scalar product
            // of midpoints and of the contained samples at the endpoints of
            // each entry's sign-consistent regime.
            let a_lo = Matrix::from_fn(n, k, |_, _| rng.gen_range(-2.0..2.0));
            let a_span = Matrix::from_fn(n, k, |_, _| rng.gen_range(0.0..1.0));
            let a_hi = a_lo.add(&a_span).unwrap();
            let b_lo = Matrix::from_fn(k, m, |_, _| rng.gen_range(-2.0..2.0));
            let b_span = Matrix::from_fn(k, m, |_, _| rng.gen_range(0.0..1.0));
            let b_hi = b_lo.add(&b_span).unwrap();
            let ia = IntervalMatrix::from_bounds(a_lo.clone(), a_hi.clone()).unwrap();
            let ib = IntervalMatrix::from_bounds(b_lo.clone(), b_hi.clone()).unwrap();
            let prod = ia.interval_matmul(&ib).unwrap();
            prop_assert!(prod.is_proper());
            // The product of the midpoints is contained in the envelope of
            // the four endpoint products only up to the envelope slack; the
            // bound products themselves must always be inside.
            for candidate in [a_lo.matmul(&b_lo).unwrap(), a_hi.matmul(&b_hi).unwrap(),
                              a_lo.matmul(&b_hi).unwrap(), a_hi.matmul(&b_lo).unwrap()] {
                prop_assert!(prod.contains_matrix(&candidate, 1e-9));
            }
        }

        #[test]
        fn prop_degenerate_storage_is_invisible(seed in 0u64..1_000_000) {
            use ivmf_linalg::random::{bit_pattern, edge_case_matrix};
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let (n, k) = (rng.gen_range(1usize..6), rng.gen_range(1usize..6));
            let m = edge_case_matrix(&mut rng, n, k);
            let one = IntervalMatrix::from_scalar(m.clone());
            let two = IntervalMatrix::from_bounds(m.clone(), m.clone()).unwrap();
            // A general operand with mis-ordered entries, of each shape the
            // binary operations take.
            let mut general = |rows, cols| {
                let lo = edge_case_matrix(&mut rng, rows, cols);
                IntervalMatrix::from_bounds(lo, edge_case_matrix(&mut rng, rows, cols)).unwrap()
            };
            let (same, right, left) = (general(n, k), general(k, 3), general(2, n));
            let bits = |x: &Matrix| x.as_slice().iter().map(|&v| bit_pattern(v)).collect::<Vec<_>>();
            let same_bits = |a: &IntervalMatrix, b: &IntervalMatrix, what: &str| {
                assert_eq!(a.shape(), b.shape(), "{what}");
                assert_eq!(bits(a.lo()), bits(b.lo()), "{what}: lo");
                assert_eq!(bits(a.hi()), bits(b.hi()), "{what}: hi");
            };
            // `==` compares values (NaN never equals itself), not storage.
            let equal = two == two;
            prop_assert_eq!(one == two, equal);
            prop_assert_eq!(two == one, equal);
            prop_assert_eq!(one.is_scalar(), two.is_scalar());
            prop_assert!(one.is_scalar());
            same_bits(&one, &two, "bounds");
            let ((a_lo, a_hi), (b_lo, b_hi)) = (one.clone().into_bounds(), two.clone().into_bounds());
            prop_assert_eq!((bits(&a_lo), bits(&a_hi)), (bits(&b_lo), bits(&b_hi)));
            same_bits(&one.transpose(), &two.transpose(), "transpose");
            for s in [2.0, -0.5, 0.0, -0.0, f64::NAN] {
                same_bits(&one.scale(s), &two.scale(s), "scale");
            }
            same_bits(&one.add(&same).unwrap(), &two.add(&same).unwrap(), "add");
            same_bits(&same.add(&one).unwrap(), &same.add(&two).unwrap(), "add, right");
            same_bits(&one.sub(&same).unwrap(), &two.sub(&same).unwrap(), "sub");
            same_bits(&same.sub(&one).unwrap(), &same.sub(&two).unwrap(), "sub, right");
            same_bits(
                &one.interval_matmul(&right).unwrap(),
                &two.interval_matmul(&right).unwrap(),
                "interval_matmul",
            );
            same_bits(
                &left.interval_matmul(&one).unwrap(),
                &left.interval_matmul(&two).unwrap(),
                "interval_matmul, right",
            );
            same_bits(
                &one.matmul_scalar(right.lo()).unwrap(),
                &two.matmul_scalar(right.lo()).unwrap(),
                "matmul_scalar",
            );
            same_bits(
                &one.matmul_scalar_left(left.lo()).unwrap(),
                &two.matmul_scalar_left(left.lo()).unwrap(),
                "matmul_scalar_left",
            );
            same_bits(&one.interval_gram().unwrap(), &two.interval_gram().unwrap(), "interval_gram");
            same_bits(&one.average_replacement(), &two.average_replacement(), "average_replacement");
            prop_assert_eq!(bits(&one.mid()), bits(&two.mid()));
            prop_assert_eq!(bits(&one.spans()), bits(&two.spans()));
            // `set` changes only its entry's bounds, and no clone.
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..k));
            let (mut set_one, mut set_two) = (one.clone(), two.clone());
            let value = Interval::new(-3.0, 5.0).unwrap();
            set_one.set(i, j, value);
            set_two.set(i, j, value);
            same_bits(&set_one, &set_two, "set");
            prop_assert_eq!(set_one.get_raw(i, j), (-3.0, 5.0));
            same_bits(&one, &two, "a clone after set");
            prop_assert!(one.is_scalar());
        }

        #[test]
        fn prop_average_replacement_is_idempotent_and_proper(seed in 0u64..200) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let lo = Matrix::from_fn(4, 3, |_, _| rng.gen_range(-1.0..1.0));
            let hi = Matrix::from_fn(4, 3, |_, _| rng.gen_range(-1.0..1.0));
            let m = IntervalMatrix::from_bounds(lo, hi).unwrap();
            let fixed = m.average_replacement();
            prop_assert!(fixed.is_proper());
            prop_assert!(fixed.average_replacement().approx_eq(&fixed, 0.0));
            // Midpoints are preserved by the repair.
            prop_assert!(fixed.mid().approx_eq(&m.mid(), 1e-12));
        }
    }
}
