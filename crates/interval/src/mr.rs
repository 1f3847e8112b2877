//! Midpoint–radius interval matrices and the Rump-style fast product.
//!
//! The paper's interval matrix product (supplementary Algorithm 1, exposed
//! as [`IntervalMatrix::interval_matmul`]) computes **four** scalar matrix
//! products per interval product. Following Rump's midpoint–radius
//! arithmetic ("Fast and parallel interval arithmetic", BIT 1999), an
//! interval matrix `⟨M, R⟩ = [M − R, M + R]` admits a sound product
//! enclosure from **two** scalar products:
//!
//! ```text
//! P1 = mA · mB
//! P2 = (|mA| + rA) · (|mB| + rB)
//! ⟨A⟩ · ⟨B⟩ ⊆ ⟨P1, P2 − |P1|⟩
//! ```
//!
//! Soundness: the standard midpoint–radius product radius is
//! `|mA|·rB + rA·|mB| + rA·rB = P2 − |mA|·|mB|` and the triangle
//! inequality gives `|P1| ≤ |mA|·|mB|` entry-wise, so `P2 − |P1|` can only
//! be *larger* than that radius. The enclosure therefore always contains
//! the exact interval product — and hence the paper's four-product
//! endpoint envelope, whose corners are products of contained scalar
//! matrices. The overestimation is second order in the radii: for
//! non-negative data the upper bound is exact (`mA·mB + rad = A_hi·B_hi`)
//! and the lower bound is relaxed by `2·rA·rB`, because the product hull
//! is not centred on `mA·mB`; sign-mixing midpoint inner products add the
//! `|mA|·|mB| − |mA·mB|` slack on top.
//!
//! Both scalar products run on the blocked, parallel
//! [`ivmf_linalg::Matrix::matmul`] kernel, so the fast path is a
//! multiplicative win twice over: half the products, each product faster.
//! The four-product path stays available (and is the containment oracle of
//! the property tests); [`IntervalMatrix::interval_matmul_fast`] picks
//! between the two by product size.

use ivmf_linalg::Matrix;

use crate::{IntervalError, IntervalMatrix, Result};

/// A dense interval matrix in midpoint–radius representation
/// `⟨mid, rad⟩ = [mid − rad, mid + rad]` with `rad ≥ 0` entry-wise.
///
/// This is the representation of Rump's fast interval arithmetic; convert
/// with [`MrMatrix::from_interval`] / [`MrMatrix::to_interval`]. Improper
/// (mis-ordered) entries of an [`IntervalMatrix`] convert through their
/// hull, i.e. `rad = |hi − lo| / 2`.
#[derive(Debug, Clone, PartialEq)]
pub struct MrMatrix {
    mid: Matrix,
    rad: Matrix,
}

impl MrMatrix {
    /// Builds a midpoint–radius matrix from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`IntervalError::DimensionMismatch`] when the shapes differ
    /// and [`IntervalError::NotANumber`] when a radius entry is negative or
    /// NaN.
    pub fn new(mid: Matrix, rad: Matrix) -> Result<Self> {
        if mid.shape() != rad.shape() {
            return Err(IntervalError::DimensionMismatch {
                op: "mr_matrix_new",
                lhs: mid.shape(),
                rhs: rad.shape(),
            });
        }
        if rad.as_slice().iter().any(|&r| r.is_nan() || r < 0.0) {
            return Err(IntervalError::NotANumber);
        }
        Ok(MrMatrix { mid, rad })
    }

    /// Converts a lo/hi interval matrix to midpoint–radius form. Improper
    /// entries are widened to their hull (`rad = |hi − lo| / 2`).
    pub fn from_interval(m: &IntervalMatrix) -> MrMatrix {
        let mid = m.mid();
        let rad = m.spans().map(|s| 0.5 * s.abs());
        MrMatrix { mid, rad }
    }

    /// Converts back to the lo/hi representation
    /// `[mid − rad, mid + rad]`.
    pub fn to_interval(&self) -> IntervalMatrix {
        let lo = self.mid.sub(&self.rad).expect("parts share a shape");
        let hi = self.mid.add(&self.rad).expect("parts share a shape");
        IntervalMatrix::from_bounds(lo, hi).expect("parts share a shape")
    }

    /// Midpoint matrix.
    pub fn mid(&self) -> &Matrix {
        &self.mid
    }

    /// Radius matrix (entry-wise non-negative).
    pub fn rad(&self) -> &Matrix {
        &self.rad
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.mid.shape()
    }

    /// Rump's two-product enclosure of the interval matrix product.
    ///
    /// Costs two scalar matrix multiplications (`mid·mid` and the
    /// absolute-sum product) against the four of the lo/hi endpoint
    /// envelope, and is guaranteed to contain it (see the module docs).
    pub fn matmul(&self, rhs: &MrMatrix) -> Result<MrMatrix> {
        if self.shape().1 != rhs.shape().0 {
            return Err(IntervalError::DimensionMismatch {
                op: "mr_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let p1 = self.mid.matmul(&rhs.mid)?;
        let a_sum = self.mid.map(f64::abs).add(&self.rad)?;
        let b_sum = rhs.mid.map(f64::abs).add(&rhs.rad)?;
        let p2 = a_sum.matmul(&b_sum)?;
        // P2 ≥ |P1| holds in exact arithmetic; clamp the handful of ulps
        // rounding can shave off so the radius stays non-negative.
        let rad = p2.sub(&p1.map(f64::abs))?.map(|x| x.max(0.0));
        Ok(MrMatrix { mid: p1, rad })
    }

    /// Rump's two-product enclosure of the interval Gram matrix
    /// `⟨self⟩ᵀ · ⟨self⟩`.
    ///
    /// Both products of [`MrMatrix::matmul`] become *symmetric* when the
    /// operands are a matrix and its own transpose — `P1 = midᵀ·mid` and
    /// `P2 = (|mid|+rad)ᵀ(|mid|+rad)` — so they run on the SYRK kernel
    /// ([`ivmf_linalg::Matrix::gram`]): half the multiplications of the
    /// general product, no transpose materialized, and the enclosure is
    /// exactly symmetric by construction.
    pub fn gram(&self) -> MrMatrix {
        let p1 = self.mid.gram();
        let sum = self
            .mid
            .map(f64::abs)
            .add(&self.rad)
            .expect("parts share a shape");
        let p2 = sum.gram();
        // Same clamp as the general product: P2 ≥ |P1| up to rounding.
        let rad = p2
            .sub(&p1.map(f64::abs))
            .expect("gram outputs share a shape")
            .map(|x| x.max(0.0));
        MrMatrix { mid: p1, rad }
    }
}

impl IntervalMatrix {
    /// Midpoint–radius fast path for the interval matrix product: converts
    /// both operands to [`MrMatrix`], multiplies with Rump's two-product
    /// enclosure and converts back.
    ///
    /// The result always *contains* the four-product envelope of
    /// [`IntervalMatrix::interval_matmul`] (property-tested against it as
    /// the oracle); the overestimation is second order in the interval
    /// radii (see the module docs in `mr.rs`).
    pub fn interval_matmul_mr(&self, rhs: &IntervalMatrix) -> Result<IntervalMatrix> {
        Ok(MrMatrix::from_interval(self)
            .matmul(&MrMatrix::from_interval(rhs))?
            .to_interval())
    }

    /// Size-dispatched interval product: the paper's exact four-product
    /// envelope below [`MR_MIN_WORK`] scalar multiplications, the
    /// midpoint–radius enclosure of [`IntervalMatrix::interval_matmul_mr`]
    /// at or above it.
    ///
    /// [`ivmf_env::Settings::exact_interval`] (`IVMF_EXACT_INTERVAL=1`)
    /// forces the four-product envelope at every size (for bit-faithful
    /// reproduction of the paper's operator at experiment scale).
    pub fn interval_matmul_fast(&self, rhs: &IntervalMatrix) -> Result<IntervalMatrix> {
        let work = self.rows() * self.cols() * rhs.cols();
        if work >= MR_MIN_WORK && !exact_interval_forced() {
            self.interval_matmul_mr(rhs)
        } else {
            self.interval_matmul(rhs)
        }
    }

    /// Size-dispatched interval Gram matrix `M†ᵀ · M†`: the paper's exact
    /// four-product envelope (symmetry-aware, see
    /// [`IntervalMatrix::interval_gram`]) below [`MR_MIN_WORK`] scalar
    /// multiplications, the midpoint–radius SYRK enclosure
    /// ([`MrMatrix::gram`]) at or above it. The exact-interval setting pins the
    /// exact envelope at every size, exactly as for
    /// [`IntervalMatrix::interval_matmul_fast`].
    pub fn interval_gram_fast(&self) -> Result<IntervalMatrix> {
        let (n, m) = self.shape();
        let work = m * n * m;
        if work >= MR_MIN_WORK && !exact_interval_forced() {
            Ok(MrMatrix::from_interval(self).gram().to_interval())
        } else {
            self.interval_gram()
        }
    }
}

/// Scalar-multiplication count (`n·k·m`) at which
/// [`IntervalMatrix::interval_matmul_fast`] switches from the exact
/// four-product envelope to the midpoint–radius enclosure. Chosen so the
/// unit/integration-test sizes keep the paper's exact operator while
/// experiment-scale products take the fast path.
pub const MR_MIN_WORK: usize = 64 * 64 * 64;

/// True when the settings in force on this thread
/// ([`ivmf_env::Settings::exact_interval`]) pin the exact four-product
/// envelope at every size.
///
/// Public because the interval-product flavour is part of the arithmetic
/// fingerprint of any computation built on the fast-path operators (the
/// decomposition pipeline's stage cache keys on it, for example).
pub fn exact_interval_forced() -> bool {
    ivmf_env::Settings::current().exact_interval
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sign_crossing_interval_matrix(
        rng: &mut SmallRng,
        rows: usize,
        cols: usize,
    ) -> IntervalMatrix {
        // Lower bounds spanning both signs, spans including zero-width —
        // the regimes where the MR enclosure differs most from the oracle.
        let lo = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0..3.0));
        let span = Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_range(0.0..1.0) < 0.2 {
                0.0
            } else {
                rng.gen_range(0.0..2.0)
            }
        });
        let hi = lo.add(&span).unwrap();
        IntervalMatrix::from_bounds(lo, hi).unwrap()
    }

    #[test]
    fn round_trip_through_mr_representation() {
        let m = IntervalMatrix::from_bounds(
            Matrix::from_rows(&[vec![1.0, -2.0], vec![0.0, 4.0]]),
            Matrix::from_rows(&[vec![2.0, -1.0], vec![1.0, 4.0]]),
        )
        .unwrap();
        let mr = MrMatrix::from_interval(&m);
        assert_eq!(mr.shape(), (2, 2));
        assert_eq!(mr.mid()[(0, 0)], 1.5);
        assert_eq!(mr.rad()[(0, 0)], 0.5);
        assert_eq!(mr.rad()[(1, 1)], 0.0);
        assert!(mr.to_interval().approx_eq(&m, 1e-15));
    }

    #[test]
    fn improper_entries_convert_through_their_hull() {
        let m = IntervalMatrix::from_bounds(
            Matrix::from_rows(&[vec![3.0]]),
            Matrix::from_rows(&[vec![1.0]]),
        )
        .unwrap();
        let mr = MrMatrix::from_interval(&m);
        assert_eq!(mr.mid()[(0, 0)], 2.0);
        assert_eq!(mr.rad()[(0, 0)], 1.0); // |hi - lo| / 2, not negative
        assert!(mr.to_interval().is_proper());
    }

    #[test]
    fn construction_validates_shape_and_radius() {
        assert!(MrMatrix::new(Matrix::zeros(2, 2), Matrix::zeros(2, 3)).is_err());
        assert!(MrMatrix::new(Matrix::zeros(2, 2), Matrix::filled(2, 2, -0.1)).is_err());
        assert!(MrMatrix::new(Matrix::zeros(2, 2), Matrix::filled(2, 2, f64::NAN)).is_err());
        assert!(MrMatrix::new(Matrix::zeros(2, 2), Matrix::zeros(2, 2)).is_ok());
    }

    #[test]
    fn mr_product_rejects_bad_shapes() {
        let a = MrMatrix::new(Matrix::zeros(2, 3), Matrix::zeros(2, 3)).unwrap();
        let b = MrMatrix::new(Matrix::zeros(2, 3), Matrix::zeros(2, 3)).unwrap();
        assert!(a.matmul(&b).is_err());
        let m = IntervalMatrix::zeros(2, 3);
        assert!(m.interval_matmul_mr(&IntervalMatrix::zeros(2, 3)).is_err());
        assert!(m
            .interval_matmul_fast(&IntervalMatrix::zeros(2, 3))
            .is_err());
    }

    #[test]
    fn mr_product_overestimation_is_second_order_for_nonnegative_data() {
        // No sign mixing: the upper bound is exact and the lower bound is
        // relaxed by exactly 2·rA·rB (the hull is not centred on mA·mB).
        let mut rng = SmallRng::seed_from_u64(5);
        let lo = Matrix::from_fn(4, 5, |_, _| rng.gen_range(0.5..3.0));
        let span = Matrix::from_fn(4, 5, |_, _| rng.gen_range(0.0..1.0));
        let a = IntervalMatrix::from_bounds(lo.clone(), lo.add(&span).unwrap()).unwrap();
        let b = a.transpose();
        let oracle = a.interval_matmul(&b).unwrap();
        let fast = a.interval_matmul_mr(&b).unwrap();
        assert!(fast.hi().approx_eq(oracle.hi(), 1e-9), "upper bound exact");
        let slack = MrMatrix::from_interval(&a)
            .rad()
            .matmul(MrMatrix::from_interval(&b).rad())
            .unwrap()
            .scale(2.0);
        let expected_lo = oracle.lo().sub(&slack).unwrap();
        assert!(
            fast.lo().approx_eq(&expected_lo, 1e-9),
            "lower bound slack 2·rA·rB"
        );
    }

    #[test]
    fn fast_dispatch_uses_oracle_below_threshold() {
        let mut rng = SmallRng::seed_from_u64(6);
        let a = sign_crossing_interval_matrix(&mut rng, 4, 6);
        let b = sign_crossing_interval_matrix(&mut rng, 6, 3);
        // 4·6·3 is far below MR_MIN_WORK: results must be identical to the
        // paper's operator.
        let fast = a.interval_matmul_fast(&b).unwrap();
        let oracle = a.interval_matmul(&b).unwrap();
        assert_eq!(fast, oracle);
    }

    #[test]
    fn exact_env_pins_fast_dispatch_to_oracle() {
        let mut rng = SmallRng::seed_from_u64(7);
        // 24³ below, 64³ above — build one above-threshold product.
        let a = sign_crossing_interval_matrix(&mut rng, 64, 64);
        let b = sign_crossing_interval_matrix(&mut rng, 64, 64);
        let pinned = crate::test_env::exact().scope(|| a.interval_matmul_fast(&b).unwrap());
        let oracle = a.interval_matmul(&b).unwrap();
        assert_eq!(pinned, oracle);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]
        #[test]
        fn prop_mr_product_contains_four_product_envelope(seed in 0u64..1_000_000) {
            // The acceptance property of the fast path: the midpoint–radius
            // enclosure must contain the lo/hi reference result entry-wise,
            // for positive, negative and sign-crossing intervals alike.
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..6);
            let k = rng.gen_range(1usize..7);
            let m = rng.gen_range(1usize..5);
            let a = sign_crossing_interval_matrix(&mut rng, n, k);
            let b = sign_crossing_interval_matrix(&mut rng, k, m);
            let oracle = a.interval_matmul(&b).unwrap();
            let fast = a.interval_matmul_mr(&b).unwrap();
            prop_assert!(fast.is_proper());
            let tol = 1e-9 * (1.0 + fast.hi().max_abs().max(fast.lo().max_abs()));
            for i in 0..n {
                for j in 0..m {
                    let (olo, ohi) = oracle.get_raw(i, j);
                    let (flo, fhi) = fast.get_raw(i, j);
                    prop_assert!(
                        flo <= olo + tol && fhi >= ohi - tol,
                        "entry ({i},{j}): MR [{flo}, {fhi}] does not contain oracle [{olo}, {ohi}]"
                    );
                }
            }
        }
    }
}
