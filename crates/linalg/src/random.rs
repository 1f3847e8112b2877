//! Random matrix constructors used by tests, property tests and workload
//! generators.

use std::fmt::{Debug, Display};

use rand::Rng;

use crate::{Matrix, MATMUL_BLOCKED_MIN_WORK};

/// A matrix with entries drawn uniformly from `[lo, hi)`.
pub fn uniform_matrix<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    lo: f64,
    hi: f64,
) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// IEEE edge values mixed into [`edge_case_matrix`]: signed zeros,
/// subnormals, the smallest normal, NaN, infinities and a value whose
/// square overflows.
pub const EDGE_VALUES: [f64; 9] = [
    0.0,
    -0.0,
    5e-324,
    -2.5e-310,
    f64::MIN_POSITIVE,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
];

/// A matrix with entries uniform in `[-1, 1)`, about a quarter of them
/// replaced by an [`EDGE_VALUES`] entry — input for the bitwise oracle
/// tests of element-wise kernels.
pub fn edge_case_matrix<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0..4usize) == 0 {
            EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
        } else {
            rng.gen_range(-1.0..1.0)
        }
    })
}

/// The bit pattern of `x`, with every NaN mapped to one canonical NaN —
/// the comparison key of the bitwise oracle tests. Rust leaves the sign
/// and payload of a NaN *result* unspecified (the compiler may commute
/// the operands of `a + b`, and x86 propagates the first NaN operand), so
/// two equivalent kernels agree on NaN-ness, not on NaN bits. Every other
/// value, signed zeros and subnormals included, compares bit for bit.
pub fn bit_pattern(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// [`edge_case_matrix`] with every entry that is non-finite or of
/// magnitude `1e10` or more replaced by `0.0`: the signed zeros,
/// subnormals and ordinary values survive.
pub fn finite_edge_case_matrix<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    edge_case_matrix(rng, rows, cols).map(|x| {
        if x.is_finite() && x.abs() < 1e10 {
            x
        } else {
            0.0
        }
    })
}

/// Named `n × r` inputs for the bitwise oracles of the pseudo-inverse
/// and its callers: raw edge cases (NaN and ±Inf make the eigensolver
/// reject the Gram), edge cases with only the finite small ones kept (±0
/// and subnormals), a rank-deficient matrix with a repeated column, and a
/// matrix with a `+0` and a `-0` column.
pub fn factor_edge_cases<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    r: usize,
) -> Vec<(&'static str, Matrix)> {
    let edge = edge_case_matrix(rng, n, r);
    let small_edge = finite_edge_case_matrix(rng, n, r);
    let mut deficient = low_rank_matrix(rng, n, r, r.div_ceil(2));
    let mut zero_cols = uniform_matrix(rng, n, r, -1.0, 1.0);
    for i in 0..n {
        deficient[(i, r - 1)] = deficient[(i, 0)];
        zero_cols[(i, 0)] = 0.0;
        zero_cols[(i, r - 1)] = -0.0;
    }
    vec![
        ("edge", edge),
        ("small edge", small_edge),
        ("rank-deficient", deficient),
        ("zero columns", zero_cols),
    ]
}

/// Row counts `n` on both sides of the points where the products of an
/// `n × r` factor switch to the packed kernel: `n·r²` (`A·V`, `W·Uᵀ`)
/// and `n·r²/2` (the Gram) reaching [`MATMUL_BLOCKED_MIN_WORK`], plus
/// `n = r`.
pub fn dispatch_boundary_rows(r: usize) -> [usize; 5] {
    let matmul_point = MATMUL_BLOCKED_MIN_WORK.div_ceil(r * r);
    let gram_point = (2 * MATMUL_BLOCKED_MIN_WORK).div_ceil(r * r);
    [
        r,
        matmul_point - 1,
        matmul_point,
        gram_point - 1,
        gram_point,
    ]
}

/// Asserts two matrices are equal bit for bit, signed zeros included
/// (NaN compares by NaN-ness; see [`bit_pattern`]).
pub fn assert_same_bits(a: &Matrix, b: &Matrix, context: &str) {
    assert_eq!(a.shape(), b.shape(), "{context}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            bit_pattern(*x),
            bit_pattern(*y),
            "{context}: entry {i} ({x} vs {y})"
        );
    }
}

/// Asserts two outcomes agree: both `Ok` with the same bits
/// ([`assert_same_bits`]), or both `Err` with the same message.
pub fn assert_same_outcome<E: Debug + Display>(
    want: &Result<Matrix, E>,
    got: &Result<Matrix, E>,
    context: &str,
) {
    match (want, got) {
        (Ok(w), Ok(g)) => assert_same_bits(w, g, context),
        (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string(), "{context}: error"),
        _ => panic!("{context}: {want:?} vs {got:?}"),
    }
}

/// A matrix with i.i.d. standard normal entries (Box–Muller transform so we
/// only rely on the `rand` core API).
pub fn gaussian_matrix<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    mean: f64,
    std: f64,
) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| mean + std * standard_normal(rng))
}

/// One standard-normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A random symmetric matrix `(A + Aᵀ) / 2` with entries in `[lo, hi)`.
pub fn symmetric_matrix<R: Rng + ?Sized>(rng: &mut R, n: usize, lo: f64, hi: f64) -> Matrix {
    let a = uniform_matrix(rng, n, n, lo, hi);
    a.add(&a.transpose()).expect("same shape").scale(0.5)
}

/// A random low-rank matrix `A = L * Rᵀ` where `L` is `rows x rank` and `R`
/// is `cols x rank`, with factor entries uniform in `[0, 1)`.
///
/// Useful for generating matrices with a controlled spectrum, e.g. rating
/// matrices that genuinely have low-rank latent structure.
pub fn low_rank_matrix<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    rank: usize,
) -> Matrix {
    let l = uniform_matrix(rng, rows, rank, 0.0, 1.0);
    let r = uniform_matrix(rng, cols, rank, 0.0, 1.0);
    l.matmul(&r.transpose()).expect("shapes agree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_entries_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = uniform_matrix(&mut rng, 10, 10, 2.0, 3.0);
        assert!(m.as_slice().iter().all(|&x| (2.0..3.0).contains(&x)));
    }

    #[test]
    fn gaussian_mean_roughly_correct() {
        let mut rng = SmallRng::seed_from_u64(2);
        let m = gaussian_matrix(&mut rng, 50, 50, 10.0, 1.0);
        let mean = m.sum() / 2500.0;
        assert!((mean - 10.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn symmetric_matrix_is_symmetric() {
        let mut rng = SmallRng::seed_from_u64(3);
        let m = symmetric_matrix(&mut rng, 8, -1.0, 1.0);
        assert!(m.approx_eq(&m.transpose(), 1e-15));
    }

    #[test]
    fn low_rank_matrix_has_bounded_rank() {
        let mut rng = SmallRng::seed_from_u64(4);
        let m = low_rank_matrix(&mut rng, 12, 9, 3);
        let f = crate::svd::svd(&m).unwrap();
        // Singular values beyond the requested rank must vanish.
        for &s in &f.singular_values[3..] {
            assert!(s < 1e-6, "unexpected singular value {s}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        assert_eq!(
            uniform_matrix(&mut a, 4, 4, 0.0, 1.0),
            uniform_matrix(&mut b, 4, 4, 0.0, 1.0)
        );
    }
}
