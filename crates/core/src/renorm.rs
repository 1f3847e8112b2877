//! L2-norm column renormalization (supplementary Algorithm 5, `NORM-MAT`).
//!
//! Decomposition targets b and c re-normalize the averaged factor matrices
//! so their columns are unit length, and push the removed scale into the
//! core matrix (Section 3.4.2). This module implements that renormalization
//! and returns the per-column norms so the caller can rescale `Σ`.

use ivmf_linalg::{ColScale, Matrix};

use crate::target::{for_each_bound_row, LoColumns};
use crate::{IvmfError, Result};

/// Normalizes every column of `m` to unit L2 norm.
///
/// Returns the normalized matrix and the vector of original column norms.
/// Columns whose norm is not above `f64::EPSILON` (numerically zero, or
/// NaN) are left untouched and report their norm as computed — it is not
/// replaced by `0.0`; the caller multiplies the corresponding core entry by
/// that negligible norm, the only consistent interpretation of a degenerate
/// latent direction.
///
/// Target assembly uses the fused [`normalized_mean`]; this single-matrix
/// form stays as the reference its tests check against.
#[cfg_attr(not(test), allow(dead_code))]
pub fn normalize_columns(m: &Matrix) -> (Matrix, Vec<f64>) {
    let mut out = m.clone();
    let norms = m.col_norms();
    out.scale_cols_or_zero(&renorm_scales(&norms))
        .expect("one scale per column");
    (out, norms)
}

/// [`normalize_columns`] of the entry-wise mean `(lo + hi) / 2`, with
/// `lo`'s columns read through `lo_cols` when given, without materializing
/// the mean or the aligned `lo`: a read pass folds the mean's column norms
/// (ascending rows, exactly as [`Matrix::col_norms`] would), then one pass
/// writes each mean entry times its column's scale. Bitwise equal to
/// `normalize_columns(&lo.mean_with(hi)?)` of the aligned `lo`.
pub(crate) fn normalized_mean(
    lo: &Matrix,
    lo_cols: Option<&LoColumns<'_>>,
    hi: &Matrix,
) -> Result<(Matrix, Vec<f64>)> {
    let (rows, cols) = lo.shape();
    if hi.shape() != (rows, cols) {
        return Err(IvmfError::InvalidInput(
            "minimum and maximum factors must have identical shapes".to_string(),
        ));
    }
    // `-0.0` is the neutral element of `f64`'s `Sum` (see `col_norms`).
    let mut acc = vec![-0.0_f64; cols];
    for_each_bound_row(lo, lo_cols, hi, |l, h| {
        for ((a, &x), &y) in acc.iter_mut().zip(l).zip(h) {
            let mean = 0.5 * (x + y);
            *a += mean * mean;
        }
    });
    let norms: Vec<f64> = acc.into_iter().map(f64::sqrt).collect();
    let scales = renorm_scales(&norms);
    let mut out = Vec::with_capacity(rows * cols);
    for_each_bound_row(lo, lo_cols, hi, |l, h| {
        let means = l.iter().zip(h).map(|(&x, &y)| 0.5 * (x + y));
        out.extend(means.zip(&scales).map(|(mean, scale)| scale.apply(mean)));
    });
    Ok((Matrix::from_vec(rows, cols, out)?, norms))
}

/// Per-column scaling of the renormalization: `1/norm` for columns with a
/// norm above `f64::EPSILON`, untouched otherwise.
fn renorm_scales(norms: &[f64]) -> Vec<ColScale> {
    norms
        .iter()
        .map(|&norm| {
            if norm > f64::EPSILON {
                ColScale::By(1.0 / norm)
            } else {
                ColScale::Keep
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_become_unit_length() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![4.0, 2.0]]);
        let (n, norms) = normalize_columns(&m);
        assert!((norms[0] - 5.0).abs() < 1e-12);
        assert!((norms[1] - 2.0).abs() < 1e-12);
        assert!((n.col_norm(0) - 1.0).abs() < 1e-12);
        assert!((n.col_norm(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn renormalization_preserves_product_with_core() {
        // U diag(s) Vᵀ must be unchanged when norms are pushed into s.
        let u = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]);
        let v = Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 5.0]]);
        let s = [7.0, 11.0];
        let original = u
            .matmul(&Matrix::from_diag(&s))
            .unwrap()
            .matmul(&v.transpose())
            .unwrap();
        let (un, nu) = normalize_columns(&u);
        let (vn, nv) = normalize_columns(&v);
        let s_rescaled: Vec<f64> = (0..2).map(|j| s[j] * nu[j] * nv[j]).collect();
        let rebuilt = un
            .matmul(&Matrix::from_diag(&s_rescaled))
            .unwrap()
            .matmul(&vn.transpose())
            .unwrap();
        assert!(original.approx_eq(&rebuilt, 1e-12));
    }

    #[test]
    fn zero_columns_are_left_alone() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 0.0]]);
        let (n, norms) = normalize_columns(&m);
        assert_eq!(norms[0], 0.0);
        assert_eq!(n.col(0), vec![0.0, 0.0]);
        assert!((norms[1] - 1.0).abs() < 1e-12);
    }

    /// The column-at-a-time renormalization the row-major pass replaced.
    fn normalize_columns_oracle(m: &Matrix) -> (Matrix, Vec<f64>) {
        let mut out = m.clone();
        let mut norms = Vec::with_capacity(m.cols());
        for j in 0..m.cols() {
            let norm = m.col_norm(j);
            norms.push(norm);
            if norm > f64::EPSILON {
                out.scale_col(j, 1.0 / norm);
            }
        }
        (out, norms)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn prop_renormalization_matches_column_oracle(seed in 0u64..1_000_000) {
            use crate::test_support::assert_same_bits;
            use ivmf_linalg::random::{bit_pattern, edge_case_matrix};
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let rows = [1usize, 127, 129, 300][rng.gen_range(0..4usize)];
            let cols = if seed % 3 == 0 { 1 } else { rng.gen_range(1usize..24) };
            let (lo, mut hi) = (
                edge_case_matrix(&mut rng, rows, cols),
                edge_case_matrix(&mut rng, rows, cols),
            );
            // A negligible column and a mean that cancels to ±0.
            let j = rng.gen_range(0..cols);
            for i in 0..rows {
                hi[(i, j)] = 1e-200;
            }
            let bits = |v: &[f64]| v.iter().map(|&x| bit_pattern(x)).collect::<Vec<_>>();
            let (fast, fast_norms) = normalize_columns(&lo);
            let (slow, slow_norms) = normalize_columns_oracle(&lo);
            assert_same_bits(&fast, &slow, "normalize_columns");
            proptest::prop_assert_eq!(bits(&fast_norms), bits(&slow_norms));
            let (fused, fused_norms) = normalized_mean(&lo, None, &hi).unwrap();
            let (slow, slow_norms) = normalize_columns_oracle(&lo.mean_with(&hi).unwrap());
            assert_same_bits(&fused, &slow, "normalized_mean");
            proptest::prop_assert_eq!(bits(&fused_norms), bits(&slow_norms));
            // Read through an alignment: the columns `apply_to_columns`
            // would copy out, flipped ones included.
            let mut mapping: Vec<usize> = (0..cols).collect();
            for j in (1..cols).rev() {
                mapping.swap(j, rng.gen_range(0..=j));
            }
            let alignment = ivmf_align::Alignment {
                mapping,
                flip: (0..cols).map(|_| rng.gen_bool(0.5)).collect(),
                matched_similarity: vec![1.0; cols],
            };
            let lo_cols = LoColumns::new(&alignment, cols).unwrap();
            let (fused, fused_norms) = normalized_mean(&lo, Some(&lo_cols), &hi).unwrap();
            let aligned = alignment.apply_to_columns(&lo).unwrap();
            let (slow, slow_norms) = normalize_columns_oracle(&aligned.mean_with(&hi).unwrap());
            assert_same_bits(&fused, &slow, "aligned normalized_mean");
            proptest::prop_assert_eq!(bits(&fused_norms), bits(&slow_norms));
        }
    }

    #[test]
    fn normalized_mean_rejects_mismatched_bounds() {
        assert!(normalized_mean(&Matrix::zeros(2, 2), None, &Matrix::zeros(3, 2)).is_err());
    }
}
