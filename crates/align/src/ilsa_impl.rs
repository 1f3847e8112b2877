//! The ILSA driver: similarity → assignment → direction flags, plus helpers
//! to apply the alignment to factor matrices and singular-value vectors.

use ivmf_linalg::{ColScale, Matrix};

use crate::cosine::similarity_matrix;
use crate::greedy::greedy_mapping;
use crate::hungarian::hungarian_max;
use crate::stable::stable_matching;
use crate::{AlignError, Result};

/// Which assignment algorithm ILSA uses to pair minimum- and maximum-side
/// latent vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Matcher {
    /// The paper's greedy conflict-resolving heuristic (supplementary
    /// Algorithm 6). Fast, not guaranteed optimal.
    Greedy,
    /// The optimal linear-assignment solution of Problem 2 (Hungarian
    /// algorithm, `O(r³)`). This is the default, matching the formulation
    /// the paper adopts for its experiments.
    #[default]
    Hungarian,
    /// The stable-marriage formulation of Problem 1 (Gale–Shapley, `O(r²)`).
    StableMarriage,
}

/// The result of interval-valued latent semantic alignment.
///
/// `mapping[j] = i` states that the `j`-th maximum-side latent vector is
/// paired with the `i`-th minimum-side latent vector; `flip[j]` states that
/// the paired minimum-side vector must be negated so both point in the same
/// direction. `matched_similarity[j]` is the absolute cosine of the matched
/// pair (useful for diagnostics such as Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Permutation assigning a minimum-side index to every maximum-side
    /// column.
    pub mapping: Vec<usize>,
    /// Whether the matched minimum-side vector must be sign-flipped.
    pub flip: Vec<bool>,
    /// Absolute cosine similarity of each matched pair.
    pub matched_similarity: Vec<f64>,
}

impl Alignment {
    /// The identity alignment of size `r` (no permutation, no flips).
    pub fn identity(r: usize) -> Self {
        Alignment {
            mapping: (0..r).collect(),
            flip: vec![false; r],
            matched_similarity: vec![1.0; r],
        }
    }

    /// Number of aligned latent dimensions.
    pub fn len(&self) -> usize {
        self.mapping.len()
    }

    /// True when the alignment is empty.
    pub fn is_empty(&self) -> bool {
        self.mapping.is_empty()
    }

    /// Mean matched similarity — a single-number summary of how precise the
    /// aligned interval latent space is.
    pub fn mean_similarity(&self) -> f64 {
        if self.matched_similarity.is_empty() {
            return 0.0;
        }
        self.matched_similarity.iter().sum::<f64>() / self.matched_similarity.len() as f64
    }

    /// Applies the alignment to a minimum-side factor matrix (columns are
    /// latent vectors): output column `j` is input column `mapping[j]`,
    /// negated when `flip[j]` is set.
    ///
    /// This is the "adjust the rank-order and directions" step of
    /// Algorithms 8–11.
    pub fn apply_to_columns(&self, m: &Matrix) -> Result<Matrix> {
        if m.cols() != self.mapping.len() {
            return Err(AlignError::ShapeMismatch {
                min_shape: m.shape(),
                max_shape: (m.rows(), self.mapping.len()),
            });
        }
        // One row-major pass: each output row gathers the mapped entries,
        // multiplying the flipped ones by -1.0.
        let signs: Vec<ColScale> = self
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
        Ok(m.permute_cols_scaled(&self.mapping, &signs)?)
    }

    /// Applies the alignment's permutation (but not the sign flips) to a
    /// vector of singular values / eigenvalues.
    pub fn apply_to_diag(&self, diag: &[f64]) -> Result<Vec<f64>> {
        if diag.len() != self.mapping.len() {
            return Err(AlignError::ShapeMismatch {
                min_shape: (diag.len(), 1),
                max_shape: (self.mapping.len(), 1),
            });
        }
        Ok(self.mapping.iter().map(|&i| diag[i]).collect())
    }
}

/// Runs interval-valued latent semantic alignment between the columns of
/// `v_min` and `v_max` (both `m x r`).
///
/// # Errors
///
/// * [`AlignError::ShapeMismatch`] when the factors differ in shape.
/// * [`AlignError::Empty`] when the factors have zero columns.
pub fn ilsa(v_min: &Matrix, v_max: &Matrix, matcher: Matcher) -> Result<Alignment> {
    if v_min.shape() != v_max.shape() {
        return Err(AlignError::ShapeMismatch {
            min_shape: v_min.shape(),
            max_shape: v_max.shape(),
        });
    }
    if v_min.cols() == 0 {
        return Err(AlignError::Empty);
    }

    let pair = similarity_matrix(v_min, v_max);
    let mapping = match matcher {
        Matcher::Greedy => greedy_mapping(&pair.sim),
        Matcher::Hungarian => hungarian_max(&pair.sim),
        Matcher::StableMarriage => stable_matching(&pair.sim),
    };
    let flip: Vec<bool> = mapping
        .iter()
        .enumerate()
        .map(|(j, &i)| pair.negative[i][j])
        .collect();
    let matched_similarity: Vec<f64> = mapping
        .iter()
        .enumerate()
        .map(|(j, &i)| pair.sim[(i, j)])
        .collect();

    Ok(Alignment {
        mapping,
        flip,
        matched_similarity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivmf_linalg::norms::cosine_similarity;
    use ivmf_linalg::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identity_alignment_for_identical_factors() {
        let v = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        for matcher in [Matcher::Greedy, Matcher::Hungarian, Matcher::StableMarriage] {
            let a = ilsa(&v, &v, matcher).unwrap();
            assert_eq!(a.mapping, vec![0, 1]);
            assert_eq!(a.flip, vec![false, false]);
            assert!((a.mean_similarity() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn recovers_permutation_and_sign_flip() {
        let v_min = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        // Max factor: column 0 = second min column, column 1 = -first min column.
        let v_max = Matrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]]);
        let a = ilsa(&v_min, &v_max, Matcher::Hungarian).unwrap();
        assert_eq!(a.mapping, vec![1, 0]);
        assert_eq!(a.flip, vec![false, true]);

        // Applying the alignment to v_min makes its columns match v_max.
        let aligned = a.apply_to_columns(&v_min).unwrap();
        for j in 0..2 {
            let c = cosine_similarity(&aligned.col(j), &v_max.col(j));
            assert!(c > 0.999, "column {j} not aligned, cos = {c}");
        }
    }

    #[test]
    fn alignment_never_decreases_mean_matched_cosine_on_random_factors() {
        let mut rng = SmallRng::seed_from_u64(81);
        for _ in 0..20 {
            let r = rng.gen_range(2..8);
            let v_min = uniform_matrix(&mut rng, 12, r, -1.0, 1.0);
            // v_max: randomly permuted, randomly flipped, noisy copy.
            let mut perm: Vec<usize> = (0..r).collect();
            for i in (1..r).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            let mut v_max = Matrix::zeros(12, r);
            for j in 0..r {
                let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                for i in 0..12 {
                    v_max[(i, j)] = sign * v_min[(i, perm[j])] + rng.gen_range(-0.05..0.05);
                }
            }
            let before: f64 = (0..r)
                .map(|j| cosine_similarity(&v_min.col(j), &v_max.col(j)))
                .sum::<f64>()
                / r as f64;
            let a = ilsa(&v_min, &v_max, Matcher::Hungarian).unwrap();
            let aligned = a.apply_to_columns(&v_min).unwrap();
            let after: f64 = (0..r)
                .map(|j| cosine_similarity(&aligned.col(j), &v_max.col(j)))
                .sum::<f64>()
                / r as f64;
            assert!(
                after >= before - 1e-9,
                "alignment decreased mean cosine: {before} -> {after}"
            );
            assert!(after > 0.9, "aligned cosine too low: {after}");
        }
    }

    #[test]
    fn hungarian_is_at_least_as_good_as_greedy_and_stable() {
        let mut rng = SmallRng::seed_from_u64(82);
        for _ in 0..20 {
            let r = rng.gen_range(2..7);
            let v_min = uniform_matrix(&mut rng, 10, r, -1.0, 1.0);
            let v_max = uniform_matrix(&mut rng, 10, r, -1.0, 1.0);
            let hung = ilsa(&v_min, &v_max, Matcher::Hungarian).unwrap();
            let greedy = ilsa(&v_min, &v_max, Matcher::Greedy).unwrap();
            let stable = ilsa(&v_min, &v_max, Matcher::StableMarriage).unwrap();
            let sum = |a: &Alignment| a.matched_similarity.iter().sum::<f64>();
            assert!(sum(&hung) >= sum(&greedy) - 1e-9);
            assert!(sum(&hung) >= sum(&stable) - 1e-9);
        }
    }

    #[test]
    fn apply_to_diag_permutes_entries() {
        let a = Alignment {
            mapping: vec![2, 0, 1],
            flip: vec![false, true, false],
            matched_similarity: vec![1.0; 3],
        };
        assert_eq!(
            a.apply_to_diag(&[10.0, 20.0, 30.0]).unwrap(),
            vec![30.0, 10.0, 20.0]
        );
        assert!(a.apply_to_diag(&[1.0]).is_err());
    }

    #[test]
    fn shape_errors_are_reported() {
        let v = Matrix::zeros(3, 2);
        assert!(matches!(
            ilsa(&v, &Matrix::zeros(3, 3), Matcher::Hungarian),
            Err(AlignError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            ilsa(
                &Matrix::zeros(3, 0),
                &Matrix::zeros(3, 0),
                Matcher::Hungarian
            ),
            Err(AlignError::Empty)
        ));
        let a = Alignment::identity(3);
        assert!(a.apply_to_columns(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn identity_helper() {
        let a = Alignment::identity(4);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        let m = Matrix::identity(4);
        assert_eq!(a.apply_to_columns(&m).unwrap(), m);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn prop_apply_to_columns_matches_column_oracle(seed in 0u64..1_000_000) {
            use ivmf_linalg::random::{bit_pattern, edge_case_matrix};
            let mut rng = SmallRng::seed_from_u64(seed);
            let rows = [1usize, 127, 129, 300][rng.gen_range(0..4usize)];
            let r = if seed % 3 == 0 { 1 } else { rng.gen_range(1usize..24) };
            let m = edge_case_matrix(&mut rng, rows, r);
            let mut mapping: Vec<usize> = (0..r).collect();
            for i in (1..r).rev() {
                mapping.swap(i, rng.gen_range(0..=i));
            }
            let a = Alignment {
                mapping,
                flip: (0..r).map(|_| rng.gen_bool(0.5)).collect(),
                matched_similarity: vec![1.0; r],
            };
            // The two-step column-at-a-time version the fused pass replaced.
            let mut oracle = Matrix::zeros(rows, r);
            for (j_new, &j_old) in a.mapping.iter().enumerate() {
                for i in 0..rows {
                    oracle[(i, j_new)] = m[(i, j_old)];
                }
            }
            for (j, &flip) in a.flip.iter().enumerate() {
                if flip {
                    oracle.scale_col(j, -1.0);
                }
            }
            let fast = a.apply_to_columns(&m).unwrap();
            let bits = |x: &Matrix| x.as_slice().iter().map(|&v| bit_pattern(v)).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&fast), bits(&oracle));
        }
    }
}
