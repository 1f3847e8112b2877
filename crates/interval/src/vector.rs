use ivmf_linalg::norms;

use crate::{Interval, IntervalError, Result};

/// An interval-valued vector stored as paired lower/upper bound vectors.
///
/// Provides the interval dot product used in the quasi-orthonormality
/// discussion (Section 3.2, Theorem 2) and the *vector average replacement*
/// repair of supplementary Algorithm 2 (collapsing mis-ordered entries to
/// their midpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalVector {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl IntervalVector {
    /// Builds an interval vector from bound vectors of equal length.
    ///
    /// The bounds are *not* required to be ordered entry-wise (the ISVD
    /// algorithms routinely produce mis-ordered intermediate bounds); use
    /// [`IntervalVector::is_proper`] / [`IntervalVector::average_replacement`]
    /// to check or repair ordering.
    pub fn from_bounds(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(IntervalError::DimensionMismatch {
                op: "interval_vector",
                lhs: (lo.len(), 1),
                rhs: (hi.len(), 1),
            });
        }
        Ok(IntervalVector { lo, hi })
    }

    /// Builds a degenerate interval vector from a scalar vector.
    pub fn from_scalar(v: &[f64]) -> Self {
        IntervalVector {
            lo: v.to_vec(),
            hi: v.to_vec(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// True when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// Lower-bound entries.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper-bound entries.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Entry `i` as an [`Interval`] (bounds are reordered if necessary).
    pub fn get(&self, i: usize) -> Interval {
        Interval::from_unordered(self.lo[i], self.hi[i]).expect("bounds are finite")
    }

    /// True when every entry satisfies `lo <= hi`.
    pub fn is_proper(&self) -> bool {
        self.lo.iter().zip(&self.hi).all(|(&l, &h)| l <= h)
    }

    /// True when every entry is scalar (`lo == hi`).
    pub fn is_scalar(&self) -> bool {
        self.lo.iter().zip(&self.hi).all(|(&l, &h)| l == h)
    }

    /// The midpoint vector.
    pub fn mid(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| 0.5 * (l + h))
            .collect()
    }

    /// The span of each entry.
    pub fn spans(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(&l, &h)| h - l).collect()
    }

    /// Supplementary Algorithm 2 (vector average replacement): entries whose
    /// bounds are mis-ordered (`lo > hi`) are replaced by their midpoint in
    /// both bounds. Properly ordered entries are untouched.
    pub fn average_replacement(&self) -> IntervalVector {
        let mut out = self.clone();
        for i in 0..out.len() {
            if out.lo[i] > out.hi[i] {
                let mid = 0.5 * (out.lo[i] + out.hi[i]);
                out.lo[i] = mid;
                out.hi[i] = mid;
            }
        }
        out
    }

    /// Interval dot product `self · other` using interval multiplication and
    /// addition (the quantity analysed by Theorem 2).
    pub fn interval_dot(&self, other: &IntervalVector) -> Result<Interval> {
        if self.len() != other.len() {
            return Err(IntervalError::DimensionMismatch {
                op: "interval_dot",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        let mut acc = Interval::scalar(0.0);
        for i in 0..self.len() {
            acc = acc + self.get(i) * other.get(i);
        }
        Ok(acc)
    }

    /// Cosine similarity between the lower-bound and upper-bound vectors —
    /// the "precision" indicator plotted in Figures 3 and 5 of the paper
    /// (the closer to 1, the tighter the interval-valued latent vector).
    pub fn min_max_cosine(&self) -> f64 {
        norms::cosine_similarity(&self.lo, &self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let v = IntervalVector::from_bounds(vec![1.0, 2.0], vec![2.0, 3.0]).unwrap();
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.get(1), Interval::new(2.0, 3.0).unwrap());
        assert!(IntervalVector::from_bounds(vec![1.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn scalar_vector_round_trip() {
        let v = IntervalVector::from_scalar(&[1.0, -2.0]);
        assert!(v.is_scalar());
        assert!(v.is_proper());
        assert_eq!(v.mid(), vec![1.0, -2.0]);
        assert_eq!(v.spans(), vec![0.0, 0.0]);
    }

    #[test]
    fn average_replacement_fixes_misordered_entries() {
        let v = IntervalVector::from_bounds(vec![3.0, 1.0], vec![1.0, 2.0]).unwrap();
        assert!(!v.is_proper());
        let fixed = v.average_replacement();
        assert!(fixed.is_proper());
        assert_eq!(fixed.lo(), &[2.0, 1.0]);
        assert_eq!(fixed.hi(), &[2.0, 2.0]);
    }

    #[test]
    fn interval_dot_of_scalar_vectors_matches_scalar_dot() {
        let a = IntervalVector::from_scalar(&[1.0, 2.0, 3.0]);
        let b = IntervalVector::from_scalar(&[4.0, 5.0, 6.0]);
        let d = a.interval_dot(&b).unwrap();
        assert!(d.is_scalar());
        assert_eq!(d.lo(), 32.0);
    }

    #[test]
    fn interval_dot_with_itself_is_scalar_only_for_scalar_vectors() {
        // Theorem 2: x·x is scalar only when x is scalar-valued.
        let x = IntervalVector::from_bounds(vec![1.0, 2.0], vec![1.5, 2.0]).unwrap();
        assert!(!x.interval_dot(&x).unwrap().is_scalar());
        let s = IntervalVector::from_scalar(&[1.0, 2.0]);
        assert!(s.interval_dot(&s).unwrap().is_scalar());
    }

    #[test]
    fn interval_dot_rejects_length_mismatch() {
        let a = IntervalVector::from_scalar(&[1.0]);
        let b = IntervalVector::from_scalar(&[1.0, 2.0]);
        assert!(a.interval_dot(&b).is_err());
    }

    #[test]
    fn min_max_cosine_is_one_for_identical_bounds() {
        let v = IntervalVector::from_scalar(&[1.0, 2.0, 3.0]);
        assert!((v.min_max_cosine() - 1.0).abs() < 1e-12);
        let w = IntervalVector::from_bounds(vec![1.0, 0.0], vec![0.0, 1.0]).unwrap();
        assert!(w.min_max_cosine().abs() < 1e-12);
    }
}
