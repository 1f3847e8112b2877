//! Decomposition accuracy (Definition 5 of the paper).
//!
//! Given the original interval matrix `M†` and a reconstruction `M̃†`, the
//! paper measures, on each bound separately, the relative Frobenius error
//! `Δ = ‖M − M̃‖_F / ‖M‖_F`, converts it to an accuracy `Θ = max(0, 1 − Δ)`
//! and combines the two bounds with the harmonic mean `Θ_HM`. Higher is
//! better; the harmonic mean punishes a reconstruction that is good on one
//! bound but poor on the other.

use ivmf_interval::IntervalMatrix;
use ivmf_linalg::Matrix;

use crate::{IvmfError, Result};

/// The accuracy report of Definition 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Relative Frobenius error on the minimum bound.
    pub delta_lo: f64,
    /// Relative Frobenius error on the maximum bound.
    pub delta_hi: f64,
    /// Accuracy `max(0, 1 − delta_lo)`.
    pub theta_lo: f64,
    /// Accuracy `max(0, 1 − delta_hi)`.
    pub theta_hi: f64,
    /// Harmonic mean of the two accuracies (`Θ_HM`, the headline number of
    /// every accuracy table/figure in the paper).
    pub harmonic_mean: f64,
}

/// Computes Definition 5's accuracy of a reconstruction against the
/// original interval matrix.
///
/// # Errors
///
/// Returns [`IvmfError::InvalidInput`] when the shapes differ.
pub fn reconstruction_accuracy(
    original: &IntervalMatrix,
    reconstructed: &IntervalMatrix,
) -> Result<AccuracyReport> {
    if original.shape() != reconstructed.shape() {
        return Err(IvmfError::InvalidInput(format!(
            "shape mismatch: original is {:?}, reconstruction is {:?}",
            original.shape(),
            reconstructed.shape()
        )));
    }
    let delta_lo = relative_error(original.lo(), reconstructed.lo());
    let delta_hi = relative_error(original.hi(), reconstructed.hi());
    Ok(AccuracyReport::from_deltas(delta_lo, delta_hi))
}

/// Accuracy of a *scalar* reconstruction against a scalar original — used
/// by the fully scalar pipelines (ISVD0 / option c applied to scalar data).
pub fn scalar_reconstruction_accuracy(
    original: &Matrix,
    reconstructed: &Matrix,
) -> Result<AccuracyReport> {
    if original.shape() != reconstructed.shape() {
        return Err(IvmfError::InvalidInput(format!(
            "shape mismatch: original is {:?}, reconstruction is {:?}",
            original.shape(),
            reconstructed.shape()
        )));
    }
    let delta = relative_error(original, reconstructed);
    Ok(AccuracyReport::from_deltas(delta, delta))
}

impl AccuracyReport {
    /// Builds the report from the two relative errors.
    pub fn from_deltas(delta_lo: f64, delta_hi: f64) -> Self {
        let theta_lo = (1.0 - delta_lo).max(0.0);
        let theta_hi = (1.0 - delta_hi).max(0.0);
        AccuracyReport {
            delta_lo,
            delta_hi,
            theta_lo,
            theta_hi,
            harmonic_mean: harmonic_mean(theta_lo, theta_hi),
        }
    }
}

/// Relative Frobenius error `‖a − b‖_F / ‖a‖_F` (0 when both are zero).
fn relative_error(a: &Matrix, b: &Matrix) -> f64 {
    a.relative_error(b).unwrap_or(f64::INFINITY)
}

/// Harmonic mean of two non-negative accuracies; 0 when either is 0.
pub fn harmonic_mean(a: f64, b: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        0.0
    } else {
        2.0 * a * b / (a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivmf_linalg::Matrix;

    fn interval(lo: Matrix, hi: Matrix) -> IntervalMatrix {
        IntervalMatrix::from_bounds(lo, hi).unwrap()
    }

    #[test]
    fn perfect_reconstruction_scores_one() {
        let m = interval(
            Matrix::from_rows(&[vec![1.0, 2.0]]),
            Matrix::from_rows(&[vec![2.0, 3.0]]),
        );
        let r = reconstruction_accuracy(&m, &m).unwrap();
        assert_eq!(r.delta_lo, 0.0);
        assert_eq!(r.delta_hi, 0.0);
        assert_eq!(r.harmonic_mean, 1.0);
    }

    #[test]
    fn completely_wrong_reconstruction_scores_zero() {
        let m = interval(
            Matrix::from_rows(&[vec![1.0, 0.0]]),
            Matrix::from_rows(&[vec![1.0, 0.0]]),
        );
        let bad = interval(
            Matrix::from_rows(&[vec![-5.0, 4.0]]),
            Matrix::from_rows(&[vec![-5.0, 4.0]]),
        );
        let r = reconstruction_accuracy(&m, &bad).unwrap();
        assert_eq!(r.harmonic_mean, 0.0);
    }

    #[test]
    fn harmonic_mean_penalizes_imbalance() {
        // Arithmetic mean of 0.9 / 0.1 would be 0.5; harmonic mean is lower.
        let hm = harmonic_mean(0.9, 0.1);
        assert!(hm < 0.2);
        assert_eq!(harmonic_mean(0.0, 1.0), 0.0);
        assert!((harmonic_mean(0.5, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_errors_reflected_in_report() {
        let m = interval(
            Matrix::from_rows(&[vec![2.0, 0.0]]),
            Matrix::from_rows(&[vec![4.0, 0.0]]),
        );
        let rec = interval(
            Matrix::from_rows(&[vec![2.0, 0.0]]),
            Matrix::from_rows(&[vec![3.0, 0.0]]),
        );
        let r = reconstruction_accuracy(&m, &rec).unwrap();
        assert_eq!(r.delta_lo, 0.0);
        assert!((r.delta_hi - 0.25).abs() < 1e-12);
        assert!((r.harmonic_mean - harmonic_mean(1.0, 0.75)).abs() < 1e-12);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = IntervalMatrix::zeros(2, 2);
        let b = IntervalMatrix::zeros(2, 3);
        assert!(reconstruction_accuracy(&a, &b).is_err());
        assert!(
            scalar_reconstruction_accuracy(&Matrix::zeros(1, 1), &Matrix::zeros(2, 2)).is_err()
        );
    }

    #[test]
    fn scalar_accuracy_duplicates_single_delta() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 0.0]]);
        let r = scalar_reconstruction_accuracy(&a, &b).unwrap();
        assert!((r.delta_lo - 0.8).abs() < 1e-12);
        assert_eq!(r.delta_lo, r.delta_hi);
    }
}
