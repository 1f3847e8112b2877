use std::fmt;

use ivmf_align::AlignError;
use ivmf_interval::IntervalError;
use ivmf_linalg::LinalgError;

/// Errors produced by the interval-valued factorization algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum IvmfError {
    /// A configuration value is invalid (zero rank, rank above
    /// `min(n, m)`, non-positive learning rate, …).
    InvalidConfig(String),
    /// The input matrix has an unusable shape for the requested operation.
    InvalidInput(String),
    /// An input cell is no valid interval: a NaN or infinite bound, or
    /// `lo > hi`.
    InvalidBounds {
        /// Row of the cell in the (extended) input matrix.
        row: usize,
        /// Column of the cell.
        col: usize,
        /// Its lower bound.
        lo: f64,
        /// Its upper bound.
        hi: f64,
    },
    /// Error from the dense linear-algebra layer.
    Linalg(LinalgError),
    /// Error from the interval-algebra layer.
    Interval(IntervalError),
    /// Error from the latent-semantic-alignment layer.
    Align(AlignError),
}

impl fmt::Display for IvmfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IvmfError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            IvmfError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            IvmfError::InvalidBounds { row, col, lo, hi } => write!(
                f,
                "invalid bounds [{lo}, {hi}] at row {row}, column {col}: \
                 bounds must be finite with lo <= hi"
            ),
            IvmfError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            IvmfError::Interval(e) => write!(f, "interval algebra error: {e}"),
            IvmfError::Align(e) => write!(f, "alignment error: {e}"),
        }
    }
}

impl std::error::Error for IvmfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IvmfError::Linalg(e) => Some(e),
            IvmfError::Interval(e) => Some(e),
            IvmfError::Align(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for IvmfError {
    fn from(e: LinalgError) -> Self {
        IvmfError::Linalg(e)
    }
}

impl From<IntervalError> for IvmfError {
    fn from(e: IntervalError) -> Self {
        IvmfError::Interval(e)
    }
}

impl From<AlignError> for IvmfError {
    fn from(e: AlignError) -> Self {
        IvmfError::Align(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let e: IvmfError = LinalgError::Singular.into();
        assert!(e.to_string().contains("singular"));
        let e: IvmfError = IntervalError::NotANumber.into();
        assert!(e.to_string().contains("NaN"));
        let e: IvmfError = AlignError::Empty.into();
        assert!(e.to_string().contains("column"));
    }

    #[test]
    fn config_error_display() {
        let e = IvmfError::InvalidConfig("rank must be positive".into());
        assert!(e.to_string().contains("rank must be positive"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn source_chain_for_wrapped_errors() {
        let e: IvmfError = LinalgError::Singular.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
