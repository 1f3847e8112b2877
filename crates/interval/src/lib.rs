//! # ivmf-interval
//!
//! Interval algebra substrate for interval-valued matrix factorization.
//!
//! An *interval* `a† = [a_min, a_max]` (Definition 1 of the paper)
//! generalizes a scalar observation to a range of possible values. This
//! crate provides:
//!
//! * [`Interval`] — the scalar interval type with the Sunaga interval
//!   arithmetic of Definition 3 (addition, subtraction, multiplication) and
//!   the *span* of Definition 2,
//! * [`IntervalVector`] — a thin wrapper over paired min/max vectors with
//!   interval dot products and the average-replacement repair of
//!   supplementary Algorithm 2,
//! * [`IntervalMatrix`] — a dense interval matrix stored as two scalar
//!   bound matrices (`lo`, `hi`), interval matrix multiplication
//!   (supplementary Algorithm 1), and the matrix average-replacement repair
//!   of supplementary Algorithm 3,
//! * [`MrMatrix`] — the midpoint–radius representation with Rump's
//!   two-product enclosure of the interval matrix product, used by
//!   [`IntervalMatrix::interval_matmul_fast`] as the size-dispatched fast
//!   path over the four-product reference operator (the module docs in
//!   `mr.rs` carry the soundness argument).
//!
//! Storing the two bounds as separate [`ivmf_linalg::Matrix`] values keeps
//! the ISVD algorithms simple (they constantly decompose the bounds
//! independently) and the hot loops cache friendly.
//!
//! ## Example
//!
//! ```
//! use ivmf_interval::{Interval, IntervalMatrix};
//! use ivmf_linalg::Matrix;
//!
//! let a = Interval::new(1.0, 2.0).unwrap();
//! let b = Interval::new(-1.0, 3.0).unwrap();
//! assert_eq!((a * b), Interval::new(-2.0, 6.0).unwrap());
//!
//! let m = IntervalMatrix::from_bounds(
//!     Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]),
//!     Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]),
//! ).unwrap();
//! let sq = m.interval_matmul(&m).unwrap();
//! assert_eq!(sq.get(0, 0).lo(), 1.0);
//! assert_eq!(sq.get(0, 0).hi(), 5.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod matrix;
mod mr;
mod scalar;
mod sharded;
mod sparse;
mod vector;

pub use error::IntervalError;
pub use matrix::IntervalMatrix;
pub use mr::{exact_interval_forced, MrMatrix, EXACT_INTERVAL_ENV, MR_MIN_WORK};
pub use scalar::Interval;
pub use sharded::{
    use_mr_gram, BoundBlocks, IntervalShard, RowShardSource, RowShardedIntervalMatrix, ShardSource,
    ShardWalk, ShardedIntervalMatrix, StreamingIntervalGram,
};
pub use sparse::{CsrIntervalShard, CsrShardSource, CsrShardedIntervalMatrix};
pub use vector::IntervalVector;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, IntervalError>;

#[cfg(test)]
pub(crate) mod test_env {
    /// Serializes the tests that mutate — or assert behaviour that
    /// depends on the absence of — the process-wide `IVMF_EXACT_INTERVAL`
    /// variable. The flag is re-read on every dispatch, so a writer test
    /// racing a reader test in this binary would flip the other's
    /// interval-operator flavour mid-assertion.
    pub static EXACT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Asserts two interval matrices are equal in every bit.
    pub fn assert_bitwise(a: &crate::IntervalMatrix, b: &crate::IntervalMatrix, context: &str) {
        assert_eq!(a.shape(), b.shape(), "{context}: shape");
        for (bound, (x, y)) in [("lo", (a.lo(), b.lo())), ("hi", (a.hi(), b.hi()))] {
            for (i, (p, q)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
                let (p, q) = (p.to_bits(), q.to_bits());
                assert_eq!(p, q, "{context}: {bound} entry {i} differs");
            }
        }
    }
}
