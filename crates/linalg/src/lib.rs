//! # ivmf-linalg
//!
//! Self-contained dense linear algebra for the `ivmf` workspace.
//!
//! The interval-valued factorization algorithms of the paper (ISVD0–ISVD4,
//! AI-PMF and the LP competitor) need a small but complete set of dense
//! numerical kernels:
//!
//! * a dense row-major [`Matrix`] with the usual arithmetic,
//! * matrix multiplication, transposition and norms,
//! * a symmetric eigensolver ([`eigen_sym::sym_eigen`], Householder
//!   tridiagonalization followed by the implicit QL algorithm with shifts),
//! * a certified top-k eigensolver ([`eigen_topk::sym_eigen_topk`],
//!   Lanczos with full reorthogonalization, per-pair residual
//!   certification against the dense oracle's tolerance and automatic
//!   fallback; the input's size picks it or the dense solve),
//! * a full singular value decomposition ([`svd::svd`], Golub–Kahan–Reinsch),
//! * LU factorization with partial pivoting ([`lu`]) for solving and
//!   inversion,
//! * Householder QR ([`qr`]),
//! * the Moore–Penrose pseudo-inverse ([`pinv::pinv`]) and condition-number
//!   estimation ([`cond::condition_number`]).
//!
//! Everything is written from scratch on top of `std` so that the
//! reproduction does not depend on external BLAS/LAPACK bindings; the
//! matrices used in the paper's experiments (hundreds to a couple of
//! thousand rows) are comfortably within reach of straightforward dense
//! algorithms.
//!
//! ## Example
//!
//! ```
//! use ivmf_linalg::{Matrix, svd::svd};
//!
//! let m = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 3.0], vec![0.0, 0.0]]);
//! let f = svd(&m).unwrap();
//! // Singular values of this matrix are 4 and 2.
//! assert!((f.singular_values[0] - 4.0).abs() < 1e-10);
//! assert!((f.singular_values[1] - 2.0).abs() < 1e-10);
//! // Reconstruction U Σ Vᵀ ≈ M.
//! let rec = f.reconstruct();
//! assert!(m.sub(&rec).unwrap().frobenius_norm() < 1e-10);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cond;
pub mod eigen_sym;
pub mod eigen_topk;
mod error;
mod fold;
mod kernel;
pub mod lu;
mod matrix;
pub mod norms;
mod pending;
pub mod pinv;
pub mod pool;
pub mod qr;
pub mod random;
pub mod sparse;
pub mod state_text;
pub mod streaming;
pub mod svd;

pub use eigen_topk::{
    canonicalize_column_signs, sym_eigen_topk, sym_eigen_topk_report, sym_eigen_topk_with,
    topk_profitable, TopkOptions, TopkReport, DEFAULT_TOPK_TOL,
};
pub use error::LinalgError;
pub use fold::{ChunkKernel, StreamAccumulator};
pub use matrix::{ColScale, Dispatch, Matrix, MATMUL_BLOCKED_MIN_WORK, MATMUL_PAR_MIN_WORK};
pub use sparse::{CsrPattern, CsrRows, CsrShard};
pub use streaming::{
    gram_streamed, matmul_left_streamed_t, matmul_streamed, BlockView, ColBlocks,
    CrossGramAccumulator, GramAccumulator, RowBlock, RowBlocks, STREAM_CHUNK_ROWS,
};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Default numerical tolerance used for rank / singularity decisions.
pub const DEFAULT_EPS: f64 = 1e-12;

#[cfg(test)]
pub(crate) mod test_env {
    /// Runs `f` with the parallel kernels on `threads` workers.
    pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let settings = ivmf_env::Settings {
            threads,
            ..ivmf_env::Settings::default()
        };
        settings.scope(f)
    }
}
