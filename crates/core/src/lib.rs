//! # ivmf-core
//!
//! Matrix factorization with interval-valued data — the primary contribution
//! of the reproduced paper.
//!
//! ## What lives here
//!
//! * **Interval SVD (ISVD0–ISVD4)** — the five decomposition strategies of
//!   Section 4 / Figure 4 of the paper, exposed individually
//!   ([`isvd0::isvd0`] … [`isvd4::isvd4`]) and through the unified driver
//!   [`isvd::isvd`] with per-stage wall-clock timings (for the Figure 6b
//!   execution-time breakdown).
//! * **The staged pipeline** ([`pipeline`]) — every algorithm expressed as
//!   a composition of named, memoizable stages over a
//!   [`pipeline::StageCache`], plus the batched drivers
//!   [`pipeline::run_all`] / [`pipeline::run_all_batch`] that evaluate all
//!   five algorithms with the expensive shared stages (interval Gram,
//!   bound eigendecompositions, ILSA) computed exactly once — bitwise
//!   identical to the sequential path.
//! * **Decomposition targets a/b/c** (Section 3.4): interval factors +
//!   interval core ([`DecompositionTarget::IntervalAll`]), scalar factors +
//!   interval core ([`DecompositionTarget::IntervalCore`]), all scalar
//!   ([`DecompositionTarget::Scalar`]); and the matching reconstruction
//!   rules (supplementary Algorithms 12–14) in [`IntervalSvd::reconstruct`].
//! * **Decomposition accuracy** (Definition 5): relative Frobenius errors of
//!   the reconstructed bound matrices combined by harmonic mean
//!   ([`accuracy::reconstruction_accuracy`]).
//! * **Crash-safe warm restarts** ([`snapshot`]): versioned, checksummed
//!   on-disk snapshots of the stage cache and the retained streaming Gram
//!   accumulator, written atomically and validated entry-by-entry on load
//!   — set `IVMF_SNAPSHOT_DIR` for automatic save-on-drop /
//!   restore-on-construct, or drive [`Pipeline::snapshot_to`] /
//!   [`Pipeline::restore_from`] explicitly.
//! * **NMF and I-NMF** baselines ([`nmf`]), used by the face-analysis
//!   experiments.
//! * **PMF, I-PMF and the proposed AI-PMF** ([`pmf`]), used by the
//!   collaborative-filtering experiments.
//!
//! ## Quick start
//!
//! ```
//! use ivmf_core::{isvd::isvd, IsvdAlgorithm, IsvdConfig, DecompositionTarget};
//! use ivmf_core::accuracy::reconstruction_accuracy;
//! use ivmf_interval::IntervalMatrix;
//! use ivmf_linalg::Matrix;
//!
//! // A small interval-valued matrix: entries are [lo, hi] ranges.
//! let lo = Matrix::from_rows(&[vec![4.0, 1.0, 0.0], vec![1.0, 3.0, 1.0], vec![0.0, 1.0, 2.0]]);
//! let hi = Matrix::from_rows(&[vec![5.0, 2.0, 1.0], vec![2.0, 4.0, 1.5], vec![0.5, 2.0, 3.0]]);
//! let m = IntervalMatrix::from_bounds(lo, hi).unwrap();
//!
//! // Decompose with ISVD4, rank 2, scalar factors + interval core (option b).
//! let config = IsvdConfig::new(2)
//!     .with_algorithm(IsvdAlgorithm::Isvd4)
//!     .with_target(DecompositionTarget::IntervalCore);
//! let result = isvd(&m, &config).unwrap();
//!
//! // Reconstruct and measure the paper's harmonic-mean accuracy.
//! let rec = result.factors.reconstruct().unwrap();
//! let acc = reconstruction_accuracy(&m, &rec).unwrap();
//! assert!(acc.harmonic_mean > 0.7);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod accuracy;
mod error;
pub mod isvd;
pub mod isvd0;
pub mod isvd1;
pub mod isvd2;
pub mod isvd3;
pub mod isvd4;
pub mod nmf;
pub mod pipeline;
pub mod pmf;
mod renorm;
pub mod sigma_inverse;
pub mod snapshot;
mod target;
pub mod timing;

pub use error::IvmfError;
pub use isvd::{IsvdAlgorithm, IsvdConfig, IsvdResult};
pub use pipeline::{
    run_all, run_all_batch, run_all_batch_sharded, run_all_sharded, DecompPlan, Pipeline,
    StageCache, StageEvent, StageId, DEFAULT_SPARSE_THRESHOLD, DENSE_STAGE_MAX_ENTRIES,
};
pub use snapshot::RestoreReport;
pub use target::{DecompositionTarget, IntervalSvd, RawFactors};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IvmfError>;

#[cfg(test)]
pub(crate) mod test_support {
    pub use ivmf_linalg::random::assert_same_bits;

    use crate::{IsvdAlgorithm, IsvdResult};
    use ivmf_interval::IntervalMatrix;
    use ivmf_linalg::random::uniform_matrix;
    use ivmf_linalg::Matrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Asserts two batched runs produced bitwise-identical factors.
    pub fn assert_results_bitwise(a: &[IsvdResult; 5], b: &[IsvdResult; 5], context: &str) {
        for ((ra, rb), alg) in a.iter().zip(b.iter()).zip(IsvdAlgorithm::all()) {
            assert_eq!(ra.factors.u, rb.factors.u, "{context}: {alg} U differs");
            assert_eq!(ra.factors.v, rb.factors.v, "{context}: {alg} V differs");
            assert_eq!(
                ra.factors.sigma, rb.factors.sigma,
                "{context}: {alg} core differs"
            );
        }
    }

    /// The standard fixture of the ISVD test suites: a seeded interval
    /// matrix with lower bounds in `[0.5, 4)` and per-entry spans in
    /// `[0, span)`.
    pub fn random_interval_matrix(seed: u64, n: usize, m: usize, span: f64) -> IntervalMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lo = uniform_matrix(&mut rng, n, m, 0.5, 4.0);
        let spans = Matrix::from_fn(n, m, |_, _| rng.gen_range(0.0..span));
        let hi = lo.add(&spans).unwrap();
        IntervalMatrix::from_bounds(lo, hi).unwrap()
    }
}
