//! Certified top-k symmetric eigendecomposition.
//!
//! The truncating consumers in this workspace — `bound_eigen` in
//! `ivmf-core`, the Gram-route SVD, the pipeline's MidpointSvd / BoundSvd /
//! BoundEigenLo / BoundEigenHi stages — only keep the leading `r` eigenpairs
//! of an `m×m` Gram(-bound) matrix, yet the dense [`sym_eigen`] oracle
//! always pays for the full spectrum: `O(m³)` for `r ≪ m` worth of output.
//! [`sym_eigen_topk`] computes just the top-k pairs with a Lanczos
//! iteration and certifies every answer against the oracle's tolerance
//! before returning it:
//!
//! 1. **Lanczos with full reorthogonalization.** The (symmetrized) input is
//!    projected onto a Krylov basis built one matrix–vector product at a
//!    time; each new direction is re-orthogonalized against the whole
//!    basis, with a second pass whenever the first reveals cancellation
//!    (the Daniel–Gragg–Kaufman–Stewart "twice is enough" criterion), so
//!    the projection `T = Qᵀ A Q` stays tridiagonal to working
//!    precision. The small problem `T` is solved by the same implicit-QL
//!    sweep as the dense oracle ([`crate::eigen_sym`] shares its backend).
//! 2. **Deterministic, seed-free start vectors.** Start and restart
//!    directions come from a fixed splitmix64 recurrence keyed only by the
//!    restart ordinal — no RNG state, no time, no thread identity — so
//!    results are reproducible run-to-run and bitwise invariant to
//!    `IVMF_THREADS` (every kernel the iteration touches already carries
//!    that contract: [`Matrix::matvec`] is serial, [`Matrix::matmul`] is
//!    panel-split-invariant, the QL sweep is rotation-order-invariant).
//! 3. **Residual certification.** A candidate answer is accepted only if
//!    every returned pair satisfies `‖A v − λ v‖ ≤ tol · ‖A‖_F` with
//!    `tol =` [`DEFAULT_TOPK_TOL`] (per-pair, checked with an explicit
//!    matrix–vector product — not just the Lanczos recurrence estimate).
//! 4. **A basis cap set by cost.** The default cap is
//!    `max(min(4k + 32, n), ⌊n/2⌋)` directions: with its matvec and full
//!    reorthogonalization, a basis of `n/2` has cost about `2n³` flops
//!    against the dense oracle's `≈ 9n³`, so up to there iterating on is
//!    cheaper than starting over with the oracle. Convergence is checked
//!    every 8 directions from `2k + 8` on, at `min(4k + 32, n)` (the size
//!    [`topk_profitable`] judges the dispatch by) and at the cap itself.
//! 5. **Fallback to the oracle.** If the basis hits its cap before the
//!    certificate holds, the call transparently falls back to the full
//!    [`sym_eigen`] solve (truncated to `k`), so callers never trade
//!    accuracy for speed. [`TopkOptions::with_fallback`]`(false)` surfaces
//!    the typed [`LinalgError::NoConvergence`] instead, for callers that
//!    want to observe the failure.
//!
//! A NaN or ±Inf entry is rejected up front with
//! [`LinalgError::InvalidArgument`] naming its `(row, col)`, on every path:
//! no iteration or dense solve runs on input that cannot be certified.
//!
//! Breakdown (`β ≈ 0`, an exact invariant subspace) restarts the iteration
//! with the next deterministic direction orthogonalized against the basis,
//! which is how repeated eigenvalues of low-distinct-count spectra (e.g.
//! `c·I`, clustered Grams, rank-deficient matrices) are recovered copy by
//! copy. Because one Krylov block sees exactly one copy per eigenspace, a
//! breakdown-triggered answer is accepted only once its top-k Ritz values
//! survive a whole extra restart block unchanged — otherwise
//! `diag(5, 5, 5, 2, …)` could certify `[5, 5, 2, 2]` after two blocks
//! while the third copy of `5` still waits in the next one.
//!
//! ## Caveat: multiplicities in large simple-spectrum matrices
//!
//! Like every single-vector Lanczos scheme (ARPACK included), a run that
//! never breaks down explores one Krylov direction per *distinct*
//! eigenvalue: an eigenvalue of multiplicity > 1 buried in an otherwise
//! large simple spectrum can be reported once, with the next distinct
//! eigenvalue taking its slot. Every returned pair is still a certified
//! eigenpair within tolerance. The random Gram(-bound) matrices of the
//! decomposition pipeline have simple spectra almost surely; callers that
//! need exact multiplicity semantics pin `IVMF_TOPK_EIGEN=full`.
//!
//! ## Mode selection
//!
//! [`sym_eigen_topk`] reads `IVMF_TOPK_EIGEN` (via
//! [`ivmf_env::topk_eigen_mode`]) on every call: `full` pins the oracle,
//! `forced` always attempts the Lanczos path, and the default `auto` uses
//! [`topk_profitable`] — the iteration wins once the matrix is big enough
//! (`n ≥ 96`) and `min(4k + 32, n)` is at most half the dimension. Because
//! every accepted answer is certified against the same tolerance, the mode
//! is a kernel choice, not a semantic one — which is why the decomposition
//! pipeline's `StageCache` keys deliberately exclude it.
//!
//! All modes (including `full`) canonicalize eigenvector column signs
//! (largest-magnitude component positive), so answers computed by
//! different solvers agree up to the certified tolerance instead of up to
//! sign.

use crate::eigen_sym::{
    eigen_tridiagonal, eigen_tridiagonal_values, non_finite_entry, sym_eigen, SymEigen,
};
use crate::{LinalgError, Matrix, Result};
use ivmf_env::TopkEigenMode;

/// Relative residual tolerance certified by [`sym_eigen_topk`]: every
/// returned pair satisfies `‖A v − λ v‖ ≤ DEFAULT_TOPK_TOL · ‖A‖_F`.
pub const DEFAULT_TOPK_TOL: f64 = 1e-8;

/// Below this dimension the dense oracle is at least as fast as the
/// iteration (basis bookkeeping dominates): `auto` mode never iterates.
const TOPK_MIN_DIM: usize = 96;

/// A convergence check runs every this-many basis extensions once the
/// basis passed its minimum size.
const BASIS_CHECK_STRIDE: usize = 8;

/// Smallest basis worth checking: `2k + 8` directions give the Ritz values
/// one Lanczos "ghost" interval of slack before the first small solve.
fn default_min_basis(n: usize, k: usize) -> usize {
    (2 * k + 8).min(n)
}

/// `4k + 32` directions (clamped to `n`): enough for the random Gram
/// bounds of the pipeline to certify most of the time. The
/// [`topk_profitable`] dispatch is sized by it, and the default cap always
/// checks convergence here, so every answer a cap of this size certifies
/// comes back bitwise the same under the larger default.
fn anchor_basis(n: usize, k: usize) -> usize {
    (4 * k + 32).min(n)
}

/// Default basis cap: [`anchor_basis`], raised to `⌊n/2⌋` — the basis at
/// which the iteration (about `2n³` flops with full reorthogonalization)
/// stops being cheaper than the dense oracle (`≈ 9n³`).
fn default_max_basis(n: usize, k: usize) -> usize {
    anchor_basis(n, k).max(n / 2)
}

/// True when `auto` mode attempts the Lanczos path for an `n×n` input and
/// `k` requested pairs: the matrix must be at least `TOPK_MIN_DIM` (`96`)
/// wide and `min(4k + 32, n)` at most `n / 2`, so the iteration
/// touches a strict fraction of the work the dense oracle would.
pub fn topk_profitable(n: usize, k: usize) -> bool {
    n >= TOPK_MIN_DIM && 2 * anchor_basis(n, k) <= n
}

/// Tuning knobs for [`sym_eigen_topk_with`]. The defaults are what
/// [`sym_eigen_topk`] uses; tests and benches override them to pin a
/// specific path.
#[derive(Debug, Clone)]
pub struct TopkOptions {
    /// Relative residual tolerance (× `‖A‖_F`) certified per returned
    /// pair. Default [`DEFAULT_TOPK_TOL`].
    pub tol: f64,
    /// Basis cap override; `None` uses `max(min(4k + 32, n), ⌊n/2⌋)` and
    /// also checks convergence at `min(4k + 32, n)`. Clamped to `[k, n]`.
    pub max_basis: Option<usize>,
    /// Fall back to the dense oracle when the iteration fails to certify
    /// (default `true`); `false` surfaces [`LinalgError::NoConvergence`].
    pub fallback: bool,
    /// Skip the [`topk_profitable`] heuristic and always attempt the
    /// iteration (default `false`). `k == n` still short-circuits to the
    /// oracle — there is nothing to truncate.
    pub force: bool,
}

impl Default for TopkOptions {
    fn default() -> Self {
        TopkOptions {
            tol: DEFAULT_TOPK_TOL,
            max_basis: None,
            fallback: true,
            force: false,
        }
    }
}

impl TopkOptions {
    /// Returns the options with the residual tolerance replaced.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Returns the options with the basis cap replaced.
    pub fn with_max_basis(mut self, max_basis: usize) -> Self {
        self.max_basis = Some(max_basis);
        self
    }

    /// Returns the options with the fallback switch replaced.
    pub fn with_fallback(mut self, fallback: bool) -> Self {
        self.fallback = fallback;
        self
    }

    /// Returns the options with the force switch replaced.
    pub fn with_force(mut self, force: bool) -> Self {
        self.force = force;
        self
    }
}

/// How a [`sym_eigen_topk_report`] answer was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkReport {
    /// True when the dense oracle produced the answer — heuristic
    /// dispatch, `k == n`, or fallback after a failed iteration.
    pub used_dense: bool,
    /// True when the dense path was entered *because* the iteration failed
    /// to converge or certify (a strict subset of `used_dense`).
    pub used_fallback: bool,
    /// Krylov basis size at acceptance (`0` on the dense path).
    pub basis_size: usize,
    /// Certified per-pair residual norms `‖A v − λ v‖`, in eigenvalue
    /// order (empty on the dense path — the oracle is its own
    /// certificate).
    pub residuals: Vec<f64>,
}

/// Computes the top-`k` eigenpairs (largest eigenvalues first) of a
/// symmetric matrix, choosing the solver according to `IVMF_TOPK_EIGEN`
/// (`auto`/`full`/`forced`, see [`ivmf_env::topk_eigen_mode`]).
///
/// Whatever the mode, every returned pair is certified to
/// `‖A v − λ v‖ ≤ tol · ‖A‖_F` with `tol =` [`DEFAULT_TOPK_TOL`] (the
/// dense oracle is its own certificate), eigenvalues are sorted
/// descending, and eigenvector column signs are canonicalized. `k` is
/// clamped to `n`.
///
/// # Errors
///
/// * [`LinalgError::Empty`] / [`LinalgError::NotSquare`] for malformed
///   inputs, [`LinalgError::InvalidArgument`] for `k == 0` or a NaN/±Inf
///   entry (the message names the first one in row-major order).
/// * Propagates oracle convergence failures (fallback is enabled, so an
///   error means even the dense solver failed).
pub fn sym_eigen_topk(a: &Matrix, k: usize) -> Result<SymEigen> {
    let opts = match ivmf_env::topk_eigen_mode() {
        TopkEigenMode::Full => {
            validate(a, k)?;
            return dense_truncated(a, k.min(a.rows()));
        }
        TopkEigenMode::Auto => TopkOptions::default(),
        TopkEigenMode::Forced => TopkOptions::default().with_force(true),
    };
    sym_eigen_topk_with(a, k, &opts)
}

/// [`sym_eigen_topk`] with explicit [`TopkOptions`] instead of the
/// environment knob — the environment is not consulted at all, so the call
/// is reproducible regardless of `IVMF_TOPK_EIGEN`.
pub fn sym_eigen_topk_with(a: &Matrix, k: usize, opts: &TopkOptions) -> Result<SymEigen> {
    sym_eigen_topk_report(a, k, opts).map(|(eig, _)| eig)
}

/// [`sym_eigen_topk_with`] additionally reporting which solver produced
/// the answer and the certified residuals (see [`TopkReport`]).
pub fn sym_eigen_topk_report(
    a: &Matrix,
    k: usize,
    opts: &TopkOptions,
) -> Result<(SymEigen, TopkReport)> {
    validate(a, k)?;
    let symmetric = scan_entries(a)?;
    let n = a.rows();
    let k = k.min(n);

    let dense = |used_fallback: bool| -> Result<(SymEigen, TopkReport)> {
        let eig = dense_truncated(a, k)?;
        Ok((
            eig,
            TopkReport {
                used_dense: true,
                used_fallback,
                basis_size: 0,
                residuals: Vec::new(),
            },
        ))
    };

    if k == n || (!opts.force && !topk_profitable(n, k)) {
        return dense(false);
    }

    // Symmetrize exactly as the dense oracle does, so both paths see the
    // same operator. (Addition commutes bitwise, so `b` is exactly
    // symmetric.) An already-symmetric input — every Gram(-bound) matrix
    // the pipeline sends here — is its own symmetrization bitwise
    // (`(x + x) / 2 == x`), so skip the three-allocation copy for it.
    let symmetrized;
    let b: &Matrix = if symmetric {
        a
    } else {
        symmetrized = a.add(&a.transpose())?.scale(0.5);
        &symmetrized
    };
    let scale = b.frobenius_norm();
    if scale == 0.0 {
        // Zero matrix: the spectrum is all zeros and the canonical
        // eigenvectors are the leading identity columns — exactly what the
        // dense path returns.
        return Ok((
            SymEigen {
                eigenvalues: vec![0.0; k],
                eigenvectors: Matrix::identity(n).take_cols(k),
            },
            TopkReport {
                used_dense: false,
                used_fallback: false,
                basis_size: 0,
                residuals: vec![0.0; k],
            },
        ));
    }

    match lanczos_topk(b, k, scale, opts) {
        Ok((eig, basis_size, residuals)) => Ok((
            eig,
            TopkReport {
                used_dense: false,
                used_fallback: false,
                basis_size,
                residuals,
            },
        )),
        Err(LinalgError::NoConvergence { .. }) if opts.fallback => dense(true),
        Err(e) => Err(e),
    }
}

/// Canonicalizes eigenvector column signs in place: each column is negated
/// if needed so its largest-magnitude component (first one on ties) is
/// positive. Negation is exact in floating point, so this never moves an
/// answer — it only picks one representative of each `±v` pair, letting
/// answers from different solvers be compared directly. All-zero columns
/// are left untouched.
pub fn canonicalize_column_signs(m: &mut Matrix) {
    let (rows, cols) = m.shape();
    for j in 0..cols {
        let mut pivot = 0.0f64;
        for i in 0..rows {
            let x = m[(i, j)];
            if x.abs() > pivot.abs() {
                pivot = x;
            }
        }
        if pivot < 0.0 {
            m.scale_col(j, -1.0);
        }
    }
}

/// One row-major pass over the square `a`: rejects the first NaN or ±Inf
/// entry, and otherwise reports whether `a[(i, j)]` equals `a[(j, i)]`
/// bitwise for every pair — the case where the oracle's `(A + Aᵀ) / 2`
/// symmetrization is the identity.
fn scan_entries(a: &Matrix) -> Result<bool> {
    let mut symmetric = true;
    for i in 0..a.rows() {
        for (j, &x) in a.row(i).iter().enumerate() {
            if !x.is_finite() {
                return Err(non_finite_entry(i, j, x));
            }
            if symmetric && j > i && x.to_bits() != a[(j, i)].to_bits() {
                symmetric = false;
            }
        }
    }
    Ok(symmetric)
}

fn validate(a: &Matrix, k: usize) -> Result<()> {
    if a.is_empty() {
        return Err(LinalgError::Empty);
    }
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if k == 0 {
        return Err(LinalgError::InvalidArgument(
            "requested eigenpair count must be at least 1".to_string(),
        ));
    }
    Ok(())
}

/// Full oracle solve truncated to the leading `k` pairs, signs
/// canonicalized.
fn dense_truncated(a: &Matrix, k: usize) -> Result<SymEigen> {
    let eig = sym_eigen(a)?;
    let mut eigenvectors = eig.eigenvectors.take_cols(k);
    canonicalize_column_signs(&mut eigenvectors);
    Ok(SymEigen {
        eigenvalues: eig.eigenvalues[..k].to_vec(),
        eigenvectors,
    })
}

fn no_convergence(iterations: usize) -> LinalgError {
    LinalgError::NoConvergence {
        algorithm: "lanczos_topk",
        iterations,
    }
}

/// The Lanczos iteration proper, on the already-symmetrized `b` with
/// `‖b‖_F = scale > 0` and `0 < k < n`. Returns the certified eigensystem,
/// the basis size at acceptance and the per-pair residual norms.
fn lanczos_topk(
    b: &Matrix,
    k: usize,
    scale: f64,
    opts: &TopkOptions,
) -> Result<(SymEigen, usize, Vec<f64>)> {
    let n = b.rows();
    let tol_abs = opts.tol * scale;
    let max_basis = opts
        .max_basis
        .unwrap_or_else(|| default_max_basis(n, k))
        .clamp(k, n);
    // An explicit cap keeps exactly its own checks; the default one also
    // checks at the anchor, which the stride grid misses when `k % 4 != 0`.
    let anchor = match opts.max_basis {
        Some(_) => max_basis,
        None => anchor_basis(n, k),
    };
    let min_basis = default_min_basis(n, k).min(max_basis);
    // Below this a new direction is an exact invariant subspace to working
    // precision: normalizing it would amplify rounding noise, so restart
    // with a fresh direction instead.
    let breakdown_tol = scale * f64::EPSILON * 64.0 * (n as f64).sqrt();

    let mut qs: Vec<Vec<f64>> = Vec::with_capacity(max_basis);
    let mut alpha: Vec<f64> = Vec::with_capacity(max_basis);
    // Committed couplings: beta[j] ties basis vectors j and j+1; a zero
    // entry marks a restart joint (T splits into independent blocks).
    let mut beta: Vec<f64> = Vec::with_capacity(max_basis);
    let mut restart_seq: u64 = 0;
    // Top-k Ritz values at the previous breakdown extraction: a
    // breakdown-triggered answer is only accepted once the top-k survived
    // a whole extra restart block unchanged (see below).
    let mut stash: Option<Vec<f64>> = None;
    let mut q = fresh_orthonormal(n, &qs, &mut restart_seq).ok_or_else(|| no_convergence(0))?;

    loop {
        qs.push(q);
        let j = qs.len() - 1;
        let mut w = b.matvec(&qs[j])?;
        let aj = dot(&w, &qs[j]);
        alpha.push(aj);
        // Classical three-term recurrence first, then a full
        // reorthogonalization pass to hold the basis orthonormal to working
        // precision. A second pass runs only when the first one cancelled
        // away more than `1 − 1/√2` of the norm (the
        // Daniel–Gragg–Kaufman–Stewart criterion — "twice is enough"):
        // steady-state Lanczos directions are already near-orthogonal, so
        // the extra pass is usually pure overhead, and the explicit residual
        // certification below backstops any orthogonality this heuristic
        // could ever give up.
        axpy(&mut w, -aj, &qs[j]);
        if j > 0 && beta[j - 1] != 0.0 {
            axpy(&mut w, -beta[j - 1], &qs[j - 1]);
        }
        let before = norm(&w);
        let mut pending = reorthogonalize(&mut w, &qs);
        if pending < std::f64::consts::FRAC_1_SQRT_2 * before {
            pending = reorthogonalize(&mut w, &qs);
        }

        let p = qs.len();
        let broke_down = pending <= breakdown_tol;
        let at_cap = p == max_basis;
        let due = p == anchor || (p >= min_basis && (p - min_basis) % BASIS_CHECK_STRIDE == 0);
        let mut certified: Option<(SymEigen, Vec<f64>)> = None;
        if p >= k && (broke_down || at_cap || due) {
            if let Some(ok) = try_extract(b, &qs, &alpha, &beta, pending, k, tol_abs)? {
                // A breakdown means an exact invariant subspace — the
                // certificate holds per pair, but further copies of a
                // repeated eigenvalue may still live *outside* the basis
                // (each Krylov block sees one copy per eigenspace). So a
                // breakdown-triggered answer is accepted only once the
                // top-k Ritz values survive a whole extra restart block
                // unchanged; a genuine Krylov-convergence answer (no
                // breakdown) is accepted directly.
                let stable = stash.as_ref().is_some_and(|prev: &Vec<f64>| {
                    prev.iter()
                        .zip(&ok.0.eigenvalues)
                        .all(|(a, b)| (a - b).abs() <= tol_abs)
                });
                if !broke_down || stable {
                    return Ok((ok.0, p, ok.1));
                }
                stash = Some(ok.0.eigenvalues.clone());
                certified = Some(ok);
            }
        }
        if at_cap {
            return Err(no_convergence(p));
        }
        if broke_down {
            beta.push(0.0);
            match fresh_orthonormal(n, &qs, &mut restart_seq) {
                Some(next) => q = next,
                None => {
                    // No numerically independent direction is left: the
                    // basis spans the space, so a certified extraction is
                    // the complete answer.
                    return match certified {
                        Some((eig, residuals)) => Ok((eig, p, residuals)),
                        None => Err(no_convergence(p)),
                    };
                }
            }
        } else {
            beta.push(pending);
            for x in w.iter_mut() {
                *x /= pending;
            }
            q = w;
        }
    }
}

/// Solves the current tridiagonal projection and — if the cheap Lanczos
/// residual bound `|β_pending · y[p−1, i]|` clears the tolerance for all
/// top-k pairs — forms the Ritz vectors and certifies each one with an
/// explicit `‖A v − λ v‖` product. `None` means "not converged yet".
fn try_extract(
    b: &Matrix,
    qs: &[Vec<f64>],
    alpha: &[f64],
    beta: &[f64],
    pending: f64,
    k: usize,
    tol_abs: f64,
) -> Result<Option<(SymEigen, Vec<f64>)>> {
    let p = alpha.len();
    // The prefilter needs only the Ritz values and the eigenvector last
    // row — an O(p²) single-row rotation pass, bitwise identical to the
    // full backend's last row. The O(p³) eigenvector accumulation runs
    // only once the prefilter passes, so the repeated not-yet-converged
    // probes along the iteration stay cheap.
    let (vals, last_row) = eigen_tridiagonal_values(alpha, beta)?;
    for &y_last in &last_row[..k] {
        if (pending * y_last).abs() > tol_abs {
            return Ok(None);
        }
    }
    // With the Ritz values in hand, the needed `k` eigenvectors of `T`
    // come from O(k·p) inverse iteration when the top of the spectrum is
    // well separated (the generic case for the pipeline's random Gram
    // bounds). Clustered or exhausted spectra take the full O(p³) rotation
    // accumulation instead: inverse iteration converges to the eigenvector
    // nearest each shift, so near-equal shifts could yield nearly-parallel
    // columns. Either way the explicit certification below has the final
    // word.
    let t_scale = vals[0].abs().max(vals[p - 1].abs());
    let separated = p > k && vals[..=k].windows(2).all(|w| w[0] - w[1] > 1e-6 * t_scale);
    let y_k = if separated {
        crate::eigen_sym::tridiagonal_eigenvectors(alpha, beta, &vals[..k])?
    } else {
        eigen_tridiagonal(alpha, beta)?.eigenvectors.take_cols(k)
    };

    let n = qs[0].len();
    let qmat = Matrix::from_fn(n, p, |i, j| qs[j][i]);
    let mut vecs = qmat.matmul(&y_k)?;
    // One batched product certifies all k candidates: `matmul` is
    // panel-split-invariant, so the residuals stay deterministic across
    // thread counts while costing a packed GEMM instead of k strided
    // matrix–vector products.
    let av = b.matmul(&vecs)?;
    let mut residuals = Vec::with_capacity(k);
    for i in 0..k {
        let lambda = vals[i];
        let mut r2 = 0.0;
        for row in 0..n {
            let d = av[(row, i)] - lambda * vecs[(row, i)];
            r2 += d * d;
        }
        let r = r2.sqrt();
        if r > tol_abs {
            return Ok(None);
        }
        residuals.push(r);
    }
    canonicalize_column_signs(&mut vecs);
    Ok(Some((
        SymEigen {
            eigenvalues: vals[..k].to_vec(),
            eigenvectors: vecs,
        },
        residuals,
    )))
}

/// One splitmix64 step — the standard finalizer, fixed constants.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `sequence`-th deterministic direction: components in `[-0.5, 0.5)`
/// from a splitmix64 stream keyed only by the sequence ordinal. No seeds,
/// no time, no thread identity — the same call always produces the same
/// vector.
fn deterministic_direction(n: usize, sequence: u64) -> Vec<f64> {
    let mut state = 0x51ED_2701_89AB_CDEF_u64 ^ sequence.wrapping_mul(0xA076_1D64_78BD_642F);
    (0..n)
        .map(|_| (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect()
}

/// Produces the next deterministic unit vector orthogonal to the current
/// basis, advancing `restart_seq`. `None` when the basis already spans the
/// space (or no numerically independent direction is found in a few
/// attempts — callers treat that as non-convergence).
fn fresh_orthonormal(n: usize, qs: &[Vec<f64>], restart_seq: &mut u64) -> Option<Vec<f64>> {
    if qs.len() >= n {
        return None;
    }
    for _ in 0..8 {
        let mut v = deterministic_direction(n, *restart_seq);
        *restart_seq += 1;
        let m = norm(&v);
        if m == 0.0 {
            continue;
        }
        for x in v.iter_mut() {
            *x /= m;
        }
        for _ in 0..2 {
            for qi in qs {
                let c = dot(&v, qi);
                if c != 0.0 {
                    axpy(&mut v, -c, qi);
                }
            }
        }
        let m = norm(&v);
        if m > 1e-6 {
            for x in v.iter_mut() {
                *x /= m;
            }
            return Some(v);
        }
    }
    None
}

/// One classical-Gram-Schmidt pass of `w` against the whole basis,
/// returning the norm of the result — the ARPACK scheme: all projection
/// coefficients are computed against the *same* `w`, then subtracted in
/// one sweep (the DGKS criterion at the call sites repeats the pass when
/// this reveals cancellation). Computing the coefficients against a fixed
/// `w` lets both sweeps walk the basis in pairs that share each load of
/// `w`, which is where a serial reorthogonalization spends its time.
fn reorthogonalize(w: &mut [f64], qs: &[Vec<f64>]) -> f64 {
    let mut coeffs = vec![0.0; qs.len()];
    let mut i = 0;
    while i + 1 < qs.len() {
        let (c0, c1) = crate::matrix::dot2_unrolled(&qs[i], &qs[i + 1], w);
        coeffs[i] = c0;
        coeffs[i + 1] = c1;
        i += 2;
    }
    if i < qs.len() {
        coeffs[i] = dot(w, &qs[i]);
    }
    let mut i = 0;
    while i + 1 < qs.len() {
        axpy2(w, -coeffs[i], &qs[i], -coeffs[i + 1], &qs[i + 1]);
        i += 2;
    }
    if i < qs.len() {
        axpy(w, -coeffs[i], &qs[i]);
    }
    norm(w)
}

/// Serial dot product — single-threaded with a fixed (8-lane unrolled)
/// summation order, so bitwise reproducible across runs and thread
/// counts. The independent accumulators break the additive dependency
/// chain that keeps a strictly sequential reduction scalar.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    crate::matrix::dot_unrolled(a, b)
}

/// Serial Euclidean norm.
fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`, serial.
fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `y += a0 * x0 + a1 * x1` in one pass, serial. Each element updates as
/// `(y + a0·x0) + a1·x1` — the same order as two consecutive [`axpy`]
/// calls, so pairing is a traffic optimization, not a different sum.
fn axpy2(y: &mut [f64], a0: f64, x0: &[f64], a1: f64, x1: &[f64]) {
    for ((yi, &v0), &v1) in y.iter_mut().zip(x0.iter()).zip(x1.iter()) {
        *yi = (*yi + a0 * v0) + a1 * v1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{symmetric_matrix, uniform_matrix};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_certified(a: &Matrix, eig: &SymEigen, tol: f64) {
        let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
        for i in 0..eig.eigenvalues.len() {
            let v = eig.eigenvectors.col(i);
            let av = a.matvec(&v).unwrap();
            let r: f64 = av
                .iter()
                .zip(v.iter())
                .map(|(&x, &y)| (x - eig.eigenvalues[i] * y).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(r <= tol * scale, "pair {i}: residual {r} > {tol}·‖A‖");
        }
    }

    #[test]
    fn forced_iteration_matches_oracle_on_random_symmetric() {
        let mut rng = SmallRng::seed_from_u64(31);
        let a = symmetric_matrix(&mut rng, 60, -2.0, 2.0);
        let opts = TopkOptions::default().with_force(true);
        let (eig, report) = sym_eigen_topk_report(&a, 6, &opts).unwrap();
        assert!(!report.used_dense, "iteration must run when forced");
        assert!(report.basis_size >= 6);
        assert_eq!(report.residuals.len(), 6);
        let full = sym_eigen(&a).unwrap();
        for i in 0..6 {
            assert!(
                (eig.eigenvalues[i] - full.eigenvalues[i]).abs() <= 1e-7 * a.frobenius_norm(),
                "eigenvalue {i} off: {} vs {}",
                eig.eigenvalues[i],
                full.eigenvalues[i]
            );
        }
        assert_certified(&a, &eig, DEFAULT_TOPK_TOL);
    }

    #[test]
    fn small_inputs_dispatch_to_the_oracle_in_auto_mode() {
        let mut rng = SmallRng::seed_from_u64(32);
        let a = symmetric_matrix(&mut rng, 12, -1.0, 1.0);
        let (eig, report) = sym_eigen_topk_report(&a, 3, &TopkOptions::default()).unwrap();
        assert!(report.used_dense);
        assert!(!report.used_fallback);
        let full = sym_eigen(&a).unwrap();
        assert_eq!(eig.eigenvalues, full.eigenvalues[..3].to_vec());
    }

    #[test]
    fn k_equal_n_short_circuits_to_the_oracle_even_when_forced() {
        let mut rng = SmallRng::seed_from_u64(33);
        let a = symmetric_matrix(&mut rng, 10, -1.0, 1.0);
        let opts = TopkOptions::default().with_force(true);
        let (eig, report) = sym_eigen_topk_report(&a, 10, &opts).unwrap();
        assert!(report.used_dense);
        assert_eq!(eig.eigenvalues, sym_eigen(&a).unwrap().eigenvalues);
    }

    #[test]
    fn default_cap_is_half_the_dimension_and_dispatch_uses_the_anchor() {
        assert_eq!(default_max_basis(256, 20), 128);
        assert_eq!(default_max_basis(250, 5), 125);
        // Forced on a small input: the anchor already exceeds n/2.
        assert_eq!(default_max_basis(100, 5), 52);
        assert_eq!(default_max_basis(40, 6), 40);
        for n in [95, 96, 112, 250, 256, 1000] {
            for k in 1..=n / 4 {
                let expected = n >= 96 && 2 * (4 * k + 32).min(n) <= n;
                assert_eq!(topk_profitable(n, k), expected, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn starved_basis_without_fallback_yields_typed_no_convergence() {
        let mut rng = SmallRng::seed_from_u64(34);
        let a = symmetric_matrix(&mut rng, 40, -2.0, 2.0);
        let opts = TopkOptions::default()
            .with_force(true)
            .with_fallback(false)
            .with_max_basis(10);
        let err = sym_eigen_topk_with(&a, 10, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                LinalgError::NoConvergence {
                    algorithm: "lanczos_topk",
                    ..
                }
            ),
            "expected lanczos_topk NoConvergence, got {err:?}"
        );
    }

    #[test]
    fn starved_basis_with_fallback_returns_the_oracle_answer() {
        let mut rng = SmallRng::seed_from_u64(34);
        let a = symmetric_matrix(&mut rng, 40, -2.0, 2.0);
        let opts = TopkOptions::default().with_force(true).with_max_basis(10);
        let (eig, report) = sym_eigen_topk_report(&a, 10, &opts).unwrap();
        assert!(report.used_fallback, "starved basis must fall back");
        // The fallback is the very same dense solve, so eigenvalues are
        // bitwise equal to the truncated oracle's.
        assert_eq!(eig.eigenvalues, sym_eigen(&a).unwrap().eigenvalues[..10]);
    }

    #[test]
    fn zero_matrix_returns_certified_null_pairs() {
        let (eig, report) = sym_eigen_topk_report(
            &Matrix::zeros(9, 9),
            4,
            &TopkOptions::default().with_force(true),
        )
        .unwrap();
        assert_eq!(eig.eigenvalues, vec![0.0; 4]);
        assert!(report.residuals.iter().all(|&r| r == 0.0));
        // Orthonormal columns.
        assert!(eig
            .eigenvectors
            .gram()
            .approx_eq(&Matrix::identity(4), 1e-14));
    }

    #[test]
    fn rank_deficient_gram_with_k_past_rank_pads_with_null_pairs() {
        let mut rng = SmallRng::seed_from_u64(35);
        // 120-dim Gram of rank <= 5.
        let m = uniform_matrix(&mut rng, 5, 120, -1.0, 1.0);
        let g = m.gram();
        let opts = TopkOptions::default().with_force(true);
        let (eig, report) = sym_eigen_topk_report(&g, 9, &opts).unwrap();
        assert!(!report.used_dense);
        assert_certified(&g, &eig, DEFAULT_TOPK_TOL);
        let full = sym_eigen(&g).unwrap();
        for i in 0..9 {
            assert!(
                (eig.eigenvalues[i] - full.eigenvalues[i]).abs() <= 1e-7 * g.frobenius_norm(),
                "eigenvalue {i}"
            );
        }
        // Pairs past the rank are numerically null.
        for i in 5..9 {
            assert!(eig.eigenvalues[i].abs() <= 1e-7 * g.frobenius_norm());
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(matches!(
            sym_eigen_topk_with(&Matrix::zeros(0, 0), 1, &TopkOptions::default()),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            sym_eigen_topk_with(&Matrix::zeros(2, 3), 1, &TopkOptions::default()),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            sym_eigen_topk_with(&Matrix::identity(3), 0, &TopkOptions::default()),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn canonicalization_makes_solvers_comparable() {
        let mut rng = SmallRng::seed_from_u64(36);
        let a = symmetric_matrix(&mut rng, 100, -1.0, 1.0);
        let forced = sym_eigen_topk_with(&a, 5, &TopkOptions::default().with_force(true)).unwrap();
        let full = dense_truncated(&a, 5).unwrap();
        let err = forced
            .eigenvectors
            .sub(&full.eigenvectors)
            .unwrap()
            .frobenius_norm();
        assert!(
            err <= 1e-4,
            "canonicalized eigenvectors should agree across solvers, diff {err}"
        );
    }

    #[test]
    fn repeated_runs_are_bitwise_identical() {
        let mut rng = SmallRng::seed_from_u64(37);
        let a = symmetric_matrix(&mut rng, 110, -3.0, 3.0);
        let opts = TopkOptions::default().with_force(true);
        let x = sym_eigen_topk_with(&a, 7, &opts).unwrap();
        let y = sym_eigen_topk_with(&a, 7, &opts).unwrap();
        assert_eq!(x.eigenvalues, y.eigenvalues);
        assert_eq!(x.eigenvectors.as_slice(), y.eigenvectors.as_slice());
    }
}
