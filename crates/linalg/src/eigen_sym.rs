//! Symmetric eigendecomposition.
//!
//! The decomposition is computed with the classic two-phase dense approach:
//!
//! 1. **Householder tridiagonalization** (`tred2`): the symmetric input `A`
//!    is reduced to a tridiagonal matrix `T = Qᵀ A Q` while accumulating the
//!    orthogonal transformation `Q`.
//! 2. **Implicit QL with Wilkinson shifts** (`tql2`): the tridiagonal matrix
//!    is iteratively diagonalized, rotations being applied to `Q` so its
//!    columns become the eigenvectors of `A`.
//!
//! This is the standard EISPACK/`tred2`+`tql2` pair; it is `O(n³)` with a
//! small constant, numerically robust for the symmetric (Gram) matrices the
//! interval SVD algorithms produce, and has no external dependencies.
//!
//! ## Memory layout and parallelism
//!
//! The classic EISPACK loops walk *columns* of the accumulated
//! transformation — a stride-`n` access pattern that thrashes the cache as
//! soon as the matrix outgrows L2. The `O(n³)` passes here are therefore
//! restructured **row-wise** (same per-element operations in the same
//! order, so the results match the textbook formulation bitwise):
//!
//! * `tred2`'s symmetric product, rank-2 update and transformation
//!   accumulation sweep contiguous rows of `v`,
//! * `tql2` records each QL iteration's Givens rotations `(c, s)` first
//!   and then applies the whole batch row by row, instead of dragging
//!   every rotation down a column pair.
//!
//! The purely element-wise passes (the rank-2 update, the accumulation
//! update and the batched rotation application) additionally split their
//! row panels across the `IVMF_THREADS` worker pool once a pass touches at
//! least [`EIGEN_PAR_MIN_WORK`] elements; per-element arithmetic does not
//! depend on the panel split, so results stay bitwise identical for every
//! thread count.

use crate::{LinalgError, Matrix, Result};

/// Maximum QL iterations per eigenvalue before giving up.
const MAX_QL_ITERATIONS: usize = 64;

/// Minimum number of touched matrix elements before an element-wise
/// eigensolver pass is split across the worker pool: below this the pass is
/// cheaper than spawning the scoped workers (the pool spawns per call).
pub const EIGEN_PAR_MIN_WORK: usize = 32 * 1024;

/// Worker count for one element-wise pass over `work` matrix elements.
fn pass_threads(work: usize) -> usize {
    if work >= EIGEN_PAR_MIN_WORK {
        ivmf_par::configured_threads()
    } else {
        1
    }
}

/// Result of a symmetric eigendecomposition `A = Q Λ Qᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, sorted in **descending** order.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose `j`-th column is the eigenvector for `eigenvalues[j]`.
    pub eigenvectors: Matrix,
}

impl SymEigen {
    /// Reconstructs `Q Λ Qᵀ`; useful for testing the factorization.
    ///
    /// `Q Λ` is formed by scaling the columns of `Q` directly
    /// ([`Matrix::scale_cols`], `O(n²)`) rather than materializing the
    /// diagonal matrix and paying an `O(n³)` product for it.
    pub fn reconstruct(&self) -> Matrix {
        let q = &self.eigenvectors;
        q.scale_cols(&self.eigenvalues)
            .and_then(|ql| ql.matmul_nt(q))
            .expect("shapes are consistent by construction")
    }
}

/// Computes the eigendecomposition of a symmetric matrix.
///
/// The input is **symmetrized** (`(A + Aᵀ)/2`) before factorization so
/// that tiny asymmetries caused by floating-point round-off in upstream
/// products (e.g. interval Gram matrices) do not disturb the algorithm.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] when `a` is not square.
/// * [`LinalgError::Empty`] when `a` has zero size.
/// * [`LinalgError::InvalidArgument`] when an entry is NaN or ±Inf (the
///   message names the first one in row-major order).
/// * [`LinalgError::NoConvergence`] if the QL sweep fails to converge.
pub fn sym_eigen(a: &Matrix) -> Result<SymEigen> {
    if a.is_empty() {
        return Err(LinalgError::Empty);
    }
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if let Some(at) = a.as_slice().iter().position(|x| !x.is_finite()) {
        return Err(non_finite_entry(at / n, at % n, a.as_slice()[at]));
    }
    // Symmetrize defensively.
    let mut v = a.add(&a.transpose())?.scale(0.5);
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];

    tred2(&mut v, &mut d, &mut e);
    tql2(&mut v, &mut d, &mut e)?;

    into_sorted_descending(d, v)
}

/// The error for a NaN or ±Inf entry `x` at `(row, col)` of an
/// eigensolver input: no solver can certify such a matrix, so it is
/// rejected before any work instead of failing to converge.
pub(crate) fn non_finite_entry(row: usize, col: usize, x: f64) -> LinalgError {
    LinalgError::InvalidArgument(format!(
        "eigensolver input has the non-finite entry {x} at ({row}, {col})"
    ))
}

/// Packages a raw `(d, v)` eigensystem as a [`SymEigen`] sorted in
/// descending eigenvalue order. The sort is stable, so equal eigenvalues
/// keep their original relative column order.
fn into_sorted_descending(d: Vec<f64>, v: Matrix) -> Result<SymEigen> {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(std::cmp::Ordering::Equal));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let eigenvectors = v.permute_cols(&order)?;
    Ok(SymEigen {
        eigenvalues,
        eigenvectors,
    })
}

/// Eigendecomposition of the symmetric tridiagonal matrix with diagonal
/// `diag` and sub-diagonal `sub` (`sub.len() == diag.len() - 1`; a zero
/// entry splits the matrix into independent blocks).
///
/// This is the shared QL backend: [`sym_eigen`] reaches it through a dense
/// Householder reduction, while the top-k Lanczos solver in
/// [`crate::eigen_topk`] produces its tridiagonal projection directly and
/// only needs the sweep plus the descending sort.
pub(crate) fn eigen_tridiagonal(diag: &[f64], sub: &[f64]) -> Result<SymEigen> {
    let p = diag.len();
    if p == 0 {
        return Err(LinalgError::Empty);
    }
    debug_assert_eq!(sub.len(), p - 1, "sub-diagonal must have length n - 1");
    let mut v = Matrix::identity(p);
    let mut d = diag.to_vec();
    // tql2 takes the sub-diagonal in e[1..] (it shifts it down itself).
    let mut e = vec![0.0; p];
    e[1..].copy_from_slice(sub);
    tql2(&mut v, &mut d, &mut e)?;
    into_sorted_descending(d, v)
}

/// Eigenvalues of the symmetric tridiagonal matrix `(diag, sub)` together
/// with the **last row** of its eigenvector matrix, both in descending
/// eigenvalue order.
///
/// `tql2` only ever touches its rotation target through column rotations,
/// so accumulating them into a single row seeded with the last identity
/// row reproduces row `p − 1` of [`eigen_tridiagonal`]'s eigenvector
/// matrix bitwise — at `O(p²)` instead of `O(p³)`. The Lanczos solver uses
/// this for its cheap convergence prefilter `|β · y[p−1, i]|`, paying for
/// full eigenvectors only once the prefilter passes.
pub(crate) fn eigen_tridiagonal_values(diag: &[f64], sub: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
    let p = diag.len();
    if p == 0 {
        return Err(LinalgError::Empty);
    }
    debug_assert_eq!(sub.len(), p - 1, "sub-diagonal must have length n - 1");
    let mut v = Matrix::from_fn(1, p, |_, j| if j == p - 1 { 1.0 } else { 0.0 });
    let mut d = diag.to_vec();
    let mut e = vec![0.0; p];
    e[1..].copy_from_slice(sub);
    tql2(&mut v, &mut d, &mut e)?;
    let mut order: Vec<usize> = (0..p).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(std::cmp::Ordering::Equal));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let last_row: Vec<f64> = order.iter().map(|&i| v[(0, i)]).collect();
    Ok((eigenvalues, last_row))
}

/// Eigenvectors of the symmetric tridiagonal `(diag, sub)` for the given
/// precomputed eigenvalues, by inverse iteration — `O(p)` per vector
/// instead of the `O(p³)` rotation accumulation of [`eigen_tridiagonal`].
///
/// Returns a `p × lambdas.len()` matrix whose column `i` is a unit
/// eigenvector for `lambdas[i]`. The caller is responsible for only
/// passing **well-separated** eigenvalues: inverse iteration converges to
/// the eigenvector nearest each shift, so clustered eigenvalues would
/// yield nearly-parallel columns (the top-k Lanczos extraction gates on
/// separation and falls back to the full accumulation otherwise, and its
/// explicit residual certification rejects any vector this produces that
/// is not an eigenvector to tolerance).
///
/// Deterministic by construction: fixed start vectors, a fixed two-solve
/// iteration, serial arithmetic.
pub(crate) fn tridiagonal_eigenvectors(
    diag: &[f64],
    sub: &[f64],
    lambdas: &[f64],
) -> Result<Matrix> {
    let p = diag.len();
    if p == 0 {
        return Err(LinalgError::Empty);
    }
    debug_assert_eq!(sub.len(), p - 1, "sub-diagonal must have length n - 1");
    let t_scale = diag
        .iter()
        .chain(sub.iter())
        .fold(0.0_f64, |m, &x| m.max(x.abs()))
        .max(f64::MIN_POSITIVE);
    let mut out = Matrix::zeros(p, lambdas.len());
    let mut x = vec![0.0; p];
    for (col, &lambda) in lambdas.iter().enumerate() {
        // Fixed full-support start vector, varied per column so a shift
        // whose eigenvector happens to be orthogonal to one start still
        // sees a component in another.
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = 1.0 + 0.5 * (((j * 7 + col * 13 + 3) % 11) as f64 - 5.0) / 5.0;
        }
        // Two solves of `(T − λI) y = x` are enough: the first amplifies
        // the target component by ~1/(eps·‖T‖), the second washes out any
        // unlucky start. Normalize between solves to avoid overflow.
        for _ in 0..2 {
            solve_shifted_tridiagonal(diag, sub, lambda, t_scale, &mut x);
            let m = x.iter().fold(0.0_f64, |s, &v| s + v * v).sqrt();
            if m == 0.0 {
                // Solve annihilated the vector (cannot happen with the
                // pivot floor, but stay defensive): restart from ones.
                x.iter_mut().for_each(|v| *v = 1.0);
                continue;
            }
            x.iter_mut().for_each(|v| *v /= m);
        }
        for (j, &xj) in x.iter().enumerate() {
            out[(j, col)] = xj;
        }
    }
    Ok(out)
}

/// Floors a pivot away from zero: inverse iteration wants an exact
/// eigenvalue shift to *amplify*, not divide by zero.
#[inline]
fn floored(pivot: f64, floor: f64) -> f64 {
    if pivot.abs() >= floor {
        pivot
    } else if pivot < 0.0 {
        -floor
    } else {
        floor
    }
}

/// Solves `(T − λI) y = x` in place for a symmetric tridiagonal `T`, by
/// Gaussian elimination with partial pivoting (the one-superdiagonal
/// fill-in variant LAPACK's `dstein` uses). Pivots smaller than
/// `eps · t_scale` are floored to that magnitude.
///
/// Row `i` is carried through elimination as `(d, s1)` — its diagonal and
/// first-superdiagonal entries; a second superdiagonal (`sup2`) only fills
/// in when a pivot swap pulls the longer row `i + 1` up.
fn solve_shifted_tridiagonal(diag: &[f64], sub: &[f64], lambda: f64, t_scale: f64, x: &mut [f64]) {
    let p = diag.len();
    let floor = f64::EPSILON * t_scale;
    if p == 1 {
        x[0] /= floored(diag[0] - lambda, floor);
        return;
    }
    let mut main = vec![0.0; p];
    let mut sup1 = vec![0.0; p];
    let mut sup2 = vec![0.0; p];
    let mut cur_d = diag[0] - lambda;
    let mut cur_s1 = sub[0];
    for i in 0..p - 1 {
        let below = sub[i];
        let mut nxt_d = diag[i + 1] - lambda;
        let mut nxt_s1 = if i + 1 < p - 1 { sub[i + 1] } else { 0.0 };
        let to_eliminate;
        if below.abs() > cur_d.abs() {
            // Swap rows i and i+1: the pristine lower row becomes the
            // pivot row (it extends one column further right), the carried
            // row drops down to be eliminated.
            main[i] = below;
            sup1[i] = nxt_d;
            sup2[i] = nxt_s1;
            to_eliminate = cur_d;
            nxt_d = cur_s1;
            nxt_s1 = 0.0;
            x.swap(i, i + 1);
        } else {
            main[i] = cur_d;
            sup1[i] = cur_s1;
            to_eliminate = below;
        }
        main[i] = floored(main[i], floor);
        let m = to_eliminate / main[i];
        nxt_d -= m * sup1[i];
        nxt_s1 -= m * sup2[i];
        x[i + 1] -= m * x[i];
        cur_d = nxt_d;
        cur_s1 = nxt_s1;
    }
    main[p - 1] = floored(cur_d, floor);
    // Back substitution over the three-band upper triangle.
    x[p - 1] /= main[p - 1];
    if p >= 2 {
        x[p - 2] = (x[p - 2] - sup1[p - 2] * x[p - 1]) / main[p - 2];
    }
    for i in (0..p - 2).rev() {
        x[i] = (x[i] - sup1[i] * x[i + 1] - sup2[i] * x[i + 2]) / main[i];
    }
}

/// Householder reduction of the symmetric matrix stored in `v` to
/// tridiagonal form. On exit `d` holds the diagonal, `e` the sub-diagonal
/// (with `e[0] == 0`), and `v` the accumulated orthogonal transformation.
fn tred2(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = v[(n - 1, j)];
    }

    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0;
        let mut h = 0.0;
        for item in d.iter().take(i) {
            scale += item.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
                v[(j, i)] = 0.0;
            }
        } else {
            // Generate Householder vector.
            for item in d.iter_mut().take(i) {
                *item /= scale;
                h += *item * *item;
            }
            let f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for item in e.iter_mut().take(i) {
                *item = 0.0;
            }

            // Apply the similarity transformation to the remaining columns:
            // e[0..i] becomes the product of the symmetric matrix (stored in
            // the lower triangle of v) with the Householder vector d. Swept
            // row-wise — row k contributes its below-diagonal entries to
            // both e[k] (dot with d) and e[j], j < k (scatter) — in the same
            // per-element order as the column-walking EISPACK loop, so the
            // results match it bitwise.
            for j in 0..i {
                v[(j, i)] = d[j];
            }
            for k in 0..i {
                let dk = d[k];
                let mut s = 0.0;
                let row = &v.row(k)[..=k];
                for (j, &vkj) in row[..k].iter().enumerate() {
                    s += vkj * d[j];
                    e[j] += vkj * dk;
                }
                e[k] = s + row[k] * dk;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            // Rank-2 update A ← A − d·eᵀ − e·dᵀ on the lower triangle,
            // row-wise; each element is touched exactly once, so the row
            // panels split across the worker pool without changing the
            // arithmetic.
            {
                let cols = v.cols();
                let d_ro: &[f64] = d;
                let e_ro: &[f64] = e;
                let threads = pass_threads(i * i / 2);
                ivmf_par::par_row_panels(
                    &mut v.as_mut_slice()[..i * cols],
                    cols,
                    threads,
                    |first_row, panel| {
                        for (r, row) in panel.chunks_mut(cols).enumerate() {
                            let k = first_row + r;
                            let (ek, dk) = (e_ro[k], d_ro[k]);
                            for (j, x) in row[..=k].iter_mut().enumerate() {
                                *x -= d_ro[j] * ek + e_ro[j] * dk;
                            }
                        }
                    },
                );
            }
            for j in 0..i {
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate transformations: for each stored Householder vector
    // (column i+1), project the leading block onto it and subtract the
    // rank-1 correction. The projection coefficients g[j] accumulate row by
    // row (k ascending per coefficient, matching the column walk bitwise)
    // and the element-wise rank-1 update splits its row panels across the
    // worker pool.
    let mut w = vec![0.0; n];
    let mut g = vec![0.0; n];
    for i in 0..(n - 1) {
        v[(n - 1, i)] = v[(i, i)];
        v[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                w[k] = v[(k, i + 1)];
                d[k] = w[k] / h;
            }
            for x in g[..=i].iter_mut() {
                *x = 0.0;
            }
            for (k, &wk) in w[..=i].iter().enumerate() {
                for (x, &vkj) in g[..=i].iter_mut().zip(&v.row(k)[..=i]) {
                    *x += wk * vkj;
                }
            }
            let cols = v.cols();
            let d_ro: &[f64] = d;
            let g_ro: &[f64] = &g;
            let threads = pass_threads((i + 1) * (i + 1));
            ivmf_par::par_row_panels(
                &mut v.as_mut_slice()[..(i + 1) * cols],
                cols,
                threads,
                |first_row, panel| {
                    for (r, row) in panel.chunks_mut(cols).enumerate() {
                        let dk = d_ro[first_row + r];
                        for (x, &gj) in row[..=i].iter_mut().zip(&g_ro[..=i]) {
                            *x -= gj * dk;
                        }
                    }
                },
            );
        }
        for k in 0..=i {
            v[(k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = v[(n - 1, j)];
        v[(n - 1, j)] = 0.0;
    }
    v[(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Applies one QL iteration's recorded Givens rotations to the eigenvector
/// matrix: `rotations[idx]` rotates the column pair `(i, i+1)` with
/// `i = m − 1 − idx` (the order the scalar recurrence produced them).
///
/// The batch is applied to one cache-resident block of rows at a time,
/// with the rotation loop *outside* the row loop: successive rotations on
/// one row form a serial dependency chain (rotation `i` reads what rotation
/// `i+1` wrote), so iterating rows innermost keeps the updates independent
/// and superscalar while the block's column window stays L1-resident —
/// unlike the textbook full-height column walk, which streams a stride-`n`
/// pair through the whole matrix per rotation. Per element the rotations
/// still apply in the recorded order, so the result is bitwise identical to
/// the column walk, for any row-panel split across the worker pool.
fn apply_rotations(v: &mut Matrix, m: usize, rotations: &[(f64, f64)]) {
    /// Rows rotated together: enough independent updates per rotation to
    /// saturate the FP units, few enough that the block's active column
    /// pair stays in L1.
    const ROTATION_ROW_BLOCK: usize = 32;
    if rotations.is_empty() {
        return;
    }
    let cols = v.cols();
    let threads = pass_threads(v.rows() * rotations.len());
    let rotate_blocks = |panel: &mut [f64]| {
        for block in panel.chunks_mut(ROTATION_ROW_BLOCK * cols) {
            let rows = block.len() / cols;
            for (idx, &(c, s)) in rotations.iter().enumerate() {
                let i = m - 1 - idx;
                for r in 0..rows {
                    let base = r * cols + i;
                    let (lo, hi) = (block[base], block[base + 1]);
                    block[base + 1] = s * lo + c * hi;
                    block[base] = c * lo - s * hi;
                }
            }
        }
    };
    if threads == 1 {
        // Inline single-panel path: tql2 calls this once per QL iteration
        // (hundreds of times for the Lanczos prefilter's 1×p target), so
        // skipping the worker-pool dispatch is a real win. Identical block
        // walk, so the result is bitwise the same as the pooled path.
        rotate_blocks(v.as_mut_slice());
        return;
    }
    ivmf_par::par_row_panels(v.as_mut_slice(), cols, threads, |_, panel| {
        rotate_blocks(panel)
    });
}

/// Implicit QL algorithm with shifts applied to the tridiagonal matrix
/// `(d, e)`, accumulating rotations into `v`.
fn tql2(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    let mut rotations: Vec<(f64, f64)> = Vec::with_capacity(n);
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0;
    let mut tst1: f64 = 0.0;
    let eps = f64::EPSILON;

    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m == n {
            m = n - 1;
        }

        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                if iter > MAX_QL_ITERATIONS {
                    return Err(LinalgError::NoConvergence {
                        algorithm: "tql2",
                        iterations: MAX_QL_ITERATIONS,
                    });
                }

                // Compute implicit shift.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = hypot(p, 1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for item in d.iter_mut().take(n).skip(l + 2) {
                    *item -= h;
                }
                f += h;

                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                rotations.clear();
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    h = c * p;
                    r = hypot(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    rotations.push((c, s));
                }
                // Accumulate the recorded rotations into the eigenvector
                // matrix in one row-wise batch.
                apply_rotations(v, m, &rotations);
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// `√(a² + b²)` for the QL shift and rotation magnitudes.
///
/// The naive form is exact to a couple of ulps and compiles to two
/// multiplies and a hardware square root; the libm `hypot` it replaces is
/// an out-of-line call that dominated the whole tridiagonal sweep (it runs
/// once per recorded rotation — `O(p²)` times per solve). Inputs whose
/// squares could overflow or fully underflow still take the libm path, so
/// the result stays finite and nonzero exactly when `hypot`'s would be.
#[inline]
fn hypot(a: f64, b: f64) -> f64 {
    const SAFE_MAX: f64 = 1e150;
    const SAFE_MIN: f64 = 1e-150;
    let (aa, ab) = (a.abs(), b.abs());
    let big = aa.max(ab);
    if big < SAFE_MAX && big > SAFE_MIN {
        (a * a + b * b).sqrt()
    } else {
        a.hypot(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::symmetric_matrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn assert_orthonormal(q: &Matrix, tol: f64) {
        let qtq = q.gram();
        assert!(
            qtq.approx_eq(&Matrix::identity(q.cols()), tol),
            "columns are not orthonormal"
        );
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((e.eigenvalues[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_of_2x2_known() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector for eigenvalue 3 is (1,1)/sqrt(2) up to sign.
        let v0 = e.eigenvectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn eigen_reconstructs_random_symmetric_matrices() {
        let mut rng = SmallRng::seed_from_u64(11);
        for &n in &[1usize, 2, 3, 5, 10, 25, 60] {
            let a = symmetric_matrix(&mut rng, n, -5.0, 5.0);
            let e = sym_eigen(&a).unwrap();
            let rec = e.reconstruct();
            let err = a.sub(&rec).unwrap().frobenius_norm() / a.frobenius_norm().max(1.0);
            assert!(err < 1e-9, "reconstruction error {err} for n={n}");
            assert_orthonormal(&e.eigenvectors, 1e-9);
        }
    }

    #[test]
    fn eigenvalues_are_sorted_descending() {
        let mut rng = SmallRng::seed_from_u64(12);
        let a = symmetric_matrix(&mut rng, 20, -1.0, 1.0);
        let e = sym_eigen(&a).unwrap();
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn eigen_satisfies_definition() {
        let mut rng = SmallRng::seed_from_u64(13);
        let a = symmetric_matrix(&mut rng, 15, -2.0, 2.0);
        let e = sym_eigen(&a).unwrap();
        for j in 0..15 {
            let v = e.eigenvectors.col(j);
            let av = a.matvec(&v).unwrap();
            for i in 0..15 {
                assert!(
                    (av[i] - e.eigenvalues[j] * v[i]).abs() < 1e-8,
                    "A v != lambda v at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn eigen_of_positive_semidefinite_gram_is_nonnegative() {
        let mut rng = SmallRng::seed_from_u64(14);
        let m = crate::random::uniform_matrix(&mut rng, 12, 6, -1.0, 1.0);
        let g = m.gram();
        let e = sym_eigen(&g).unwrap();
        for &l in &e.eigenvalues {
            assert!(l > -1e-9, "gram eigenvalue should be >= 0, got {l}");
        }
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(matches!(
            sym_eigen(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            sym_eigen(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn handles_1x1_matrix() {
        let e = sym_eigen(&Matrix::from_rows(&[vec![7.5]])).unwrap();
        assert_eq!(e.eigenvalues, vec![7.5]);
        assert_eq!(e.eigenvectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn handles_zero_matrix() {
        let e = sym_eigen(&Matrix::zeros(4, 4)).unwrap();
        assert!(e.eigenvalues.iter().all(|&l| l.abs() < 1e-15));
        assert_orthonormal(&e.eigenvectors, 1e-12);
    }

    #[test]
    fn parallel_eigensolver_is_bitwise_deterministic_across_thread_counts() {
        // n chosen so the gated element-wise passes (rank-2 update,
        // accumulation update, batched rotations) actually cross
        // EIGEN_PAR_MIN_WORK and engage the worker pool. The contract
        // matches the packed matmul kernels: panel splits never change the
        // arithmetic, so IVMF_THREADS=1 and IVMF_THREADS=4 agree bitwise.
        let n = 260;
        assert!(n * n / 2 >= EIGEN_PAR_MIN_WORK);
        let mut rng = SmallRng::seed_from_u64(77);
        let a = symmetric_matrix(&mut rng, n, -3.0, 3.0);
        let _guard = crate::test_env::THREADS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let prev = std::env::var(ivmf_par::THREADS_ENV).ok();
        std::env::set_var(ivmf_par::THREADS_ENV, "1");
        let single = sym_eigen(&a).unwrap();
        std::env::set_var(ivmf_par::THREADS_ENV, "4");
        let quad = sym_eigen(&a).unwrap();
        match prev {
            Some(v) => std::env::set_var(ivmf_par::THREADS_ENV, v),
            None => std::env::remove_var(ivmf_par::THREADS_ENV),
        }
        assert_eq!(single.eigenvalues, quad.eigenvalues);
        assert_eq!(
            single.eigenvectors.as_slice(),
            quad.eigenvectors.as_slice(),
            "eigenvectors must agree bitwise across thread counts"
        );
    }

    #[test]
    fn tridiagonal_backend_matches_dense_solver() {
        // Compare the direct (diag, sub) entry point against sym_eigen on
        // the equivalent dense tridiagonal matrix.
        let diag = [2.0, -1.0, 0.5, 3.0, 1.0];
        let sub = [0.7, 0.0, -0.4, 1.2]; // a zero entry splits into blocks
        let n = diag.len();
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                diag[i]
            } else if j + 1 == i || i + 1 == j {
                sub[i.min(j)]
            } else {
                0.0
            }
        });
        let direct = eigen_tridiagonal(&diag, &sub).unwrap();
        let via_dense = sym_eigen(&dense).unwrap();
        for (a, b) in direct.eigenvalues.iter().zip(&via_dense.eigenvalues) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let rec = direct.reconstruct();
        assert!(rec.approx_eq(&dense, 1e-12), "QΛQᵀ must rebuild T");
        assert_orthonormal(&direct.eigenvectors, 1e-12);
    }

    #[test]
    fn tridiagonal_values_backend_matches_full_backend_bitwise() {
        // The single-row rotation target must reproduce the eigenvalues
        // and the eigenvector last row of the full backend bit for bit —
        // the Lanczos prefilter depends on the decisions being identical.
        let mut rng = SmallRng::seed_from_u64(21);
        for &p in &[1usize, 2, 5, 17, 48] {
            let diag: Vec<f64> = (0..p).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let sub: Vec<f64> = (0..p.saturating_sub(1))
                .map(|i| {
                    if i % 5 == 3 {
                        0.0
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            let full = eigen_tridiagonal(&diag, &sub).unwrap();
            let (vals, last_row) = eigen_tridiagonal_values(&diag, &sub).unwrap();
            assert_eq!(vals, full.eigenvalues, "p={p}: eigenvalues differ");
            let full_last: Vec<f64> = (0..p).map(|j| full.eigenvectors[(p - 1, j)]).collect();
            assert_eq!(last_row, full_last, "p={p}: last row differs");
        }
        assert!(matches!(
            eigen_tridiagonal_values(&[], &[]),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn inverse_iteration_matches_full_backend_on_separated_spectra() {
        // The inverse-iteration path only runs on well-separated leading
        // eigenvalues; check it against the rotation-accumulating backend
        // on random tridiagonals whose leading gaps are forced open.
        let mut rng = SmallRng::seed_from_u64(33);
        for &(p, k) in &[(1usize, 1usize), (2, 1), (8, 3), (31, 6), (64, 12)] {
            let diag: Vec<f64> = (0..p).map(|i| 2.0 * (p - i) as f64).collect();
            let sub: Vec<f64> = (0..p.saturating_sub(1))
                .map(|_| rng.gen_range(-0.3..0.3))
                .collect();
            let full = eigen_tridiagonal(&diag, &sub).unwrap();
            let vecs = tridiagonal_eigenvectors(&diag, &sub, &full.eigenvalues[..k]).unwrap();
            for col in 0..k {
                let lambda = full.eigenvalues[col];
                // Residual ‖T v − λ v‖ must certify the eigenpair.
                let mut res = 0.0f64;
                for i in 0..p {
                    let mut tv = diag[i] * vecs[(i, col)];
                    if i > 0 {
                        tv += sub[i - 1] * vecs[(i - 1, col)];
                    }
                    if i + 1 < p {
                        tv += sub[i] * vecs[(i + 1, col)];
                    }
                    res += (tv - lambda * vecs[(i, col)]).powi(2);
                }
                assert!(
                    res.sqrt() < 1e-10 * diag[0],
                    "p={p} col={col}: residual {}",
                    res.sqrt()
                );
                // And agree with the full backend up to sign.
                let dot: f64 = (0..p)
                    .map(|i| vecs[(i, col)] * full.eigenvectors[(i, col)])
                    .sum();
                assert!(
                    (dot.abs() - 1.0).abs() < 1e-9,
                    "p={p} col={col}: |<v, v_full>| = {}",
                    dot.abs()
                );
            }
        }
    }

    #[test]
    fn tridiagonal_backend_handles_1x1_and_rejects_empty() {
        let e = eigen_tridiagonal(&[4.5], &[]).unwrap();
        assert_eq!(e.eigenvalues, vec![4.5]);
        assert!(matches!(
            eigen_tridiagonal(&[], &[]),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn handles_repeated_eigenvalues() {
        // 2 * I has eigenvalue 2 with multiplicity 3.
        let e = sym_eigen(&Matrix::identity(3).scale(2.0)).unwrap();
        for &l in &e.eigenvalues {
            assert!((l - 2.0).abs() < 1e-12);
        }
        assert_orthonormal(&e.eigenvectors, 1e-12);
    }
}
