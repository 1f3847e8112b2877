use std::fmt;
use std::ops::{Index, IndexMut};

use crate::kernel::{gemm_into, mirror_upper, Plain, Trans};
use crate::{LinalgError, Result};

/// A dense, row-major, `f64` matrix.
///
/// The layout is a single `Vec<f64>` of length `rows * cols`; element
/// `(i, j)` lives at `data[i * cols + j]`. This is the storage used by every
/// algorithm in the workspace (interval matrices are simply *pairs* of
/// `Matrix` bounds).
///
/// Fallible operations (shape-dependent arithmetic, inversion, …) return
/// [`Result`]; shape-safe accessors use `Index`/`IndexMut` and panic only on
/// programmer errors (out-of-bounds indexing), mirroring `Vec`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// What [`Matrix::scale_cols_or_zero`] and [`Matrix::permute_cols_scaled`]
/// do to one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColScale {
    /// Leave the column's entries untouched.
    Keep,
    /// Multiply every entry by the factor.
    By(f64),
    /// Set every entry to `0.0`.
    Zero,
}

impl ColScale {
    /// The operation applied to one entry `x` of the column.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            ColScale::Keep => x,
            ColScale::By(s) => x * s,
            ColScale::Zero => 0.0,
        }
    }
}

/// Scalar-multiplication count (`n·k·m`) below which [`Matrix::matmul`]
/// runs the reference i-k-j kernel instead of the packed register-tiled
/// one: at tiny sizes the two kernels are equivalent, packing overhead
/// dominates, and the reference kernel keeps the historical bitwise
/// behaviour of the small-matrix tests.
pub const MATMUL_BLOCKED_MIN_WORK: usize = 32 * 32 * 32;

/// Scalar-multiplication count (`n·k·m`) above which [`Matrix::matmul`]
/// splits its output row panels across the `IVMF_THREADS` worker pool.
pub const MATMUL_PAR_MIN_WORK: usize = 64 * 64 * 64;

/// Worker count for a product of `work` scalar multiplications: 1 below
/// [`MATMUL_PAR_MIN_WORK`], the `IVMF_THREADS` pool size at or above it.
pub(crate) fn threads_for(work: usize) -> usize {
    if work >= MATMUL_PAR_MIN_WORK {
        ivmf_par::configured_threads()
    } else {
        1
    }
}

/// How one product runs — the reference loops or the packed kernel, and
/// on how many workers — decided once from the *whole* product's shape.
///
/// The two kernels round differently (the packed one fuses with
/// `fmadd`), and the reference loops skip zero left entries, so they can
/// disagree in the last bit or in the sign of a zero. A product computed
/// in blocks passes the whole product's `Dispatch` to every block
/// ([`Matrix::matmul_with`]); each entry then runs exactly the arithmetic
/// of the one-shot product, whatever the block sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    packed: bool,
    threads: usize,
}

impl Dispatch {
    /// The dispatch of a product of `n·k·m` scalar multiplications (`n×k`
    /// times `k×m`): the packed kernel at or above
    /// [`MATMUL_BLOCKED_MIN_WORK`], split across `IVMF_THREADS` workers at
    /// or above [`MATMUL_PAR_MIN_WORK`].
    pub fn for_shape(n: usize, k: usize, m: usize) -> Self {
        Self::for_work(n * k * m)
    }

    /// The dispatch of a product of `work` scalar multiplications.
    pub(crate) fn for_work(work: usize) -> Self {
        Dispatch {
            packed: work >= MATMUL_BLOCKED_MIN_WORK,
            threads: threads_for(work),
        }
    }

    /// The Gram dispatch of an `n × m` operand ([`Matrix::gram`] counts
    /// `n·m²/2` multiplications for its upper triangle).
    pub(crate) fn for_gram(n: usize, m: usize) -> Self {
        Self::for_work(n * m * m / 2)
    }

    /// This dispatch's kernel for one block of the product, of `work`
    /// scalar multiplications, on the workers that block's own size
    /// warrants: the kernel fixes the bits, so every entry stays that of
    /// the whole product, while a small block no longer pays for threads
    /// sized for the whole.
    pub fn for_block(self, work: usize) -> Self {
        Dispatch {
            threads: threads_for(work),
            ..self
        }
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "data length {} does not match shape {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices. Panics if rows are ragged.
    ///
    /// Intended for literals in tests and examples; use [`Matrix::from_vec`]
    /// for data paths where the shape is not statically known.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Checked element access.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                row: i,
                col: j,
                shape: self.shape(),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Checked element update.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                row: i,
                col: j,
                shape: self.shape(),
            });
        }
        self.data[i * self.cols + j] = value;
        Ok(())
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new `Vec`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrite column `j` with `values`.
    pub fn set_col(&mut self, j: usize, values: &[f64]) -> Result<()> {
        if values.len() != self.rows {
            return Err(LinalgError::InvalidArgument(format!(
                "column length {} does not match row count {}",
                values.len(),
                self.rows
            )));
        }
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
        Ok(())
    }

    /// Extract the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// Element-wise quotient; entries where `|rhs| < eps` produce `0`.
    ///
    /// This is the guarded division used by the NMF multiplicative update
    /// rules, which must stay finite when a denominator entry collapses.
    pub fn hadamard_div_guarded(&self, rhs: &Matrix, eps: f64) -> Result<Matrix> {
        self.zip_with(
            rhs,
            "hadamard_div",
            |a, b| if b.abs() < eps { 0.0 } else { a / b },
        )
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiply every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Apply `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Entry-wise mean of two matrices: `(self + rhs) / 2`.
    ///
    /// This is the "average matrix" used by ISVD0 and by the option-b/c
    /// target constructions.
    pub fn mean_with(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "mean_with", |a, b| 0.5 * (a + b))
    }

    /// Matrix product `self * rhs`.
    ///
    /// Products below [`MATMUL_BLOCKED_MIN_WORK`] scalar multiplications run
    /// the reference i-k-j kernel ([`Matrix::matmul_naive`]); larger ones
    /// take the packed, register-tiled GEBP kernel (see the `kernel` module
    /// docs for the packing layout), and above [`MATMUL_PAR_MIN_WORK`] its
    /// output row panels are split across the worker threads of the
    /// settings in force (see [`ivmf_par::configured_threads`]).
    ///
    /// Every output element accumulates its inner-dimension terms in a
    /// fixed global order, so the result is bitwise identical for every
    /// thread count.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_with(rhs, Dispatch::for_shape(self.rows, self.cols, rhs.cols))
    }

    /// [`Matrix::matmul`] with an explicit worker count (the kernel is
    /// bitwise deterministic across thread counts, so this only changes
    /// scheduling). Used by the streaming layer, which parallelizes across
    /// chunks and therefore runs each chunk product inline.
    pub(crate) fn matmul_impl(&self, rhs: &Matrix, threads: usize) -> Result<Matrix> {
        let work = self.rows * self.cols * rhs.cols;
        self.matmul_with(
            rhs,
            Dispatch {
                threads,
                ..Dispatch::for_work(work)
            },
        )
    }

    /// [`Matrix::matmul`] with the kernel `dispatch` chose, typically for a
    /// larger product this one is a row or column block of: every entry
    /// is then bitwise the entry of that larger product.
    pub fn matmul_with(&self, rhs: &Matrix, dispatch: Dispatch) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self.matmul_window(0, self.cols, rhs, dispatch))
    }

    /// `self[:, offset..offset + width] · rhs`, reading the column window
    /// in place: bitwise equal to [`Matrix::matmul_with`] on a copy of the
    /// window. Callers check `offset + width <= cols` and
    /// `width == rhs.rows()`.
    pub(crate) fn matmul_window(
        &self,
        offset: usize,
        width: usize,
        rhs: &Matrix,
        dispatch: Dispatch,
    ) -> Matrix {
        debug_assert!(offset + width <= self.cols && width == rhs.rows);
        let (n, m) = (self.rows, rhs.cols);
        let mut out = Matrix::zeros(n, m);
        if !dispatch.packed {
            // The reference i-k-j loop: both operands walk contiguous
            // rows, and zero entries of `self` are skipped.
            for i in 0..n {
                let a_row = &self.row(i)[offset..offset + width];
                let out_row = &mut out.data[i * m..(i + 1) * m];
                for (kk, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = &rhs.data[kk * m..(kk + 1) * m];
                    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a * b;
                    }
                }
            }
        } else {
            let lhs = Plain::window(self, offset, width);
            gemm_into(&lhs, &Plain::of(rhs), &mut out, dispatch.threads, false);
        }
        out
    }

    /// Matrix product with a transposed right operand: `self * rhsᵀ`, for
    /// `self` of shape `n×k` and `rhs` of shape `m×k`, **without**
    /// materializing the transpose.
    ///
    /// This is the shape of every `U Vᵀ` reconstruction and of the k-means
    /// cross-term products; the packed kernel reads `rhs` through a
    /// transposed view while packing, and small products fall back to
    /// row-by-row dot products (both operands walk contiguous rows).
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_nt_with(rhs, Dispatch::for_shape(self.rows, self.cols, rhs.rows))
    }

    /// [`Matrix::matmul_nt`] with the kernel `dispatch` chose (see
    /// [`Matrix::matmul_with`]).
    pub(crate) fn matmul_nt_with(&self, rhs: &Matrix, dispatch: Dispatch) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (n, m) = (self.rows, rhs.rows);
        let mut out = Matrix::zeros(n, m);
        if !dispatch.packed {
            for i in 0..n {
                let a_row = self.row(i);
                let out_row = &mut out.data[i * m..(i + 1) * m];
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = a_row
                        .iter()
                        .zip(rhs.row(j))
                        .map(|(&a, &b)| a * b)
                        .sum::<f64>();
                }
            }
        } else {
            gemm_into(
                &Plain::of(self),
                &Trans(rhs),
                &mut out,
                dispatch.threads,
                false,
            );
        }
        Ok(out)
    }

    /// Matrix product with a transposed left operand: `selfᵀ * rhs`, for
    /// `self` of shape `k×n` and `rhs` of shape `k×m`, **without**
    /// materializing the transpose.
    ///
    /// This is the `Mᵀ U` shape of the NMF/PMF multiplicative updates; the
    /// packed kernel packs `selfᵀ` straight out of the row-major storage
    /// (columns of a row-major matrix are contiguous in the transposed
    /// view's rows), and small products run a k-outer saxpy accumulation.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix> {
        let work = self.cols * self.rows * rhs.cols;
        self.matmul_tn_impl(rhs, threads_for(work))
    }

    /// [`Matrix::matmul_tn`] with an explicit worker count (bitwise
    /// identical for every count); the streaming cross-product accumulator
    /// uses it to run chunk products inline while parallelizing across
    /// chunks.
    pub(crate) fn matmul_tn_impl(&self, rhs: &Matrix, threads: usize) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (n, k, m) = (self.cols, self.rows, rhs.cols);
        let work = n * k * m;
        let mut out = Matrix::zeros(n, m);
        if work < MATMUL_BLOCKED_MIN_WORK {
            for kk in 0..k {
                let a_row = self.row(kk);
                let b_row = rhs.row(kk);
                for (i, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &b) in out.data[i * m..(i + 1) * m].iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        } else {
            gemm_into(&Trans(self), &Plain::of(rhs), &mut out, threads, false);
        }
        Ok(out)
    }

    /// Reference matrix product: the straightforward i-k-j triple loop the
    /// repository started from, with the innermost loop walking both
    /// operands contiguously and skipping zero entries of `self` (a win on
    /// the sparse synthetic workloads).
    ///
    /// Kept as the tests' reference: they cross-check the packed kernel
    /// against it.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_with(
            rhs,
            Dispatch {
                packed: false,
                threads: 1,
            },
        )
    }

    /// Computes the Gram matrix `selfᵀ * self` without materializing the
    /// transpose, exploiting symmetry (SYRK): only the upper triangle is
    /// computed — half the multiplications of a general product — and then
    /// mirrored into the lower one.
    ///
    /// Large products run the packed register-tiled kernel over a
    /// transposed-LHS view, skipping every tile strictly below the
    /// diagonal; small ones run an upper-triangle row saxpy. The result is
    /// exactly symmetric by construction.
    pub fn gram(&self) -> Matrix {
        let (n, m) = self.shape();
        self.gram_impl(threads_for(n * m * m / 2))
    }

    /// [`Matrix::gram`] with an explicit worker count (bitwise identical
    /// for every count); the streaming Gram accumulator uses it to run
    /// chunk SYRKs inline while parallelizing across chunks.
    pub(crate) fn gram_impl(&self, threads: usize) -> Matrix {
        let (n, m) = self.shape();
        let mut out = Matrix::zeros(m, m);
        let dispatch = Dispatch {
            threads,
            ..Dispatch::for_gram(n, m)
        };
        self.gram_upper_into(&mut out, dispatch);
        mirror_upper(&mut out);
        out
    }

    /// Adds this block's Gram `selfᵀ·self` into the upper triangle of
    /// `out` (diagonal included; strict-lower entries are scratch until the
    /// caller mirrors), with the kernel `dispatch` chose. Folding the row blocks
    /// of a matrix in order, under the whole matrix's
    /// [`Dispatch::for_gram`], reproduces its [`Matrix::gram`] upper
    /// triangle bit for bit as long as every block but the last holds a
    /// multiple of `KC` rows: the reference loop is one running sum per
    /// entry in row order, and the packed kernel adds one partial per
    /// `KC`-row K-block, counted from the first row.
    pub(crate) fn gram_upper_into(&self, out: &mut Matrix, dispatch: Dispatch) {
        let (n, m) = self.shape();
        debug_assert_eq!(out.shape(), (m, m));
        if !dispatch.packed {
            for i in 0..n {
                let row = self.row(i);
                for a in 0..m {
                    let ra = row[a];
                    if ra == 0.0 {
                        continue;
                    }
                    let out_row = &mut out.data[a * m + a..(a + 1) * m];
                    for (o, &rb) in out_row.iter_mut().zip(&row[a..]) {
                        *o += ra * rb;
                    }
                }
            }
        } else {
            gemm_into(&Trans(self), &Plain::of(self), out, dispatch.threads, true);
        }
    }

    /// Computes the left Gram matrix `self * selfᵀ` without materializing
    /// the transpose, exploiting symmetry exactly like [`Matrix::gram`]
    /// (upper triangle + mirror).
    pub fn gram_left(&self) -> Matrix {
        let (n, k) = self.shape();
        let mut out = Matrix::zeros(n, n);
        let work = n * n * k / 2;
        if work < MATMUL_BLOCKED_MIN_WORK {
            for i in 0..n {
                let row_i = self.row(i);
                for j in i..n {
                    out.data[i * n + j] = row_i
                        .iter()
                        .zip(self.row(j))
                        .map(|(&a, &b)| a * b)
                        .sum::<f64>();
                }
            }
        } else {
            gemm_into(
                &Plain::of(self),
                &Trans(self),
                &mut out,
                threads_for(work),
                true,
            );
        }
        mirror_upper(&mut out);
        out
    }

    /// Alias for [`Matrix::gram_left`], kept for the callers that predate
    /// the SYRK kernels.
    pub fn outer_gram(&self) -> Matrix {
        self.gram_left()
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Each row reduces through `dot_unrolled`: single-threaded with a
    /// fixed summation order, so the result is bitwise reproducible
    /// across runs and thread counts. Rows are walked in pairs
    /// (`dot2_unrolled`) so each load of `v` feeds two rows — a
    /// throughput detail that leaves every row's summation order (and so
    /// the result) unchanged.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        let mut i = 0;
        while i + 1 < self.rows {
            let (s0, s1) = dot2_unrolled(self.row(i), self.row(i + 1), v);
            out.push(s0);
            out.push(s1);
            i += 2;
        }
        if i < self.rows {
            out.push(dot_unrolled(self.row(i), v));
        }
        Ok(out)
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &x| acc.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Keeps the first `r` columns (truncation used for rank-`r`
    /// decompositions).
    pub fn take_cols(&self, r: usize) -> Matrix {
        let r = r.min(self.cols);
        let mut out = Matrix::zeros(self.rows, r);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..r]);
        }
        out
    }

    /// Keeps the first `r` rows.
    pub fn take_rows(&self, r: usize) -> Matrix {
        let r = r.min(self.rows);
        Matrix {
            rows: r,
            cols: self.cols,
            data: self.data[..r * self.cols].to_vec(),
        }
    }

    /// Returns a new matrix whose columns are permuted: output column `j`
    /// is input column `perm[j]`.
    pub fn permute_cols(&self, perm: &[usize]) -> Result<Matrix> {
        self.permute_cols_scaled(perm, &vec![ColScale::Keep; perm.len()])
    }

    /// [`Matrix::permute_cols`] fused with a per-column
    /// [`ColScale`]: output column `j` is input column `perm[j]` with
    /// `ops[j]` applied — one row-major pass over the matrix.
    pub fn permute_cols_scaled(&self, perm: &[usize], ops: &[ColScale]) -> Result<Matrix> {
        if perm.len() != self.cols {
            return Err(LinalgError::InvalidArgument(format!(
                "permutation length {} does not match column count {}",
                perm.len(),
                self.cols
            )));
        }
        if ops.len() != self.cols {
            return Err(LinalgError::InvalidArgument(format!(
                "scale count {} does not match column count {}",
                ops.len(),
                self.cols
            )));
        }
        if let Some(&j_old) = perm.iter().find(|&&j| j >= self.cols) {
            return Err(LinalgError::InvalidArgument(format!(
                "permutation index {j_old} out of bounds for {} columns",
                self.cols
            )));
        }
        let mut data = Vec::with_capacity(self.data.len());
        if self.cols > 0 {
            for row in self.data.chunks_exact(self.cols) {
                data.extend(perm.iter().zip(ops).map(|(&j, op)| op.apply(row[j])));
            }
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Returns a copy with column `j` scaled by `scales[j]` — i.e. the
    /// product `self · diag(scales)` in `O(n·m)` instead of the `O(n·m²)`
    /// of materializing the diagonal matrix and multiplying.
    ///
    /// This is the kernel behind every `U Σ` / `V Σ⁻¹` factor scaling in
    /// the SVD/eigen reconstructions and the pseudo-inverse.
    pub fn scale_cols(&self, scales: &[f64]) -> Result<Matrix> {
        if scales.len() != self.cols {
            return Err(LinalgError::InvalidArgument(format!(
                "scale vector length {} does not match column count {}",
                scales.len(),
                self.cols
            )));
        }
        let mut out = self.clone();
        for i in 0..out.rows {
            for (x, &s) in out.row_mut(i).iter_mut().zip(scales) {
                *x *= s;
            }
        }
        Ok(out)
    }

    /// Multiply column `j` by `s` in place.
    pub fn scale_col(&mut self, j: usize, s: f64) {
        for i in 0..self.rows {
            self[(i, j)] *= s;
        }
    }

    /// Applies `ops[j]` to every entry of column `j` in place, in one
    /// row-major pass (the `O(n·r)` column scalings of tall factors).
    /// [`ColScale::Zero`] columns are *set* to `0.0`, so NaN, ±Inf and
    /// `-0.0` entries become `+0.0` rather than their product with zero.
    pub fn scale_cols_or_zero(&mut self, ops: &[ColScale]) -> Result<()> {
        if ops.len() != self.cols {
            return Err(LinalgError::InvalidArgument(format!(
                "scale count {} does not match column count {}",
                ops.len(),
                self.cols
            )));
        }
        if self.cols > 0 {
            for row in self.data.chunks_exact_mut(self.cols) {
                for (x, op) in row.iter_mut().zip(ops) {
                    *x = op.apply(*x);
                }
            }
        }
        Ok(())
    }

    /// The `Σ⁻¹` factor scaling `self · diag(1/σ)` in place: column `j` is
    /// multiplied by `1/sigma[j]` when `sigma[j] > tol` and positive, and
    /// zeroed otherwise (a numerically negligible singular value).
    pub fn scale_cols_by_inverse(&mut self, sigma: &[f64], tol: f64) -> Result<()> {
        let ops: Vec<ColScale> = sigma
            .iter()
            .map(|&s| {
                if s > tol && s > 0.0 {
                    ColScale::By(1.0 / s)
                } else {
                    ColScale::Zero
                }
            })
            .collect();
        self.scale_cols_or_zero(&ops)
    }

    /// Euclidean norms of every column in one row-major pass; each column
    /// folds its squares in ascending row order, so entry `j` is bitwise
    /// equal to [`Matrix::col_norm`]`(j)`.
    pub fn col_norms(&self) -> Vec<f64> {
        // `-0.0` is the neutral element of `f64`'s `Sum`, which
        // `col_norm` folds with: a zero-row matrix matches it too.
        let mut acc = vec![-0.0_f64; self.cols];
        if self.cols > 0 {
            for row in self.data.chunks_exact(self.cols) {
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a += x * x;
                }
            }
        }
        acc.into_iter().map(f64::sqrt).collect()
    }

    /// Euclidean norm of column `j`.
    pub fn col_norm(&self, j: usize) -> f64 {
        (0..self.rows)
            .map(|i| self[(i, j)] * self[(i, j)])
            .sum::<f64>()
            .sqrt()
    }

    /// Dot product of columns `a` and `b`.
    pub fn col_dot(&self, a: usize, b: usize) -> f64 {
        (0..self.rows).map(|i| self[(i, a)] * self[(i, b)]).sum()
    }

    /// True when every corresponding entry differs by at most `tol`.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(rhs.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Relative Frobenius distance `‖self − rhs‖_F / ‖self‖_F`
    /// (0 when `self` is the zero matrix and `rhs` equals it).
    pub fn relative_error(&self, rhs: &Matrix) -> Result<f64> {
        let diff = self.sub(rhs)?;
        let denom = self.frobenius_norm();
        if denom == 0.0 {
            return Ok(if diff.frobenius_norm() == 0.0 {
                0.0
            } else {
                f64::INFINITY
            });
        }
        Ok(diff.frobenius_norm() / denom)
    }
}

/// Serial dot product with a fixed 8-lane unrolled summation order.
///
/// The eight independent accumulators break the additive dependency chain
/// that keeps a strictly sequential `Σ aᵢ·bᵢ` reduction scalar, letting the
/// compiler vectorize the loop — while the order in which partial sums are
/// combined stays fixed, so the result is bitwise reproducible across runs
/// and thread counts (it is still a *different* fixed order than the
/// sequential reduction, like every kernel-level accumulator split).
pub(crate) fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    const LANES: usize = 8;
    let n = a.len().min(b.len());
    let split = n - n % LANES;
    let mut acc = [0.0_f64; LANES];
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (&x, &y) in a[split..n].iter().zip(&b[split..n]) {
        s += x * y;
    }
    s
}

/// Two [`dot_unrolled`] products against a shared right-hand side,
/// interleaved so each load of `b` feeds both rows. The per-row summation
/// order is exactly [`dot_unrolled`]'s, so each result is bitwise identical
/// to the single-row call — this is a throughput optimization for
/// row-blocked matrix–vector products, not a different reduction.
pub(crate) fn dot2_unrolled(a0: &[f64], a1: &[f64], b: &[f64]) -> (f64, f64) {
    const LANES: usize = 8;
    let n = a0.len().min(a1.len()).min(b.len());
    let split = n - n % LANES;
    let mut acc0 = [0.0_f64; LANES];
    let mut acc1 = [0.0_f64; LANES];
    for ((c0, c1), cb) in a0[..split]
        .chunks_exact(LANES)
        .zip(a1[..split].chunks_exact(LANES))
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc0[l] += c0[l] * cb[l];
            acc1[l] += c1[l] * cb[l];
        }
    }
    let mut s0 =
        ((acc0[0] + acc0[1]) + (acc0[2] + acc0[3])) + ((acc0[4] + acc0[5]) + (acc0[6] + acc0[7]));
    let mut s1 =
        ((acc1[0] + acc1[1]) + (acc1[2] + acc1[3])) + ((acc1[4] + acc1[5]) + (acc1[6] + acc1[7]));
    for ((&x0, &x1), &y) in a0[split..n].iter().zip(&a1[split..n]).zip(&b[split..n]) {
        s0 += x0 * y;
        s1 += x1 * y;
    }
    (s0, s1)
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8usize;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::assert_same_bits;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(!m.is_square());
        assert!(Matrix::zeros(2, 2).is_square());
    }

    #[test]
    fn identity_diagonal() {
        let i3 = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(i3[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn get_set_checked() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0).unwrap();
        assert_eq!(m.get(0, 1).unwrap(), 5.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn row_and_col_accessors() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn set_col_replaces_column() {
        let mut m = sample();
        m.set_col(0, &[9.0, 8.0]).unwrap();
        assert_eq!(m.col(0), vec![9.0, 8.0]);
        assert!(m.set_col(0, &[1.0]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_sub_hadamard() {
        let m = sample();
        let sum = m.add(&m).unwrap();
        assert_eq!(sum[(1, 2)], 12.0);
        let diff = sum.sub(&m).unwrap();
        assert_eq!(diff, m);
        let prod = m.hadamard(&m).unwrap();
        assert_eq!(prod[(0, 1)], 4.0);
        assert!(m.add(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn guarded_division_handles_zero_denominator() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![0.0, 4.0]]);
        let q = a.hadamard_div_guarded(&b, 1e-12).unwrap();
        assert_eq!(q[(0, 0)], 0.0);
        assert_eq!(q[(0, 1)], 0.5);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i = Matrix::identity(3);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    /// Deterministic pseudo-random fill that does not depend on the `rand`
    /// stub, so kernel tests control their inputs exactly.
    fn lcg_matrix(rows: usize, cols: usize, mut state: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn blocked_matmul_matches_reference_kernel() {
        // Sizes straddling the block size and the dispatch thresholds,
        // including ragged shapes that exercise the unroll remainder.
        for &(n, k, m) in &[(33usize, 45usize, 37usize), (64, 64, 64), (70, 129, 53)] {
            let a = lcg_matrix(n, k, 1 + n as u64);
            let b = lcg_matrix(k, m, 99 + m as u64);
            let fast = a.matmul(&b).unwrap();
            let reference = a.matmul_naive(&b).unwrap();
            let scale = reference.max_abs().max(1.0);
            assert!(
                fast.approx_eq(&reference, 1e-12 * scale),
                "blocked kernel diverged from reference at {n}x{k}x{m}"
            );
        }
    }

    #[test]
    fn matmul_naive_rejects_bad_shapes() {
        let a = sample();
        assert!(a.matmul_naive(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn packed_kernels_are_bitwise_deterministic_across_thread_counts() {
        // All shapes above MATMUL_PAR_MIN_WORK, so the row-panel split
        // actually engages the worker pool. Bitwise equality — not
        // approx_eq — is the contract: panel boundaries must never change
        // the arithmetic, for the general product and for every packed
        // variant (SYRK gram, transposed-operand products).
        let a = lcg_matrix(96, 80, 7);
        let b = lcg_matrix(80, 96, 11);
        let c = lcg_matrix(100, 80, 13);
        const _: () = assert!(96 * 80 * 96 >= MATMUL_PAR_MIN_WORK);
        const _: () = assert!(96 * 80 * 80 / 2 >= MATMUL_PAR_MIN_WORK);
        let run = || {
            (
                a.matmul(&b).unwrap(),
                a.gram(),
                a.gram_left(),
                a.matmul_nt(&c).unwrap(),
                b.matmul_tn(&b).unwrap(),
            )
        };
        let single = crate::test_env::with_threads(1, run);
        let quad = crate::test_env::with_threads(4, run);
        for (label, s, q) in [
            ("matmul", &single.0, &quad.0),
            ("gram", &single.1, &quad.1),
            ("gram_left", &single.2, &quad.2),
            ("matmul_nt", &single.3, &quad.3),
            ("matmul_tn", &single.4, &quad.4),
        ] {
            assert_eq!(
                s.as_slice(),
                q.as_slice(),
                "{label}: IVMF_THREADS=1 and IVMF_THREADS=4 must agree bitwise"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_packed_kernels_match_reference(seed in 0u64..1_000_000) {
            // Random shapes straddling the packed-kernel dispatch threshold
            // (and, at the top of the range, the SYRK dispatch too): every
            // packed kernel must match the naive reference within a
            // componentwise tolerance.
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(28usize..78);
            let k = rng.gen_range(28usize..78);
            let m = rng.gen_range(28usize..78);
            let a = lcg_matrix(n, k, seed ^ 1);
            let b = lcg_matrix(k, m, seed ^ 2);
            let bt = lcg_matrix(m, k, seed ^ 3);
            let tol_of = |reference: &Matrix| 1e-12 * reference.max_abs().max(1.0) * k as f64;

            let reference = a.matmul_naive(&b).unwrap();
            proptest::prop_assert!(a.matmul(&b).unwrap().approx_eq(&reference, tol_of(&reference)));

            let reference = a.matmul_naive(&bt.transpose()).unwrap();
            proptest::prop_assert!(a.matmul_nt(&bt).unwrap().approx_eq(&reference, tol_of(&reference)));

            let ta = lcg_matrix(k, n, seed ^ 4);
            let reference = ta.transpose().matmul_naive(&b).unwrap();
            proptest::prop_assert!(ta.matmul_tn(&b).unwrap().approx_eq(&reference, tol_of(&reference)));

            let reference = a.transpose().matmul_naive(&a).unwrap();
            proptest::prop_assert!(a.gram().approx_eq(&reference, tol_of(&reference)));

            let reference = a.matmul_naive(&a.transpose()).unwrap();
            proptest::prop_assert!(a.gram_left().approx_eq(&reference, tol_of(&reference)));
        }
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let m = sample();
        let g = m.gram();
        let expected = m.transpose().matmul(&m).unwrap();
        assert!(g.approx_eq(&expected, 1e-12));
        let og = m.outer_gram();
        let expected2 = m.matmul(&m.transpose()).unwrap();
        assert!(og.approx_eq(&expected2, 1e-12));
    }

    #[test]
    fn syrk_gram_is_exactly_symmetric_and_matches_reference_at_scale() {
        // Large enough that the packed SYRK path (upper triangle + mirror)
        // engages rather than the small-product fallback.
        let m = lcg_matrix(70, 60, 31);
        for g in [m.gram(), m.gram_left()] {
            for i in 0..g.rows() {
                for j in 0..i {
                    assert_eq!(g[(i, j)].to_bits(), g[(j, i)].to_bits());
                }
            }
        }
        let scale = m.max_abs().max(1.0);
        let expected = m.transpose().matmul_naive(&m).unwrap();
        assert!(m.gram().approx_eq(&expected, 1e-10 * scale * scale));
        let expected_left = m.matmul_naive(&m.transpose()).unwrap();
        assert!(m
            .gram_left()
            .approx_eq(&expected_left, 1e-10 * scale * scale));
    }

    #[test]
    fn matmul_nt_tn_match_explicit_transpose() {
        // Below and above the packed-kernel dispatch threshold, including
        // ragged shapes that exercise the zero-padded tail strips.
        for &(n, k, m) in &[(3usize, 5usize, 4usize), (41, 67, 39), (70, 70, 70)] {
            let a = lcg_matrix(n, k, 5 + n as u64);
            let b = lcg_matrix(m, k, 6 + m as u64);
            let fast = a.matmul_nt(&b).unwrap();
            let reference = a.matmul_naive(&b.transpose()).unwrap();
            let scale = reference.max_abs().max(1.0);
            assert!(
                fast.approx_eq(&reference, 1e-12 * scale),
                "matmul_nt diverged at {n}x{k}x{m}"
            );

            let at = lcg_matrix(k, n, 7 + n as u64);
            let bt = lcg_matrix(k, m, 8 + m as u64);
            let fast = at.matmul_tn(&bt).unwrap();
            let reference = at.transpose().matmul_naive(&bt).unwrap();
            let scale = reference.max_abs().max(1.0);
            assert!(
                fast.approx_eq(&reference, 1e-12 * scale),
                "matmul_tn diverged at {n}x{k}x{m}"
            );
        }
        assert!(sample().matmul_nt(&Matrix::zeros(2, 2)).is_err());
        assert!(sample().matmul_tn(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn scale_cols_matches_diagonal_product() {
        let m = sample();
        let scales = [2.0, 0.5, -1.0];
        let scaled = m.scale_cols(&scales).unwrap();
        let expected = m.matmul(&Matrix::from_diag(&scales)).unwrap();
        assert_eq!(scaled, expected);
        assert!(m.scale_cols(&[1.0]).is_err());
    }

    #[test]
    fn matvec_known_product() {
        let m = sample();
        let v = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(v, vec![6.0, 15.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scale_and_map() {
        let m = sample().scale(2.0);
        assert_eq!(m[(0, 0)], 2.0);
        let m2 = m.map(|x| x - 1.0);
        assert_eq!(m2[(0, 0)], 1.0);
    }

    #[test]
    fn mean_with_averages_entries() {
        let a = Matrix::from_rows(&[vec![0.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 4.0]]);
        assert_eq!(
            a.mean_with(&b).unwrap(),
            Matrix::from_rows(&[vec![1.0, 3.0]])
        );
    }

    #[test]
    fn take_cols_and_rows_truncate() {
        let m = sample();
        let c = m.take_cols(2);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(1, 1)], 5.0);
        let r = m.take_rows(1);
        assert_eq!(r.shape(), (1, 3));
        // Requesting more than available keeps everything.
        assert_eq!(m.take_cols(10), m);
    }

    #[test]
    fn permute_cols_reorders() {
        let m = sample();
        let p = m.permute_cols(&[2, 0, 1]).unwrap();
        assert_eq!(p.col(0), vec![3.0, 6.0]);
        assert_eq!(p.col(1), vec![1.0, 4.0]);
        assert!(m.permute_cols(&[0, 1]).is_err());
        assert!(m.permute_cols(&[0, 1, 9]).is_err());
    }

    #[test]
    fn column_norm_and_dot() {
        let m = Matrix::from_rows(&[vec![3.0, 1.0], vec![4.0, 0.0]]);
        assert!((m.col_norm(0) - 5.0).abs() < 1e-12);
        assert!((m.col_dot(0, 1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn scale_col_in_place() {
        let mut m = sample();
        m.scale_col(1, 10.0);
        assert_eq!(m.col(1), vec![20.0, 50.0]);
    }

    #[test]
    fn relative_error_behaviour() {
        let m = sample();
        assert_eq!(m.relative_error(&m).unwrap(), 0.0);
        let zero = Matrix::zeros(2, 3);
        assert_eq!(zero.relative_error(&zero).unwrap(), 0.0);
        assert!(zero.relative_error(&m).unwrap().is_infinite());
    }

    #[test]
    fn non_finite_detection() {
        let mut m = sample();
        assert!(!m.has_non_finite());
        m[(0, 0)] = f64::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn debug_format_is_compact() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains("…"));
    }

    /// The column-at-a-time `permute_cols` the row-major pass replaced.
    fn permute_cols_oracle(m: &Matrix, perm: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(m.rows(), m.cols());
        for (j_new, &j_old) in perm.iter().enumerate() {
            for i in 0..m.rows() {
                out[(i, j_new)] = m[(i, j_old)];
            }
        }
        out
    }

    /// The column-at-a-time `Σ⁻¹` loop `scale_cols_by_inverse` replaced.
    fn inverse_scale_oracle(u: &mut Matrix, sigma: &[f64], tol: f64) {
        for (j, &s) in sigma.iter().enumerate() {
            if s > tol && s > 0.0 {
                u.scale_col(j, 1.0 / s);
            } else {
                for i in 0..u.rows() {
                    u[(i, j)] = 0.0;
                }
            }
        }
    }

    #[test]
    fn row_major_column_ops_handle_empty_shapes() {
        let tall = Matrix::zeros(0, 3);
        assert_eq!(
            tall.col_norms()
                .iter()
                .map(|&x| crate::random::bit_pattern(x))
                .collect::<Vec<_>>(),
            (0..3)
                .map(|j| crate::random::bit_pattern(tall.col_norm(j)))
                .collect::<Vec<_>>()
        );
        let empty = Matrix::zeros(4, 0);
        assert!(empty.col_norms().is_empty());
        assert_eq!(empty.permute_cols(&[]).unwrap().shape(), (4, 0));
        let mut e = empty.clone();
        e.scale_cols_or_zero(&[]).unwrap();
        assert_eq!(e, empty);
        let mut m = sample();
        assert!(m.scale_cols_or_zero(&[ColScale::Keep]).is_err());
        assert!(m
            .permute_cols_scaled(&[0, 1, 2], &[ColScale::Keep])
            .is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn prop_row_major_column_ops_match_column_oracles(seed in 0u64..1_000_000) {
            // Edge values (±0, subnormals, NaN, ±Inf, overflowing squares),
            // r = 1 and row counts off the 128-row chunk grid all appear.
            use crate::random::{edge_case_matrix, EDGE_VALUES};
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let rows = [1usize, 127, 129, 300][rng.gen_range(0..4usize)];
            let cols = if seed % 3 == 0 { 1 } else { rng.gen_range(1usize..24) };
            let m = edge_case_matrix(&mut rng, rows, cols);

            let norms = m.col_norms();
            for (j, norm) in norms.iter().enumerate() {
                proptest::prop_assert_eq!(
                    crate::random::bit_pattern(*norm),
                    crate::random::bit_pattern(m.col_norm(j))
                );
            }

            let mut perm: Vec<usize> = (0..cols).collect();
            for j in (1..cols).rev() {
                perm.swap(j, rng.gen_range(0..=j));
            }
            let flips: Vec<bool> = (0..cols).map(|_| rng.gen_range(0..2usize) == 0).collect();
            assert_same_bits(&m.permute_cols(&perm).unwrap(), &permute_cols_oracle(&m, &perm), "permute");

            // Keep / flip / edge-value factor / zero, per column.
            let ops: Vec<ColScale> = (0..cols)
                .map(|j| match rng.gen_range(0..4usize) {
                    0 => ColScale::Keep,
                    1 => ColScale::By(if flips[j] { -1.0 } else { 0.5 }),
                    2 => ColScale::By(EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]),
                    _ => ColScale::Zero,
                })
                .collect();
            let mut oracle = m.clone();
            for (j, op) in ops.iter().enumerate() {
                match *op {
                    ColScale::Keep => {}
                    ColScale::By(s) => oracle.scale_col(j, s),
                    ColScale::Zero => {
                        for i in 0..rows {
                            oracle[(i, j)] = 0.0;
                        }
                    }
                }
            }
            let mut scaled = m.clone();
            scaled.scale_cols_or_zero(&ops).unwrap();
            assert_same_bits(&scaled, &oracle, "scale_cols_or_zero");
            let fused = m.permute_cols_scaled(&perm, &ops).unwrap();
            let mut two_pass = permute_cols_oracle(&m, &perm);
            two_pass.scale_cols_or_zero(&ops).unwrap();
            assert_same_bits(&fused, &two_pass, "permute_cols_scaled");

            // Σ⁻¹ with negligible, zero, negative and NaN singular values.
            let sigma: Vec<f64> = (0..cols)
                .map(|_| match rng.gen_range(0..6usize) {
                    0 => 0.0,
                    1 => 1e-20,
                    2 => -1.0,
                    3 => f64::NAN,
                    _ => rng.gen_range(0.1..10.0),
                })
                .collect();
            for tol in [0.0, 1e-13, 1e-12 * 10.0] {
                let mut fast = m.clone();
                fast.scale_cols_by_inverse(&sigma, tol).unwrap();
                let mut slow = m.clone();
                inverse_scale_oracle(&mut slow, &sigma, tol);
                assert_same_bits(&fast, &slow, "scale_cols_by_inverse");
            }
        }
    }
}
