//! Sparse CSR row shards and chunk-realigned sparse streaming kernels.
//!
//! The rating matrices the paper factorizes are >95% sparse: a MovieLens-
//! scale workload (10⁶ users × 10⁴ items, ~100 nonzeros per row) is three
//! orders of magnitude away from fitting densely in memory, yet its Gram
//! matrix `AᵀA` (the `O(nnz·m)` heart of ISVD2–4) is perfectly computable.
//! This module adds the sparse counterpart of the [`streaming`](crate::streaming)
//! layer:
//!
//! * [`CsrShard`] — one row block in compressed-sparse-row form
//!   (`row_ptr`/`col_idx`/`values` over a fixed column count), and
//!   [`CsrShardedMatrix`], an ordered set of shards forming one virtual
//!   matrix ([`CsrRowBlocks`] is the lazy-source trait behind both);
//! * [`SparseGramAccumulator`] / [`SparseCrossGramAccumulator`] — Gram and
//!   cross-product accumulators that fold **over stored entries only**;
//! * [`gram_streamed_csr`] / [`matmul_streamed_csr`] /
//!   [`matmul_left_streamed_csr`] (and its transposed-output form
//!   [`matmul_left_streamed_csr_t`]) — the streamed products the
//!   decomposition pipeline's Gram-route stages run.
//!
//! Chunk re-alignment onto the fixed [`STREAM_CHUNK_ROWS`]-row global grid,
//! the two-level fold, the unit merge and the state text are not repeated
//! here: they are the same code the dense accumulators run (see the
//! [`streaming`](crate::streaming) module docs). What this module adds is
//! a CSR row buffer and the CSR chunk kernels below.
//!
//! ## Bitwise equality with the dense kernels
//!
//! The refactor's core discipline: for the same logical matrix (sparse
//! with explicitly stored values equal to the dense entries), every sparse
//! kernel here returns **bitwise identical** results to its dense
//! streaming counterpart, for every shard layout and `IVMF_THREADS` count.
//! That holds because skipping a zero term never changes a sum's bits:
//!
//! * every accumulator starts at `+0.0` and can never become `-0.0` (a
//!   round-to-nearest sum or FMA that is exactly zero returns `+0.0`), so
//!   adding `±0.0` — which is all an implicit zero ever contributes — is a
//!   bitwise no-op, as is `fmadd(0, x, acc)`;
//! * the sparse kernels replicate the dense kernels' *term order* exactly:
//!   rows ascend within each fixed global chunk, K-blocks of the kernel's
//!   fixed depth (`KC`) ascend for wide products, and each
//!   surviving term uses the same fused-vs-plain arithmetic, dispatched on
//!   the same `work` thresholds ([`MATMUL_BLOCKED_MIN_WORK`]) as the dense
//!   kernels.
//!
//! The equivalence is property-tested here and end-to-end (ISVD2–4) in the
//! workspace `sparse_equivalence` suite.

use crate::fold::{add_assign, realign, ChunkKernel, Partials, RowBuffer, StreamAccumulator};
use crate::kernel::{fmadd, KC};
use crate::matrix::threads_for;
use crate::pending::PendingCsrRows;
use crate::{LinalgError, Matrix, Result, RowBlocks, MATMUL_BLOCKED_MIN_WORK, STREAM_CHUNK_ROWS};
use std::borrow::Cow;

/// One row block of a sparse matrix in compressed-sparse-row (CSR) form.
///
/// `row_ptr` has `rows + 1` entries; row `i`'s stored entries are
/// `col_idx[row_ptr[i]..row_ptr[i+1]]` (strictly ascending columns) with
/// matching `values`. Explicitly stored values may be anything, including
/// `0.0` — a stored zero behaves bitwise exactly like a dense zero entry,
/// so [`CsrShard::from_dense`]'s zero-dropping is invisible in results.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrShard {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<usize>,
    pub(crate) values: Vec<f64>,
}

impl CsrShard {
    /// Builds a shard from raw CSR arrays, validating the structure:
    /// `row_ptr` must be a non-decreasing `rows + 1`-entry offset array
    /// starting at 0 and ending at `col_idx.len() == values.len()`, and
    /// every row's columns must be strictly ascending and below `cols`.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 || row_ptr.first() != Some(&0) {
            return Err(LinalgError::InvalidArgument(format!(
                "CSR row_ptr must have rows+1 = {} entries starting at 0, got {} entries",
                rows + 1,
                row_ptr.len()
            )));
        }
        if *row_ptr.last().expect("non-empty by the check above") != col_idx.len()
            || col_idx.len() != values.len()
        {
            return Err(LinalgError::InvalidArgument(format!(
                "CSR payload lengths disagree: row_ptr ends at {}, {} columns, {} values",
                row_ptr.last().expect("non-empty"),
                col_idx.len(),
                values.len()
            )));
        }
        for r in 0..rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(LinalgError::InvalidArgument(format!(
                    "CSR row_ptr decreases at row {r}"
                )));
            }
            let entries = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for (t, &c) in entries.iter().enumerate() {
                if c >= cols {
                    return Err(LinalgError::InvalidArgument(format!(
                        "CSR column {c} out of range for {cols} columns (row {r})"
                    )));
                }
                if t > 0 && entries[t - 1] >= c {
                    return Err(LinalgError::InvalidArgument(format!(
                        "CSR columns must be strictly ascending within a row (row {r})"
                    )));
                }
            }
        }
        Ok(CsrShard {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a shard from `(row, col, value)` triplets in any order.
    /// Duplicate coordinates are rejected (a rating stream should never
    /// observe one cell twice; silently summing would hide data bugs).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        entries: &[(usize, usize, f64)],
    ) -> Result<Self> {
        for &(r, c, _) in entries {
            if r >= rows || c >= cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "triplet ({r}, {c}) out of range for a {rows}x{cols} matrix"
                )));
            }
        }
        let mut sorted: Vec<&(usize, usize, f64)> = entries.iter().collect();
        sorted.sort_by_key(|&&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        row_ptr.push(0);
        let mut row = 0;
        for &&(r, c, v) in &sorted {
            if let Some(&last) = col_idx.last() {
                if row == r && last == c {
                    return Err(LinalgError::InvalidArgument(format!(
                        "duplicate triplet at ({r}, {c})"
                    )));
                }
            }
            while row < r {
                row_ptr.push(col_idx.len());
                row += 1;
            }
            col_idx.push(c);
            values.push(v);
        }
        while row < rows {
            row_ptr.push(col_idx.len());
            row += 1;
        }
        CsrShard::new(rows, cols, row_ptr, col_idx, values)
    }

    /// Converts a dense matrix, storing every entry that is not `±0.0`.
    /// The dropped zeros are bitwise no-ops in every kernel (see the
    /// module docs), so the conversion is invisible in results.
    pub fn from_dense(m: &Matrix) -> CsrShard {
        let (rows, cols) = m.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrShard {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materializes the dense matrix (the escape hatch for small
    /// fixtures; implicit entries become `0.0`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row_entries(i);
            let row = &mut out.as_mut_slice()[i * self.cols..(i + 1) * self.cols];
            for (&j, &v) in cols.iter().zip(vals) {
                row[j] = v;
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of cells with a stored entry (`nnz / (rows·cols)`; 0 for
    /// an empty shape).
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// The row-offset array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The stored column indices, row-major, ascending within a row.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The stored values, aligned with [`CsrShard::col_idx`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Deconstructs into `(rows, cols, row_ptr, col_idx, values)` — the
    /// inverse of [`CsrShard::new`] — so consumers can return the backing
    /// buffers to [`crate::pool`] once a shard has been folded.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<f64>) {
        (
            self.rows,
            self.cols,
            self.row_ptr,
            self.col_idx,
            self.values,
        )
    }

    /// Row `i`'s stored `(columns, values)` slices.
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// A shard with the same sparsity pattern and a new value payload
    /// (used by the interval layer to derive midpoint/radius streams).
    pub fn with_values(&self, values: Vec<f64>) -> Result<CsrShard> {
        if values.len() != self.values.len() {
            return Err(LinalgError::InvalidArgument(format!(
                "pattern has {} stored entries, got {} values",
                self.values.len(),
                values.len()
            )));
        }
        Ok(CsrShard {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values,
        })
    }

    /// The sub-shard of rows `start..end`.
    pub fn row_slice(&self, start: usize, end: usize) -> Result<CsrShard> {
        if start > end || end > self.rows {
            return Err(LinalgError::InvalidArgument(format!(
                "row range {start}..{end} out of bounds for {} rows",
                self.rows
            )));
        }
        let (s, e) = (self.row_ptr[start], self.row_ptr[end]);
        Ok(CsrShard {
            rows: end - start,
            cols: self.cols,
            row_ptr: self.row_ptr[start..=end].iter().map(|&p| p - s).collect(),
            col_idx: self.col_idx[s..e].to_vec(),
            values: self.values[s..e].to_vec(),
        })
    }
}

/// The densifying escape hatch: a CSR shard presented to the *dense*
/// streaming kernels as a sequence of densified [`STREAM_CHUNK_ROWS`]-row
/// blocks, so peak memory stays one chunk rather than the whole shard.
/// Slow on genuinely sparse data — the sparse kernels below are the fast
/// path — but bitwise identical, which is what lets the two paths mix.
impl RowBlocks for CsrShard {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn for_each_block(&self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()> {
        let mut start = 0;
        while start < self.rows {
            let end = (start + STREAM_CHUNK_ROWS).min(self.rows);
            f(&self.row_slice(start, end)?.to_dense())?;
            start = end;
        }
        Ok(())
    }
}

/// A sparse matrix presented as an ordered sequence of CSR row blocks —
/// the sparse counterpart of [`RowBlocks`]. Consumers fold blocks in row
/// order, so a source never holds more than one block in memory.
pub trait CsrRowBlocks {
    /// Total number of rows across all blocks.
    fn rows(&self) -> usize;
    /// Number of columns (identical for every block).
    fn cols(&self) -> usize;
    /// `(rows, cols)` of the full (virtual) matrix.
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    /// Calls `f` once per CSR row block, in row order.
    fn for_each_csr_block(&self, f: &mut dyn FnMut(&CsrShard) -> Result<()>) -> Result<()>;
}

impl CsrRowBlocks for CsrShard {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn for_each_csr_block(&self, f: &mut dyn FnMut(&CsrShard) -> Result<()>) -> Result<()> {
        f(self)
    }
}

/// An ordered set of CSR row-block shards forming one (virtual) sparse
/// matrix — the sparse counterpart of
/// [`RowShardedMatrix`](crate::RowShardedMatrix). The shard layout is
/// invisible in results (every consumer re-aligns to global chunk
/// boundaries); it only bounds peak per-block memory and sets the
/// granularity of [`CsrShardedMatrix::append_shard`].
#[derive(Debug, Clone, PartialEq)]
pub struct CsrShardedMatrix {
    shards: Vec<CsrShard>,
    rows: usize,
    cols: usize,
}

impl CsrShardedMatrix {
    /// Builds a sharded matrix from explicit CSR row blocks (non-empty
    /// list, no zero-row shards, consistent column counts).
    pub fn from_shards(shards: Vec<CsrShard>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(LinalgError::InvalidArgument(
                "a sharded CSR matrix needs at least one shard".to_string(),
            ));
        };
        let cols = first.cols;
        let mut rows = 0;
        for (i, s) in shards.iter().enumerate() {
            if s.rows == 0 {
                return Err(LinalgError::InvalidArgument(format!(
                    "shard {i} has zero rows"
                )));
            }
            if s.cols != cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "shard {i} has {} columns, expected {cols}",
                    s.cols
                )));
            }
            rows += s.rows;
        }
        Ok(CsrShardedMatrix { shards, rows, cols })
    }

    /// Splits a dense matrix into CSR shards of at most `shard_rows` rows.
    pub fn from_dense(m: &Matrix, shard_rows: usize) -> Result<Self> {
        CsrShardedMatrix::from_csr(&CsrShard::from_dense(m), shard_rows)
    }

    /// Splits one big CSR shard into shards of at most `shard_rows` rows.
    pub fn from_csr(m: &CsrShard, shard_rows: usize) -> Result<Self> {
        if shard_rows == 0 {
            return Err(LinalgError::InvalidArgument(
                "shard_rows must be at least 1".to_string(),
            ));
        }
        if m.rows == 0 {
            return Err(LinalgError::InvalidArgument(
                "cannot shard an empty matrix".to_string(),
            ));
        }
        let mut shards = Vec::new();
        let mut start = 0;
        while start < m.rows {
            let end = (start + shard_rows).min(m.rows);
            shards.push(m.row_slice(start, end)?);
            start = end;
        }
        CsrShardedMatrix::from_shards(shards)
    }

    /// Appends a new CSR row-block shard at the bottom.
    pub fn append_shard(&mut self, shard: CsrShard) -> Result<()> {
        if shard.rows == 0 {
            return Err(LinalgError::InvalidArgument(
                "appended shard has zero rows".to_string(),
            ));
        }
        if shard.cols != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "append_shard",
                lhs: (self.rows, self.cols),
                rhs: shard.shape(),
            });
        }
        self.rows += shard.rows;
        self.shards.push(shard);
        Ok(())
    }

    /// Total number of rows across all shards.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (identical for every shard).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the full (virtual) matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[CsrShard] {
        &self.shards
    }

    /// Total stored entries across all shards.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(CsrShard::nnz).sum()
    }

    /// Fraction of cells with a stored entry.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Materializes the dense matrix (row-order concatenation; the escape
    /// hatch for small fixtures).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let mut base = 0;
        for s in &self.shards {
            for i in 0..s.rows {
                let (cols, vals) = s.row_entries(i);
                let row =
                    &mut out.as_mut_slice()[(base + i) * self.cols..(base + i + 1) * self.cols];
                for (&j, &v) in cols.iter().zip(vals) {
                    row[j] = v;
                }
            }
            base += s.rows;
        }
        out
    }
}

impl CsrRowBlocks for CsrShardedMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn for_each_csr_block(&self, f: &mut dyn FnMut(&CsrShard) -> Result<()>) -> Result<()> {
        for s in &self.shards {
            f(s)?;
        }
        Ok(())
    }
}

impl RowBlocks for CsrShardedMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn for_each_block(&self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()> {
        for s in &self.shards {
            RowBlocks::for_each_block(s, f)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Chunk kernels: bitwise replicas of the dense per-chunk products, folding
// over stored entries only.
// ---------------------------------------------------------------------------

/// Gram partial `chunkᵀ · chunk` of one (at most [`STREAM_CHUNK_ROWS`]-row)
/// CSR chunk, **upper triangle only**: the diagonal and the entries above
/// it are bitwise those of [`Matrix::gram`] of the densified chunk, and
/// the strict lower triangle stays zero.
///
/// The dense SYRK accumulates each upper-triangle entry `(a, b)` over the
/// chunk rows ascending — plain `+=` below [`MATMUL_BLOCKED_MIN_WORK`]
/// (skipping zero `ra`), a register-tile `fmadd` fold in a single packed
/// K-block (chunk rows ≤ [`STREAM_CHUNK_ROWS`] < `KC`) at or above it. This
/// kernel walks the same rows in the same order, visits only stored entry
/// pairs (the skipped zero terms are bitwise no-ops) and applies the
/// identically dispatched plain/`fmadd` step. It does not mirror: the CSR
/// Gram folds upper-triangle partials and mirrors once at `finish`, which
/// yields the bits of mirroring every chunk (each mirrored entry is a copy
/// of its transpose twin, folded in the same order) at half the
/// `O(m²)`-per-chunk cost that dominates at high sparsity.
///
/// It runs on the calling thread: equal row panels of one chunk's
/// triangular output are too small and too unbalanced to pay for a thread
/// split, and the interval-Gram fold parallelizes over whole merge-group
/// units instead.
fn csr_gram_chunk_upper(chunk: &CsrShard) -> Matrix {
    let m = chunk.cols;
    let mut out = Matrix::zeros(m, m);
    csr_gram_chunk_upper_into(chunk, &mut out);
    out
}

/// [`csr_gram_chunk_upper`] into a caller-owned `m×m` scratch whose upper
/// triangle (diagonal included) is zero on entry; the strict lower
/// triangle is never touched. Reusing one scratch across the chunks of a
/// drain avoids an `m×m` allocation (and its page faults — 8 MiB per
/// chunk at `m = 1024`) on every one of the thousands of chunks a
/// large-scale stream folds; re-zeroing only the upper triangle between
/// chunks is bitwise invisible because the kernel reads and writes that
/// triangle alone.
fn csr_gram_chunk_upper_into(chunk: &CsrShard, out: &mut Matrix) {
    let m = chunk.cols;
    debug_assert_eq!(out.shape(), (m, m));
    if chunk.rows * m * m / 2 >= MATMUL_BLOCKED_MIN_WORK {
        csr_gram_upper(chunk, out.as_mut_slice(), m, fmadd);
    } else {
        csr_gram_upper(chunk, out.as_mut_slice(), m, |a, b, acc| acc + a * b);
    }
}

/// Zeros the upper triangle (diagonal included), resetting a scratch for
/// [`csr_gram_chunk_upper_into`].
fn zero_upper(mat: &mut Matrix) {
    let m = mat.cols();
    for i in 0..m {
        for v in &mut mat.as_mut_slice()[i * m + i..(i + 1) * m] {
            *v = 0.0;
        }
    }
}

/// The upper-triangle fold: all chunk rows ascending, all stored pairs
/// `(a ≤ b)`.
fn csr_gram_upper(
    chunk: &CsrShard,
    out: &mut [f64],
    m: usize,
    step: impl Fn(f64, f64, f64) -> f64,
) {
    for k in 0..chunk.rows {
        let (cols, vals) = chunk.row_entries(k);
        for (t, (&a, &va)) in cols.iter().zip(vals).enumerate() {
            let row = &mut out[a * m..(a + 1) * m];
            for (&b, &vb) in cols[t..].iter().zip(&vals[t..]) {
                row[b] = step(va, vb, row[b]);
            }
        }
    }
}

/// Cross product `aᵀ · b` of two row-aligned CSR chunks — bitwise
/// identical to [`Matrix::matmul_tn`] of the densified chunks (the dense
/// kernel's k-outer row order, with the same plain/`fmadd` dispatch on
/// `a.cols · rows · b.cols`; chunk rows < `KC` keep the packed path in a
/// single K-block). Runs on the calling thread, like
/// [`csr_gram_chunk_upper_into`].
fn csr_cross_chunk(a: &CsrShard, b: &CsrShard) -> Result<Matrix> {
    if a.rows != b.rows {
        return Err(LinalgError::DimensionMismatch {
            op: "csr_cross_gram",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (k, ma, mb) = (a.rows, a.cols, b.cols);
    let fused = ma * k * mb >= MATMUL_BLOCKED_MIN_WORK;
    let mut out = Matrix::zeros(ma, mb);
    let out_data = out.as_mut_slice();
    for kk in 0..k {
        let (a_cols, a_vals) = a.row_entries(kk);
        let (b_cols, b_vals) = b.row_entries(kk);
        for (&i, &va) in a_cols.iter().zip(a_vals) {
            let row = &mut out_data[i * mb..(i + 1) * mb];
            if fused {
                for (&j, &vb) in b_cols.iter().zip(b_vals) {
                    row[j] = fmadd(va, vb, row[j]);
                }
            } else {
                for (&j, &vb) in b_cols.iter().zip(b_vals) {
                    row[j] += va * vb;
                }
            }
        }
    }
    Ok(out)
}

/// Row product `chunk · rhs` for one CSR chunk and a dense right operand —
/// bitwise identical to [`Matrix::matmul`] of the densified chunk.
///
/// Below [`MATMUL_BLOCKED_MIN_WORK`] the dense kernel is the naive i-k-j
/// loop (zero entries of the left operand skipped, plain `+=`); at or
/// above, the packed kernel folds each output entry with `fmadd` inside
/// `KC`-deep K-blocks ascending, adding each block's register accumulator
/// onto the output. The inner dimension here is the chunk's *column*
/// count, which can exceed `KC`, so the fused path stages a per-row
/// partial per K-block and adds it back exactly like the dense kernel
/// (blocks without stored entries contribute `+0.0` — a bitwise no-op —
/// and are skipped).
fn csr_matmul_chunk(chunk: &CsrShard, rhs: &Matrix) -> Result<Matrix> {
    if chunk.cols != rhs.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "csr_matmul",
            lhs: chunk.shape(),
            rhs: rhs.shape(),
        });
    }
    let (n, kdim, m) = (chunk.rows, chunk.cols, rhs.cols());
    let work = n * kdim * m;
    let mut out = Matrix::zeros(n, m);
    if n == 0 || m == 0 {
        return Ok(out);
    }
    if work < MATMUL_BLOCKED_MIN_WORK {
        for i in 0..n {
            let (cols, vals) = chunk.row_entries(i);
            let out_row = &mut out.as_mut_slice()[i * m..(i + 1) * m];
            for (&kk, &a) in cols.iter().zip(vals) {
                if a == 0.0 {
                    continue; // the naive kernel's explicit zero skip
                }
                let b_row = &rhs.as_slice()[kk * m..(kk + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    } else {
        let threads = threads_for(work);
        ivmf_par::par_row_panels(out.as_mut_slice(), m, threads, |first_row, panel| {
            let mut partial = vec![0.0f64; m];
            for (local, out_row) in panel.chunks_mut(m).enumerate() {
                let (cols, vals) = chunk.row_entries(first_row + local);
                let mut t = 0;
                let mut k0 = 0;
                while k0 < kdim {
                    let kc = KC.min(kdim - k0);
                    let t0 = t;
                    while t < cols.len() && cols[t] < k0 + kc {
                        let b_row = &rhs.as_slice()[cols[t] * m..(cols[t] + 1) * m];
                        let a = vals[t];
                        for (p, &bv) in partial.iter_mut().zip(b_row) {
                            *p = fmadd(a, bv, *p);
                        }
                        t += 1;
                    }
                    if t > t0 {
                        for (o, p) in out_row.iter_mut().zip(partial.iter_mut()) {
                            *o += *p;
                            *p = 0.0;
                        }
                    }
                    k0 += kc;
                }
            }
        });
    }
    Ok(out)
}

/// Transposed reduction product `(lhs[:, offset..offset + c] · chunk)ᵀ`
/// (`m x p`) for a dense left operand and one CSR chunk of `c` rows —
/// the transpose of [`Matrix::matmul`] of that `lhs` column block with the
/// densified chunk, bit for bit.
///
/// The output is stored transposed so every stored entry `(kk, j, v)` of
/// the chunk updates output row `j` with one contiguous `p`-wide fold
/// against row `kk` of the transposed `lhs` block: one walk over the
/// chunk, whatever `p` is. Each output entry
/// still folds its terms over the chunk rows ascending, exactly as the
/// dense kernel does: the inner dimension is the chunk's row count (at
/// most [`STREAM_CHUNK_ROWS`] < `KC`), so the packed path is a single
/// K-block — one `fmadd` fold per entry — and below
/// [`MATMUL_BLOCKED_MIN_WORK`] the naive kernel's plain `+=` with its
/// explicit skip of zero `lhs` entries.
fn csr_left_matmul_chunk_t(lhs: &Matrix, offset: usize, chunk: &CsrShard) -> Result<Matrix> {
    let (p, kdim, m) = (lhs.rows(), chunk.rows, chunk.cols);
    if offset + kdim > lhs.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "csr_left_matmul",
            lhs: lhs.shape(),
            rhs: (offset + kdim, m),
        });
    }
    debug_assert!(kdim <= KC, "left chunks come from the pending buffer");
    let work = p * kdim * m;
    let fused = work >= MATMUL_BLOCKED_MIN_WORK;
    let threads = threads_for(work);
    // Row `kk` of `a_t` is column `offset + kk` of `lhs`.
    let mut a_t = vec![0.0f64; kdim * p];
    for t in 0..p {
        let block = &lhs.row(t)[offset..offset + kdim];
        for (kk, &a) in block.iter().enumerate() {
            a_t[kk * p + t] = a;
        }
    }
    let mut out = Matrix::zeros(m, p);
    ivmf_par::par_row_panels(out.as_mut_slice(), p, threads, |first_j, panel| {
        let end_j = first_j + panel.len() / p;
        for kk in 0..kdim {
            let a = &a_t[kk * p..(kk + 1) * p];
            let (cols, vals) = chunk.row_entries(kk);
            let (lo, hi) = (
                cols.partition_point(|&j| j < first_j),
                cols.partition_point(|&j| j < end_j),
            );
            for (&j, &v) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
                let out_row = &mut panel[(j - first_j) * p..(j - first_j + 1) * p];
                if fused {
                    for (o, &x) in out_row.iter_mut().zip(a) {
                        *o = fmadd(x, v, *o);
                    }
                } else {
                    for (o, &x) in out_row.iter_mut().zip(a) {
                        if x != 0.0 {
                            *o += x * v; // the naive kernel skips zero `lhs` entries
                        }
                    }
                }
            }
        }
    });
    Ok(out)
}

// ---------------------------------------------------------------------------
// The two CSR Gram-type accumulators and the streamed products.
// Re-alignment and the two-level fold live in `crate::fold`.
// ---------------------------------------------------------------------------

/// Returns a consumed chunk shard's three backing buffers to the
/// [`crate::pool`] (an allocator hint, never a correctness requirement).
fn recycle_csr_shard(s: CsrShard) {
    crate::pool::recycle_usize(s.row_ptr);
    crate::pool::recycle_usize(s.col_idx);
    crate::pool::recycle_f64(s.values);
}

/// Chunk kernel of [`SparseGramAccumulator`]: the upper-triangle CSR Gram
/// of each chunk into one reused scratch per drain.
#[derive(Debug, Clone)]
pub enum CsrGram {}

impl ChunkKernel for CsrGram {
    type Rows = PendingCsrRows;
    const TAG: &'static str = "sparsegram";
    const UPPER: bool = true;
    const RECYCLE: bool = true;

    fn fold_chunks(rows: &PendingCsrRows, full: usize, sum: &mut Partials<Self>) -> Result<()> {
        let m = rows.cols;
        // Pool-backed zeroed scratch: this drain runs once per
        // PAR_FOLD_CHUNKS chunks, so without the pool every drain would
        // allocate (and fault in) a fresh m×m buffer.
        let mut scratch = Matrix::from_vec(m, m, crate::pool::take_zeroed_f64(m * m))
            .expect("pooled buffer has exactly m*m elements");
        for i in 0..full {
            let c = rows.chunk(i);
            csr_gram_chunk_upper_into(&c, &mut scratch);
            recycle_csr_shard(c);
            sum.fold(Cow::Borrowed(&scratch));
            if i + 1 < full {
                zero_upper(&mut scratch);
            }
        }
        crate::pool::recycle_f64(scratch.into_vec());
        Ok(())
    }

    fn tail(rem: CsrShard) -> Result<Matrix> {
        let g = csr_gram_chunk_upper(&rem);
        recycle_csr_shard(rem);
        Ok(g)
    }
}

/// Chunk kernel of [`SparseCrossGramAccumulator`]: the CSR `AᵀB` per
/// chunk pair.
#[derive(Debug, Clone)]
pub enum CsrCross {}

impl ChunkKernel for CsrCross {
    type Rows = (PendingCsrRows, PendingCsrRows);
    const TAG: &'static str = "sparsecrossgram";
    const RECYCLE: bool = true;

    fn fold_chunks(rows: &Self::Rows, full: usize, sum: &mut Partials<Self>) -> Result<()> {
        for i in 0..full {
            let p = Self::tail(rows.chunk(i))?;
            sum.fold(Cow::Owned(p));
        }
        Ok(())
    }

    fn tail((a, b): (CsrShard, CsrShard)) -> Result<Matrix> {
        let p = csr_cross_chunk(&a, &b);
        recycle_csr_shard(a);
        recycle_csr_shard(b);
        p
    }
}

/// Streaming accumulator for the Gram matrix `AᵀA` over a CSR row-block
/// stream, folding **over stored entries only**: the sparse counterpart
/// of [`GramAccumulator`](crate::GramAccumulator). Both run the one
/// chunk re-alignment and two-level fold of the
/// [`streaming`](crate::streaming) module docs, so for the same logical
/// matrix they are interchangeable bit for bit, unit merge included.
///
/// Two things differ from the dense accumulator. Its chunks fold on the
/// calling thread through one reused scratch, which keeps peak memory at
/// one `m×m` partial (the interval-Gram fold runs whole merge-group units
/// concurrently instead). And its partials hold upper triangles only,
/// mirrored once when it finishes.
pub type SparseGramAccumulator = StreamAccumulator<CsrGram>;

impl SparseGramAccumulator {
    /// An empty accumulator for a stream with `cols` columns.
    pub fn new(cols: usize) -> Self {
        StreamAccumulator::empty(PendingCsrRows::new(cols))
    }

    /// Number of columns of the stream (and of the Gram output).
    pub fn cols(&self) -> usize {
        self.pending.cols
    }

    /// Feeds the next CSR row block (row order across calls).
    pub fn push_block(&mut self, block: &CsrShard) -> Result<()> {
        if block.cols != self.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse_gram_accumulate",
                lhs: (self.rows_seen(), self.cols()),
                rhs: block.shape(),
            });
        }
        self.push(block)
    }

    /// The Gram matrix of every row seen so far (non-consuming, like the
    /// dense accumulator; same `master ⊕ (group ⊕ tail)` order).
    pub fn finish(&self) -> Matrix {
        self.try_finish().expect("the Gram kernel cannot fail")
    }
}

/// Streaming accumulator for the cross product `AᵀB` over a pair of CSR
/// row-block streams fed in lockstep (the `loᵀ·hi` term of the exact
/// interval Gram): the sparse counterpart of
/// [`CrossGramAccumulator`](crate::CrossGramAccumulator), bitwise
/// identical to it on the same logical matrices.
pub type SparseCrossGramAccumulator = StreamAccumulator<CsrCross>;

impl SparseCrossGramAccumulator {
    /// An empty accumulator for streams with `a_cols` / `b_cols` columns.
    pub fn new(a_cols: usize, b_cols: usize) -> Self {
        StreamAccumulator::empty((PendingCsrRows::new(a_cols), PendingCsrRows::new(b_cols)))
    }

    /// Column count of the first stream (rows of the `AᵀB` output).
    pub fn a_cols(&self) -> usize {
        self.pending.0.cols
    }

    /// Column count of the second stream (columns of the `AᵀB` output).
    pub fn b_cols(&self) -> usize {
        self.pending.1.cols
    }

    /// Feeds the next CSR row block of each stream; the blocks must cover
    /// the same rows (equal row counts).
    pub fn push_blocks(&mut self, a: &CsrShard, b: &CsrShard) -> Result<()> {
        if a.rows != b.rows || a.cols != self.a_cols() || b.cols != self.b_cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse_cross_gram_accumulate",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        self.push((a, b))
    }

    /// The cross product `AᵀB` of every row pair seen so far
    /// (non-consuming; same `master ⊕ (group ⊕ tail)` order).
    pub fn finish(&self) -> Result<Matrix> {
        self.try_finish()
    }
}

/// Gram matrix `AᵀA` of a CSR row-block source through the sparse
/// streaming accumulator: bitwise identical to [`crate::gram_streamed`]
/// over the same logical rows, for every shard layout and thread count.
pub fn gram_streamed_csr(source: &dyn CsrRowBlocks) -> Result<Matrix> {
    let mut acc = SparseGramAccumulator::new(source.cols());
    source.for_each_csr_block(&mut |b| acc.push_block(b))?;
    if acc.rows_seen() != source.rows() {
        return Err(LinalgError::InvalidArgument(format!(
            "CSR row-block source delivered {} of its declared {} rows",
            acc.rows_seen(),
            source.rows()
        )));
    }
    Ok(acc.finish())
}

/// Row-streamed product `source · rhs` over a CSR source: bitwise
/// identical to [`crate::matmul_streamed`] over the same logical rows.
pub fn matmul_streamed_csr(source: &dyn CsrRowBlocks, rhs: &Matrix) -> Result<Matrix> {
    let (n, k) = source.shape();
    if k != rhs.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_streamed_csr",
            lhs: (n, k),
            rhs: rhs.shape(),
        });
    }
    let m = rhs.cols();
    let mut out = Matrix::zeros(n, m);
    let mut pending = PendingCsrRows::new(k);
    let mut next_row = 0usize;
    let mut write = |chunk: CsrShard| -> Result<()> {
        let p = csr_matmul_chunk(&chunk, rhs);
        recycle_csr_shard(chunk);
        let p = p?;
        if next_row + p.rows() > n {
            return Err(LinalgError::InvalidArgument(format!(
                "CSR row-block source delivered more than its declared {n} rows"
            )));
        }
        let len = p.rows() * m;
        out.as_mut_slice()[next_row * m..next_row * m + len].copy_from_slice(p.as_slice());
        next_row += p.rows();
        Ok(())
    };
    source.for_each_csr_block(&mut |block| {
        if block.cols() != k {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_streamed_csr",
                lhs: (n, k),
                rhs: block.shape(),
            });
        }
        realign(&mut pending, block, |pending, full| {
            (0..full).try_for_each(|i| write(pending.chunk(i)))
        })
    })?;
    if let Some(rem) = pending.remainder() {
        write(rem)?;
    }
    if next_row != n {
        return Err(LinalgError::InvalidArgument(format!(
            "CSR row-block source delivered {next_row} of its declared {n} rows"
        )));
    }
    Ok(out)
}

/// Reduction-streamed product `lhs · source` over a CSR source: bitwise
/// identical to [`crate::matmul_left_streamed`] over the same logical
/// rows. The transpose of [`matmul_left_streamed_csr_t`].
pub fn matmul_left_streamed_csr(lhs: &Matrix, source: &dyn CsrRowBlocks) -> Result<Matrix> {
    Ok(matmul_left_streamed_csr_t(lhs, source)?.transpose())
}

/// The transposed reduction-streamed product `(lhs · source)ᵀ` (`m x p`
/// for `lhs` of shape `p x n` and a source of shape `n x m`): per global
/// chunk, the matching column block of `lhs` multiplies the chunk through
/// the transposed chunk kernel, and the partial products fold in chunk
/// order — so every entry is bitwise the transpose of
/// [`crate::matmul_left_streamed`] over the same logical rows, for every
/// shard layout and thread count. Tall right factors (`m x r`) come out in
/// their own layout, with no transpose pass.
pub fn matmul_left_streamed_csr_t(lhs: &Matrix, source: &dyn CsrRowBlocks) -> Result<Matrix> {
    let (n, m) = source.shape();
    if lhs.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_left_streamed_csr",
            lhs: lhs.shape(),
            rhs: (n, m),
        });
    }
    let mut acc: Option<Matrix> = None;
    let mut pending = PendingCsrRows::new(m);
    let mut offset = 0usize;
    let mut fold = |chunk: CsrShard| -> Result<()> {
        let p = csr_left_matmul_chunk_t(lhs, offset, &chunk)?;
        offset += chunk.rows();
        recycle_csr_shard(chunk);
        match &mut acc {
            None => acc = Some(p),
            Some(a) => add_assign(a, &p),
        }
        Ok(())
    };
    source.for_each_csr_block(&mut |block| {
        if block.cols() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_left_streamed_csr",
                lhs: (n, m),
                rhs: block.shape(),
            });
        }
        realign(&mut pending, block, |pending, full| {
            (0..full).try_for_each(|i| fold(pending.chunk(i)))
        })
    })?;
    if let Some(rem) = pending.remainder() {
        fold(rem)?;
    }
    if offset != n {
        return Err(LinalgError::InvalidArgument(format!(
            "CSR row-block source delivered {offset} of its declared {n} rows"
        )));
    }
    Ok(acc.unwrap_or_else(|| Matrix::zeros(m, lhs.rows())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::GROUP_ROWS;
    use crate::{gram_streamed, matmul_left_streamed, matmul_streamed, RowShardedMatrix};

    /// Deterministic pseudo-random sparse fill: ~`nnz_per_row` stored
    /// entries per row, values in `(-1, 1)`.
    fn lcg_sparse(rows: usize, cols: usize, nnz_per_row: usize, mut state: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33) as usize % cols < nnz_per_row {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            } else {
                0.0
            }
        })
    }

    fn assert_bitwise(a: &Matrix, b: &Matrix, context: &str) {
        assert_eq!(a.shape(), b.shape(), "{context}: shape mismatch");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: entry {i} differs ({x} vs {y})"
            );
        }
    }

    #[test]
    fn csr_construction_validates_and_round_trips() {
        let m = lcg_sparse(9, 7, 3, 5);
        let csr = CsrShard::from_dense(&m);
        assert_eq!(csr.shape(), (9, 7));
        assert_eq!(csr.to_dense(), m);
        assert!(csr.density() < 1.0);
        // Raw constructor round-trip.
        let rebuilt = CsrShard::new(
            9,
            7,
            csr.row_ptr().to_vec(),
            csr.col_idx().to_vec(),
            csr.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, csr);
        // Structural errors.
        assert!(CsrShard::new(2, 3, vec![0, 1], vec![0], vec![1.0]).is_err()); // short row_ptr
        assert!(CsrShard::new(1, 3, vec![0, 2], vec![0], vec![1.0]).is_err()); // length mismatch
        assert!(CsrShard::new(1, 3, vec![0, 1], vec![3], vec![1.0]).is_err()); // col out of range
        assert!(CsrShard::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err()); // dup col
        assert!(CsrShard::new(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).is_err());
        // unsorted
    }

    #[test]
    fn csr_from_triplets_sorts_and_rejects_duplicates() {
        let t = [(1usize, 2usize, 3.0), (0, 1, 1.0), (1, 0, 2.0)];
        let csr = CsrShard::from_triplets(3, 4, &t).unwrap();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row_entries(1), (&[0usize, 2][..], &[2.0, 3.0][..]));
        assert_eq!(csr.row_entries(2), (&[][..], &[][..]));
        assert!(CsrShard::from_triplets(3, 4, &[(0, 1, 1.0), (0, 1, 2.0)]).is_err());
        assert!(CsrShard::from_triplets(3, 4, &[(3, 0, 1.0)]).is_err());
    }

    #[test]
    fn csr_row_slice_and_with_values() {
        let m = lcg_sparse(10, 6, 2, 7);
        let csr = CsrShard::from_dense(&m);
        let s = csr.row_slice(3, 7).unwrap();
        assert_eq!(s.shape(), (4, 6));
        for i in 0..4 {
            assert_eq!(s.row_entries(i), csr.row_entries(3 + i));
        }
        assert!(csr.row_slice(7, 3).is_err());
        let doubled = csr
            .with_values(csr.values().iter().map(|v| 2.0 * v).collect())
            .unwrap();
        assert_eq!(doubled.nnz(), csr.nnz());
        assert!(csr.with_values(vec![0.0]).is_err());
    }

    #[test]
    fn sparse_gram_is_bitwise_equal_to_dense_for_every_layout() {
        // Straddles several chunk boundaries; m = 23 puts full chunks on
        // the fused SYRK path (128·23·23/2 ≥ 32768) while the remainder
        // takes the plain path — both dispatches are exercised and must
        // match the dense dispatch exactly.
        let n = 2 * STREAM_CHUNK_ROWS + 37;
        let dense = lcg_sparse(n, 23, 4, 11);
        let reference = gram_streamed(&dense).unwrap();
        for shard_rows in [1usize, 7, STREAM_CHUNK_ROWS - 1, STREAM_CHUNK_ROWS + 5, n] {
            let sparse = CsrShardedMatrix::from_dense(&dense, shard_rows).unwrap();
            let streamed = gram_streamed_csr(&sparse).unwrap();
            assert_bitwise(
                &streamed,
                &reference,
                &format!("sparse gram shard_rows={shard_rows}"),
            );
        }
        // Small-column case: every chunk takes the plain path.
        let small = lcg_sparse(n, 9, 3, 12);
        assert_bitwise(
            &gram_streamed_csr(&CsrShard::from_dense(&small)).unwrap(),
            &gram_streamed(&small).unwrap(),
            "plain-path gram",
        );
    }

    #[test]
    fn sparse_gram_is_thread_count_invariant_bitwise() {
        let n = 3 * STREAM_CHUNK_ROWS + 11;
        let dense = lcg_sparse(n, 31, 5, 17);
        let sparse = CsrShardedMatrix::from_dense(&dense, 50).unwrap();
        let _guard = crate::test_env::THREADS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let prev = std::env::var(ivmf_par::THREADS_ENV).ok();
        std::env::set_var(ivmf_par::THREADS_ENV, "1");
        let single = gram_streamed_csr(&sparse).unwrap();
        std::env::set_var(ivmf_par::THREADS_ENV, "4");
        let quad = gram_streamed_csr(&sparse).unwrap();
        let dense_ref = gram_streamed(&dense).unwrap();
        match prev {
            Some(v) => std::env::set_var(ivmf_par::THREADS_ENV, v),
            None => std::env::remove_var(ivmf_par::THREADS_ENV),
        }
        assert_bitwise(&single, &quad, "threads 1 vs 4");
        assert_bitwise(&quad, &dense_ref, "threads 4 vs dense");
    }

    #[test]
    fn sparse_gram_accumulator_is_incremental_bitwise() {
        let head = lcg_sparse(200, 19, 4, 21);
        let tail = lcg_sparse(77, 19, 4, 22);
        let mut acc = SparseGramAccumulator::new(19);
        acc.push_block(&CsrShard::from_dense(&head)).unwrap();
        let _intermediate = acc.finish(); // non-consuming
        acc.push_block(&CsrShard::from_dense(&tail)).unwrap();
        assert_eq!(acc.rows_seen(), 277);

        let mut dense_acc = crate::GramAccumulator::new(19);
        dense_acc.push_block(&head).unwrap();
        dense_acc.push_block(&tail).unwrap();
        assert_bitwise(&acc.finish(), &dense_acc.finish(), "incremental vs dense");
        assert!(acc
            .push_block(&CsrShard::from_dense(&Matrix::zeros(2, 5)))
            .is_err());
    }

    #[test]
    fn sparse_accumulator_state_round_trips_bitwise() {
        // Mid-stream state (folded chunks + CSR pending tail) must
        // restore to an accumulator whose continued fold is bitwise the
        // uninterrupted run — for both the Gram and the cross variant.
        let head = lcg_sparse(STREAM_CHUNK_ROWS + 50, 13, 4, 81);
        let tail = lcg_sparse(70, 13, 4, 82);
        let mut acc = SparseGramAccumulator::new(13);
        acc.push_block(&CsrShard::from_dense(&head)).unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let mut restored =
            SparseGramAccumulator::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(restored.rows_seen(), acc.rows_seen());
        acc.push_block(&CsrShard::from_dense(&tail)).unwrap();
        restored.push_block(&CsrShard::from_dense(&tail)).unwrap();
        assert_bitwise(&restored.finish(), &acc.finish(), "continued sparse gram");

        let b_head = lcg_sparse(STREAM_CHUNK_ROWS + 50, 9, 3, 83);
        let b_tail = lcg_sparse(70, 9, 3, 84);
        let mut cross = SparseCrossGramAccumulator::new(13, 9);
        cross
            .push_blocks(&CsrShard::from_dense(&head), &CsrShard::from_dense(&b_head))
            .unwrap();
        let mut buf = Vec::new();
        cross.write_state(&mut buf).unwrap();
        let mut restored =
            SparseCrossGramAccumulator::read_state(&mut std::io::BufReader::new(&buf[..])).unwrap();
        cross
            .push_blocks(&CsrShard::from_dense(&tail), &CsrShard::from_dense(&b_tail))
            .unwrap();
        restored
            .push_blocks(&CsrShard::from_dense(&tail), &CsrShard::from_dense(&b_tail))
            .unwrap();
        assert_bitwise(
            &restored.finish().unwrap(),
            &cross.finish().unwrap(),
            "continued sparse cross",
        );
    }

    #[test]
    fn sparse_read_state_rejects_corrupted_text() {
        let mut acc = SparseGramAccumulator::new(5);
        acc.push_block(&CsrShard::from_dense(&lcg_sparse(
            STREAM_CHUNK_ROWS + 9,
            5,
            2,
            85,
        )))
        .unwrap();
        let mut buf = Vec::new();
        acc.write_state(&mut buf).unwrap();
        let corrupt = |b: &[u8]| {
            SparseGramAccumulator::read_state(&mut std::io::BufReader::new(b)).unwrap_err()
        };
        corrupt(&buf[..buf.len() / 3]); // truncation
        let mut wrong_tag = b"gram".to_vec();
        wrong_tag.extend_from_slice(&buf["sparsegram".len()..]);
        corrupt(&wrong_tag);
        // A column index pushed out of range corrupts the CSR structure.
        // Lines 0..=2 (header, row offsets, column indices) are still
        // text; only the value runs after them are binary.
        let nl: Vec<usize> = buf
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .take(3)
            .collect();
        let col_line = std::str::from_utf8(&buf[nl[1] + 1..nl[2]]).unwrap();
        let bumped = col_line
            .split_ascii_whitespace()
            .map(|_| "9")
            .collect::<Vec<_>>()
            .join(" ");
        let mut bad_cols = buf[..nl[1] + 1].to_vec();
        bad_cols.extend_from_slice(bumped.as_bytes());
        bad_cols.extend_from_slice(&buf[nl[2]..]);
        corrupt(&bad_cols);
    }

    #[test]
    fn sparse_cross_gram_matches_dense_accumulator_bitwise() {
        let n = STREAM_CHUNK_ROWS + 61;
        let a = lcg_sparse(n, 13, 3, 31);
        let b = lcg_sparse(n, 9, 3, 32);
        let mut dense_acc = crate::CrossGramAccumulator::new(13, 9);
        dense_acc.push_blocks(&a, &b).unwrap();
        let reference = dense_acc.finish().unwrap();
        for shard_rows in [1usize, 5, 64, n] {
            let sa = CsrShardedMatrix::from_dense(&a, shard_rows).unwrap();
            let sb = CsrShardedMatrix::from_dense(&b, shard_rows).unwrap();
            let mut acc = SparseCrossGramAccumulator::new(13, 9);
            for (xa, xb) in sa.shards().iter().zip(sb.shards()) {
                acc.push_blocks(xa, xb).unwrap();
            }
            assert_eq!(acc.rows_seen(), n);
            assert_bitwise(
                &acc.finish().unwrap(),
                &reference,
                &format!("cross shard_rows={shard_rows}"),
            );
        }
        let mut acc = SparseCrossGramAccumulator::new(13, 9);
        assert!(acc
            .push_blocks(
                &CsrShard::from_dense(&lcg_sparse(3, 13, 2, 1)),
                &CsrShard::from_dense(&lcg_sparse(4, 9, 2, 2)),
            )
            .is_err());
    }

    #[test]
    fn sparse_two_level_fold_stays_bitwise_equal_to_dense_past_a_group() {
        // Crosses two group-seal boundaries; every layout (and the dense
        // accumulator, which seals at the same global chunk indices) must
        // agree bit for bit.
        let n = 2 * GROUP_ROWS + 3 * STREAM_CHUNK_ROWS + 41;
        let dense = lcg_sparse(n, 11, 3, 101);
        let reference = gram_streamed(&dense).unwrap();
        for shard_rows in [GROUP_ROWS - 1, GROUP_ROWS + 129, 997] {
            let sparse = CsrShardedMatrix::from_dense(&dense, shard_rows).unwrap();
            assert_bitwise(
                &gram_streamed_csr(&sparse).unwrap(),
                &reference,
                &format!("two-level sparse gram shard_rows={shard_rows}"),
            );
        }
    }

    #[test]
    fn sparse_absorb_unit_reproduces_the_single_accumulator_bits() {
        let n = 2 * GROUP_ROWS + 205;
        let dense = lcg_sparse(n, 7, 3, 103);
        let csr = CsrShard::from_dense(&dense);
        let mut single = SparseGramAccumulator::new(7);
        single.push_block(&csr).unwrap();

        let mut merged = SparseGramAccumulator::new(7);
        let mut start = 0;
        while start < n {
            let end = (start + GROUP_ROWS).min(n);
            let mut worker = SparseGramAccumulator::new(7);
            worker
                .push_block(&csr.row_slice(start, end).unwrap())
                .unwrap();
            merged.absorb_unit(worker).unwrap();
            start = end;
        }
        assert_eq!(merged.rows_seen(), single.rows_seen());
        assert_bitwise(
            &merged.finish(),
            &single.finish(),
            "sparse merged vs single",
        );
        // Continuing the fold after the merge stays bitwise identical,
        // and the serialized states agree byte for byte.
        let extra = CsrShard::from_dense(&lcg_sparse(300, 7, 3, 104));
        merged.push_block(&extra).unwrap();
        single.push_block(&extra).unwrap();
        assert_bitwise(&merged.finish(), &single.finish(), "sparse continued");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        merged.write_state(&mut a).unwrap();
        single.write_state(&mut b).unwrap();
        assert_eq!(a, b, "serialized sparse states must agree");

        // Preconditions: off-boundary target, oversized unit, col
        // mismatch.
        let mut off = SparseGramAccumulator::new(7);
        off.push_block(&CsrShard::from_dense(&lcg_sparse(10, 7, 2, 105)))
            .unwrap();
        assert!(off.absorb_unit(SparseGramAccumulator::new(7)).is_err());
        let mut big = SparseGramAccumulator::new(7);
        big.push_block(&CsrShard::from_dense(&lcg_sparse(
            GROUP_ROWS + 1,
            7,
            1,
            106,
        )))
        .unwrap();
        assert!(SparseGramAccumulator::new(7).absorb_unit(big).is_err());
        assert!(SparseGramAccumulator::new(7)
            .absorb_unit(SparseGramAccumulator::new(8))
            .is_err());
    }

    #[test]
    fn sparse_cross_absorb_unit_reproduces_the_single_accumulator_bits() {
        let n = GROUP_ROWS + 391;
        let a = CsrShard::from_dense(&lcg_sparse(n, 6, 2, 107));
        let b = CsrShard::from_dense(&lcg_sparse(n, 3, 2, 108));
        let mut single = SparseCrossGramAccumulator::new(6, 3);
        single.push_blocks(&a, &b).unwrap();

        let mut merged = SparseCrossGramAccumulator::new(6, 3);
        let mut start = 0;
        while start < n {
            let end = (start + GROUP_ROWS).min(n);
            let mut worker = SparseCrossGramAccumulator::new(6, 3);
            worker
                .push_blocks(
                    &a.row_slice(start, end).unwrap(),
                    &b.row_slice(start, end).unwrap(),
                )
                .unwrap();
            merged.absorb_unit(worker).unwrap();
            start = end;
        }
        assert_bitwise(
            &merged.finish().unwrap(),
            &single.finish().unwrap(),
            "sparse cross merged vs single",
        );
        let (mut x, mut y) = (Vec::new(), Vec::new());
        merged.write_state(&mut x).unwrap();
        single.write_state(&mut y).unwrap();
        assert_eq!(x, y, "serialized sparse cross states must agree");
        assert!(SparseCrossGramAccumulator::new(6, 3)
            .absorb_unit(SparseCrossGramAccumulator::new(6, 4))
            .is_err());
    }

    #[test]
    fn sparse_matmul_streamed_matches_dense_bitwise() {
        // cols = 300 > KC exercises the K-block staging of the fused
        // path; a small rhs keeps some chunks on the naive path too.
        let n = 2 * STREAM_CHUNK_ROWS + 19;
        let dense = lcg_sparse(n, 300, 12, 41);
        let rhs = lcg_sparse(300, 8, 8, 42);
        let reference = matmul_streamed(&dense, &rhs).unwrap();
        for shard_rows in [1usize, 30, STREAM_CHUNK_ROWS, n] {
            let sparse = CsrShardedMatrix::from_dense(&dense, shard_rows).unwrap();
            let streamed = matmul_streamed_csr(&sparse, &rhs).unwrap();
            assert_bitwise(
                &streamed,
                &reference,
                &format!("sparse matmul shard_rows={shard_rows}"),
            );
        }
        // Narrow case: everything on the naive path.
        let narrow = lcg_sparse(40, 21, 4, 43);
        let nrhs = lcg_sparse(21, 3, 3, 44);
        assert_bitwise(
            &matmul_streamed_csr(&CsrShard::from_dense(&narrow), &nrhs).unwrap(),
            &matmul_streamed(&narrow, &nrhs).unwrap(),
            "naive-path matmul",
        );
        assert!(matmul_streamed_csr(&CsrShard::from_dense(&narrow), &rhs).is_err());
    }

    #[test]
    fn sparse_left_matmul_streamed_matches_dense_bitwise() {
        let n = STREAM_CHUNK_ROWS + 83;
        let dense = lcg_sparse(n, 17, 4, 51);
        let lhs = lcg_sparse(6, n, n / 2, 52);
        let reference = matmul_left_streamed(&lhs, &dense).unwrap();
        for shard_rows in [1usize, 29, n] {
            let sparse = CsrShardedMatrix::from_dense(&dense, shard_rows).unwrap();
            let streamed = matmul_left_streamed_csr(&lhs, &sparse).unwrap();
            assert_bitwise(
                &streamed,
                &reference,
                &format!("sparse left matmul shard_rows={shard_rows}"),
            );
        }
        // A wide left operand pushes the per-chunk work over the fused
        // threshold.
        let wide_lhs = lcg_sparse(40, n, n / 2, 53);
        assert_bitwise(
            &matmul_left_streamed_csr(&wide_lhs, &CsrShard::from_dense(&dense)).unwrap(),
            &matmul_left_streamed(&wide_lhs, &dense).unwrap(),
            "fused left matmul",
        );
        assert!(
            matmul_left_streamed_csr(&lcg_sparse(2, 3, 2, 1), &CsrShard::from_dense(&dense))
                .is_err()
        );
    }

    #[test]
    fn transposed_left_kernel_matches_dense_bitwise_across_threads() {
        // 2 full chunks plus a 45-row remainder; 20 x 128 x 256 per chunk
        // is above MATMUL_PAR_MIN_WORK, so two threads really split the
        // output panels.
        let n = 2 * STREAM_CHUNK_ROWS + 45;
        let dense = lcg_sparse(n, 256, 16, 61);
        let lhs = lcg_sparse(20, n, n, 62);
        const _: () = assert!(20 * STREAM_CHUNK_ROWS * 256 >= crate::MATMUL_PAR_MIN_WORK);
        // Plain `+=` path: 3 x 128 x 21 is below MATMUL_BLOCKED_MIN_WORK,
        // and the left operand carries zeros (both signs) the naive
        // kernel must skip.
        let narrow = lcg_sparse(n, 21, 5, 63);
        let mut sparse_lhs = lcg_sparse(3, n, n / 3, 64);
        for (i, x) in sparse_lhs.as_mut_slice().iter_mut().enumerate() {
            if i % 7 == 0 {
                *x = -0.0;
            }
        }
        const _: () = assert!(3 * STREAM_CHUNK_ROWS * 21 < MATMUL_BLOCKED_MIN_WORK);
        let _guard = crate::test_env::THREADS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let prev = std::env::var(ivmf_par::THREADS_ENV).ok();
        for threads in ["1", "2"] {
            std::env::set_var(ivmf_par::THREADS_ENV, threads);
            for (l, m, path) in [(&lhs, &dense, "fused"), (&sparse_lhs, &narrow, "plain")] {
                let reference = matmul_left_streamed(l, m).unwrap().transpose();
                for shard_rows in [7usize, STREAM_CHUNK_ROWS, n] {
                    let sparse = CsrShardedMatrix::from_dense(m, shard_rows).unwrap();
                    assert_bitwise(
                        &matmul_left_streamed_csr_t(l, &sparse).unwrap(),
                        &reference,
                        &format!(
                            "{path} transposed kernel, {threads} threads, shards of {shard_rows}"
                        ),
                    );
                }
            }
        }
        match prev {
            Some(v) => std::env::set_var(ivmf_par::THREADS_ENV, v),
            None => std::env::remove_var(ivmf_par::THREADS_ENV),
        }
    }

    #[test]
    fn degenerate_inputs_match_dense_bitwise() {
        // All-zero matrix (zero stored entries).
        let zero = Matrix::zeros(STREAM_CHUNK_ROWS + 9, 12);
        let zcsr = CsrShard::from_dense(&zero);
        assert_eq!(zcsr.nnz(), 0);
        assert_bitwise(
            &gram_streamed_csr(&zcsr).unwrap(),
            &gram_streamed(&zero).unwrap(),
            "all-zero gram",
        );
        // Single stored entry.
        let single = CsrShard::from_triplets(STREAM_CHUNK_ROWS + 5, 9, &[(130, 4, -2.5)]).unwrap();
        assert_bitwise(
            &gram_streamed_csr(&single).unwrap(),
            &gram_streamed(&single.to_dense()).unwrap(),
            "single-entry gram",
        );
        // Rows with no stored entries interleaved with dense rows.
        let mut m = lcg_sparse(2 * STREAM_CHUNK_ROWS, 11, 4, 61);
        for i in (0..m.rows()).step_by(3) {
            for j in 0..11 {
                m[(i, j)] = 0.0;
            }
        }
        let csr = CsrShardedMatrix::from_dense(&m, 37).unwrap();
        assert_bitwise(
            &gram_streamed_csr(&csr).unwrap(),
            &gram_streamed(&m).unwrap(),
            "empty-row gram",
        );
        let rhs = lcg_sparse(11, 4, 4, 62);
        assert_bitwise(
            &matmul_streamed_csr(&csr, &rhs).unwrap(),
            &matmul_streamed(&m, &rhs).unwrap(),
            "empty-row matmul",
        );
    }

    #[test]
    fn explicit_stored_zeros_are_bitwise_no_ops() {
        // A stored 0.0 must behave exactly like an implicit zero (the
        // dense kernels see the same 0.0 either way).
        let m = lcg_sparse(150, 14, 3, 71);
        let with_zero = {
            let mut t: Vec<(usize, usize, f64)> = Vec::new();
            let csr = CsrShard::from_dense(&m);
            for i in 0..csr.rows() {
                let (cols, vals) = csr.row_entries(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    t.push((i, c, v));
                }
            }
            // Inject explicit zeros at cells that were implicit.
            for i in 0..csr.rows() {
                if csr.row_entries(i).0.first() != Some(&0) {
                    t.push((i, 0, 0.0));
                }
            }
            CsrShard::from_triplets(150, 14, &t).unwrap()
        };
        assert!(with_zero.nnz() > CsrShard::from_dense(&m).nnz());
        assert_bitwise(
            &gram_streamed_csr(&with_zero).unwrap(),
            &gram_streamed(&m).unwrap(),
            "explicit zero gram",
        );
    }

    #[test]
    fn densifying_row_blocks_escape_hatch_matches_sparse_path() {
        let n = 2 * STREAM_CHUNK_ROWS + 33;
        let dense = lcg_sparse(n, 15, 3, 81);
        let sparse = CsrShardedMatrix::from_dense(&dense, 90).unwrap();
        // The RowBlocks impl densifies chunk-by-chunk; feeding it to the
        // *dense* streamed Gram must agree with both reference paths.
        assert_bitwise(
            &gram_streamed(&sparse).unwrap(),
            &gram_streamed(&dense).unwrap(),
            "escape hatch vs dense",
        );
        assert_bitwise(
            &gram_streamed(&sparse).unwrap(),
            &gram_streamed_csr(&sparse).unwrap(),
            "escape hatch vs sparse",
        );
    }

    #[test]
    fn sharded_construction_errors() {
        assert!(CsrShardedMatrix::from_shards(vec![]).is_err());
        let m = lcg_sparse(6, 4, 2, 91);
        assert!(CsrShardedMatrix::from_dense(&m, 0).is_err());
        let ok = CsrShard::from_dense(&m);
        let other = CsrShard::from_dense(&lcg_sparse(2, 5, 2, 92));
        assert!(CsrShardedMatrix::from_shards(vec![ok.clone(), other]).is_err());
        let mut sharded = CsrShardedMatrix::from_csr(&ok, 4).unwrap();
        assert_eq!(sharded.num_shards(), 2);
        assert!(sharded
            .append_shard(CsrShard::from_dense(&lcg_sparse(2, 5, 2, 93)))
            .is_err());
        sharded
            .append_shard(CsrShard::from_dense(&lcg_sparse(2, 4, 2, 94)))
            .unwrap();
        assert_eq!(sharded.rows(), 8);
        assert_eq!(sharded.to_dense().rows(), 8);
    }

    /// A source whose blocks contradict its declared shape.
    struct LyingCsrSource;

    impl CsrRowBlocks for LyingCsrSource {
        fn rows(&self) -> usize {
            10
        }
        fn cols(&self) -> usize {
            10
        }
        fn for_each_csr_block(&self, f: &mut dyn FnMut(&CsrShard) -> Result<()>) -> Result<()> {
            f(&CsrShard::from_dense(&Matrix::zeros(5, 12)))
        }
    }

    /// A source that delivers fewer rows than declared.
    struct ShortCsrSource;

    impl CsrRowBlocks for ShortCsrSource {
        fn rows(&self) -> usize {
            10
        }
        fn cols(&self) -> usize {
            4
        }
        fn for_each_csr_block(&self, f: &mut dyn FnMut(&CsrShard) -> Result<()>) -> Result<()> {
            f(&CsrShard::from_dense(&Matrix::zeros(6, 4)))
        }
    }

    #[test]
    fn streamed_csr_kernels_reject_bad_sources() {
        assert!(gram_streamed_csr(&LyingCsrSource).is_err());
        assert!(matmul_streamed_csr(&LyingCsrSource, &Matrix::zeros(10, 3)).is_err());
        assert!(matmul_left_streamed_csr(&Matrix::zeros(2, 10), &LyingCsrSource).is_err());
        let err = gram_streamed_csr(&ShortCsrSource).unwrap_err();
        assert!(err.to_string().contains("declared"), "{err}");
        assert!(matmul_streamed_csr(&ShortCsrSource, &Matrix::zeros(4, 3)).is_err());
        assert!(matmul_left_streamed_csr(&Matrix::zeros(2, 10), &ShortCsrSource).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_sparse_gram_bitwise_equals_dense(seed in 0u64..1_000_000) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..(2 * STREAM_CHUNK_ROWS + 40));
            let m = rng.gen_range(1usize..24);
            let nnz = rng.gen_range(0usize..=m);
            let dense = lcg_sparse(n, m, nnz, seed ^ 0x5eed);
            let reference = gram_streamed(&dense).unwrap();
            let mut shard_sizes = vec![1usize, n];
            shard_sizes.push(rng.gen_range(1..=n));
            shard_sizes.push(rng.gen_range(1..=n));
            for shard_rows in shard_sizes {
                let sparse = CsrShardedMatrix::from_dense(&dense, shard_rows).unwrap();
                let streamed = gram_streamed_csr(&sparse).unwrap();
                proptest::prop_assert_eq!(
                    streamed.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    reference.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "shard_rows={} n={} m={}", shard_rows, n, m
                );
            }
            // The dense sharded path agrees too (three-way equivalence).
            let dense_sharded = RowShardedMatrix::from_matrix(&dense, 1 + n / 3).unwrap();
            let dense_streamed = gram_streamed(&dense_sharded).unwrap();
            proptest::prop_assert_eq!(
                dense_streamed.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
